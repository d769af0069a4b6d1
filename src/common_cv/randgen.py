"""Deterministic, splittable random streams.

Every piece of randomness in this package flows through a
:class:`SeededStream`, identified by ``(master_seed, stream_id)``.
Sub-streams are derived by folding integer components into the current
stream id with a 64-bit mixing hash, so a work unit (a block of pivotal
draws, a simulation replication, a resampling attempt) owns a stream that
depends only on *what* it is, never on scheduling order or worker count.
Equal identifiers reproduce identical sequences; distinct identifiers are
independent by construction of the seeding sequence.

Generation itself is delegated to numpy's PCG64 generator.  Chi-square
draws use the generator's gamma-based rejection sampler (shape df/2,
scale 2), which is O(1) per draw for every df >= 1.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidDfError, ValidationError

_MASK64 = (1 << 64) - 1

# Role tags for derived sub-streams.  Fixed small integers, part of the
# reproducibility contract: changing them changes every derived stream.
ROLE_PIVOT_BLOCK = 1
ROLE_RESAMPLE = 2
ROLE_SIM_DATA = 3
ROLE_SIM_PIVOTS = 4

# What checked_real rejects though float() reads it, and how it words its two
# open-ended ranges; any other range reads "in (low, high)".
_NOT_REAL = (str, bytes, bytearray, bool, np.bool_)
_RANGE_WORDS = {(-math.inf, math.inf): "finite", (0.0, math.inf): "positive and finite"}


def checked_int(value, what: str, error=ValidationError) -> int:
    """``value`` as a plain int, or ``error`` naming ``what`` if it is not
    an integer (a float or a bool is not one)."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{what} must be an integer, got {value!r}")


def checked_real(value, what: str, low=-math.inf, high=math.inf, error=ValidationError) -> float:
    """``value`` as a plain float strictly between ``low`` and ``high``, or
    ``error`` naming ``what``: for a number out of range, NaN, or anything
    not a real number (a str, bytes, a bool, None, a complex number)."""
    try:
        x = math.nan if isinstance(value, _NOT_REAL) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not low < x < high:
        words = _RANGE_WORDS.get((low, high), f"in ({low:g}, {high:g})")
        raise error(f"{what} must be {words}, got {value!r}")
    return x


def checked_seed(seed, what: str = "seed") -> int:
    """``seed`` as a plain int if it is an integer in [0, 2^64).

    Anything else raises ValidationError naming ``what``: a float, a bool,
    or an int that a 64-bit fold would map onto another value's stream.
    Stream ids and sub-stream components are checked the same way.
    """
    value = checked_int(seed, what)
    if not 0 <= value <= _MASK64:
        raise ValidationError(f"{what} must be in [0, 2^64), got {value}")
    return value


def _splitmix64(x: int) -> int:
    # Finalizer of the splitmix64 generator; a bijective 64-bit mix.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix_components(*components: int) -> int:
    """Fold integers in [0, 2^64) into one 64-bit identifier,
    order-sensitively; any other component raises ValidationError."""
    acc = 0
    for c in components:
        acc = _splitmix64(acc ^ checked_seed(c, "a sub-stream component"))
    return acc


def _words(x: int) -> tuple:
    """x in [0, 2^64) as numpy's SeedSequence reads an int: its 32-bit
    words, low first, one word below 2^32."""
    return (x,) if x <= 0xFFFFFFFF else (x & 0xFFFFFFFF, x >> 32)


class SeededStream:
    """Random stream fully determined by ``(master_seed, stream_id)``.

    ``master_seed`` and ``stream_id`` are checked by :func:`checked_seed`,
    so a value outside [0, 2^64) raises ValidationError rather than folding
    onto another value's stream.  The generator is built on the first draw,
    so a stream used only to derive sub-streams costs no more than folding
    their ids.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = checked_seed(master_seed)
        self.stream_id = checked_seed(stream_id, "stream_id")
        self._generator = None

    @property
    def _rng(self) -> np.random.Generator:
        if self._generator is None:
            # SeedSequence([master_seed, stream_id]), handed the 32-bit words
            # it splits each id into, so built at a third of the cost
            seq = np.random.SeedSequence(np.array(_words(self.master_seed) + _words(self.stream_id), np.uint32))
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def __repr__(self):
        return f"SeededStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def substream(self, *components: int) -> "SeededStream":
        """Derive the child stream for a work unit.

        The child's id is ``mix(stream_id, *components)``, each component
        an integer in [0, 2^64); the master seed is inherited, so the child
        is reproducible from the same tuple regardless of how many draws the
        parent has made.
        """
        return SeededStream(self.master_seed, mix_components(self.stream_id, *components))

    def standard_normal(self, size=None):
        """One N(0, 1) draw, or an array of them when ``size`` is given."""
        return self._rng.standard_normal(size)

    def chi_square(self, df, size=None):
        """Chi-square draws with ``df`` degrees of freedom (scalar or array).

        Draws are strictly positive.  Each df must be a finite integer >= 1,
        as an int or a float, or InvalidDfError is raised: a bool, a str,
        an infinity or an empty df is none.
        """
        dfs = np.asarray(df)
        if dfs.dtype.kind not in "iuf" or dfs.size == 0 or not (
            (dfs >= 1) & (dfs < math.inf) & (dfs == np.floor(dfs))
        ).all():
            raise InvalidDfError(f"df must be finite integers >= 1, got {df!r}")
        return self._rng.chisquare(df, size)
