import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from common_cv.errors import InvalidDfError, ValidationError
from common_cv.randgen import (
    ROLE_PIVOT_BLOCK,
    ROLE_RESAMPLE,
    ROLE_SIM_DATA,
    ROLE_SIM_PIVOTS,
    SeededStream,
    mix_components,
)

N_MOMENT = 10**6
N_KS = 10**5
# 1% KS critical value, asymptotic: sqrt(-ln(0.005)/2) / sqrt(n)
KS_CRIT = 1.6276 / math.sqrt(N_KS)


class TestStandardNormal:
    def test_moments(self):
        draws = SeededStream(11).standard_normal(N_MOMENT)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_determinism(self):
        a = SeededStream(7, 3).standard_normal(100)
        b = SeededStream(7, 3).standard_normal(100)
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        x = SeededStream(1).standard_normal()
        assert np.ndim(x) == 0 and np.isfinite(x)

    def test_ks(self):
        draws = SeededStream(23).standard_normal(N_KS)
        d = stats.kstest(draws, stats.norm.cdf).statistic
        assert d < KS_CRIT


class TestChiSquare:
    def test_moments_df4(self):
        draws = SeededStream(13).chi_square(4, N_MOMENT)
        assert abs(draws.mean() - 4.0) < 0.02
        assert abs(draws.var() - 8.0) < 0.2

    def test_positive(self):
        draws = SeededStream(5).chi_square(1, 10**5)
        assert np.all(draws > 0.0)

    def test_determinism(self):
        a = SeededStream(7, 3).chi_square(9, 100)
        b = SeededStream(7, 3).chi_square(9, 100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("df", [2, 4, 29])
    def test_ks(self, df):
        draws = SeededStream(100 + df).chi_square(df, N_KS)
        d = stats.kstest(draws, stats.chi2(df).cdf).statistic
        assert d < KS_CRIT

    @pytest.mark.parametrize("df", [0, -1, 2.5, math.inf, True, "4", [3, math.inf]])
    def test_invalid_df(self, df):
        with pytest.raises(InvalidDfError):
            SeededStream(1).chi_square(df, 10)

    def test_vector_df(self):
        draws = SeededStream(2).chi_square([4, 9, 29])
        assert draws.shape == (3,)
        assert np.all(draws > 0.0)


class TestScalarDf:
    """One scalar df over a (rows, k) size draws, bit for bit, what numpy
    draws with the array of k equal dfs on the stream's generator: the
    engine draws equal dfs so (pivotal._variate_slices)."""

    @staticmethod
    def reference(seed, stream_id, dfs, size):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream_id])))
        return rng.chisquare(dfs, size)

    @pytest.mark.parametrize("rows", [1, 2000, 2**15])
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("df", [1, 2, 4, 29])
    def test_same_values_as_the_equal_df_array(self, df, k, rows):
        drawn = SeededStream(3, 5).chi_square(float(df), size=(rows, k))
        expected = self.reference(3, 5, np.full(k, float(df)), (rows, k))
        assert drawn.shape == (rows, k) and drawn.tobytes() == expected.tobytes()

    def test_equal_df_array_and_unequal_dfs(self):
        for dfs in (np.full(3, 4.0), np.array([4.0, 4.0, 9.0])):
            drawn = SeededStream(3, 5).chi_square(dfs, size=(2000, 3))
            assert drawn.tobytes() == self.reference(3, 5, dfs, (2000, 3)).tobytes()

    def test_integer_df_and_an_int_size(self):
        drawn = SeededStream(2**64 - 1, 8).chi_square(7, size=2)
        assert drawn.tobytes() == self.reference(2**64 - 1, 8, np.array([7, 7]), 2).tobytes()

    @pytest.mark.parametrize("df", [
        [0.0, 0.0, 0.0], [2.5, 2.5, 2.5], [math.inf] * 3, [-1, -1], 0.0, 2.5, math.inf, math.nan, -1,
    ])
    def test_bad_equal_dfs_and_bad_scalars_rejected(self, df):
        with pytest.raises(InvalidDfError):
            SeededStream(1).chi_square(np.array(df), size=(10, np.size(df)))


class TestStreamDerivation:
    def test_equal_ids_equal_sequences(self):
        a = SeededStream(42, 1).standard_normal(50)
        b = SeededStream(42, 1).standard_normal(50)
        assert np.array_equal(a, b)

    def test_repr_names_both_ids(self):
        assert repr(SeededStream(5, 7)) == "SeededStream(master_seed=5, stream_id=7)"

    def test_different_master_seeds_differ(self):
        a = SeededStream(1).standard_normal(50)
        b = SeededStream(2).standard_normal(50)
        assert not np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = SeededStream(1, 0).standard_normal(50)
        b = SeededStream(1, 1).standard_normal(50)
        assert not np.array_equal(a, b)

    def test_substream_ignores_parent_position(self):
        parent1 = SeededStream(9)
        parent1.standard_normal(1000)  # consume; must not affect children
        parent2 = SeededStream(9)
        a = parent1.substream(ROLE_RESAMPLE, 17).standard_normal(20)
        b = parent2.substream(ROLE_RESAMPLE, 17).standard_normal(20)
        assert np.array_equal(a, b)

    def test_substream_differs_from_parent(self):
        parent = SeededStream(9)
        child = parent.substream(ROLE_PIVOT_BLOCK, 0)
        assert not np.array_equal(
            SeededStream(9).standard_normal(20), child.standard_normal(20)
        )

    def test_draws_are_plain_pcg64_on_the_seed_pair(self):
        stream = SeededStream(7, 3)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 3])))
        assert np.array_equal(stream.chi_square([4, 9], size=(50, 2)), rng.chisquare([4, 9], (50, 2)))
        assert np.array_equal(stream.standard_normal(50), rng.standard_normal(50))

    @pytest.mark.parametrize("seed, stream_id", [
        (0, 0), (1, 2**32 - 1), (2**32, 2**32 + 1), (2**64 - 1, 2**63), (12345, 2**64 - 1),
    ])
    def test_generator_is_the_seed_pairs(self, seed, stream_id):
        # the stream hands SeedSequence the 32-bit words of both ids, for
        # the generator SeedSequence([seed, stream_id]) gives
        expected = np.random.PCG64(np.random.SeedSequence([seed, stream_id])).state
        assert SeededStream(seed, stream_id)._rng.bit_generator.state == expected

    def test_deriving_children_builds_no_generator(self):
        parent = SeededStream(11, 5)
        child = parent.substream(ROLE_PIVOT_BLOCK, 2)
        assert parent._generator is None
        seq = np.random.SeedSequence([11, mix_components(5, ROLE_PIVOT_BLOCK, 2)])
        rng = np.random.Generator(np.random.PCG64(seq))
        assert np.array_equal(child.standard_normal(20), rng.standard_normal(20))

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, True, "a"])
    def test_master_seed_outside_the_seed_range_rejected(self, seed):
        # none is folded onto another seed's stream
        with pytest.raises(ValidationError, match="^seed must be"):
            SeededStream(seed)

    @pytest.mark.parametrize("stream_id", [2**64 + 3, -1, 1.5, True, "a"])
    def test_stream_id_outside_the_seed_range_rejected(self, stream_id):
        # were folded onto ids 3, 2^64 - 1, 1 and 1, and "a" a bare ValueError
        with pytest.raises(ValidationError, match="^stream_id must be"):
            SeededStream(0, stream_id)

    @pytest.mark.parametrize("component", [2**64, -1, 1.5, True, "a"])
    def test_substream_component_outside_the_seed_range_rejected(self, component):
        # substream(-1) drew substream(2**64 - 1)'s stream, 1.5 and True substream(1)'s
        with pytest.raises(ValidationError, match="^a sub-stream component must be"):
            SeededStream(0).substream(ROLE_RESAMPLE, component)
        with pytest.raises(ValidationError, match="^a sub-stream component must be"):
            mix_components(1, component)

    def test_integer_ids_and_components_accepted(self):
        top = 2**64 - 1
        assert SeededStream(0, np.uint64(top)).stream_id == top
        child = SeededStream(0).substream(np.int64(2), top)
        assert child.stream_id == mix_components(0, 2, top)

    def test_roles_distinct(self):
        roles = {ROLE_PIVOT_BLOCK, ROLE_RESAMPLE, ROLE_SIM_DATA, ROLE_SIM_PIVOTS}
        assert len(roles) == 4


class TestMixComponents:
    def test_deterministic(self):
        assert mix_components(1, 2, 3) == mix_components(1, 2, 3)

    def test_order_sensitive(self):
        assert mix_components(1, 2) != mix_components(2, 1)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6))
    def test_in_64_bit_range(self, components):
        h = mix_components(*components)
        assert 0 <= h < 2**64

    @given(
        a=st.integers(min_value=0, max_value=2**32),
        b=st.integers(min_value=0, max_value=2**32),
    )
    def test_extension_changes_hash(self, a, b):
        assert mix_components(a) != mix_components(a, b)
