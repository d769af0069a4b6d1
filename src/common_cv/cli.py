"""Command line front end.

Subcommands: estimate, ci, test, simulate, examples.  Exit codes: 0 on
success, 1 for validation problems (bad flags, malformed input), 2 for
numerical failures, 3 for I/O errors.  The default seed is 0, overridden
by the COMMON_CV_SEED environment variable, which in turn is overridden
by an explicit --seed; a seed is an integer in [0, 2^64).  The parser
converts --seed, COMMON_CV_SEED and --level, so a bad value is a usage
error, reported before any input is read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import json
import os
import sys

from . import errors
from .estimators import feltz_miller_estimate, group_cvs, new_estimate, newton_mle
from .io import (
    grid_header,
    load_hospital_survival,
    load_mcv_surveys,
    read_grid_csv,
    read_raw_csv,
    read_summary_csv,
)
from .model import ALL_METHODS, PIVOTAL_METHODS, Alternative, Method, Study
from .pivotal import gpq_tests, intervals
from .randgen import checked_seed
from .simulate import SimConfig, run_grid

_METHOD_CHOICES = [method.value for method in Method] + ["all"]
_DEFAULT_DRAWS = 5000

# One key list per result type, in its JSON record's order, and the text
# line that formats the same record in the line's own order; the level and
# the null are formatted by _number.
_INTERVAL_KEYS = ("method", "level", "lower", "upper", "length", "draws", "seed")
_INTERVAL_LINE = (
    "method={method:<9} level={level} draws={draws} seed={seed} "
    "lower={lower:.6f} upper={upper:.6f} length={length:.6f}"
)
_TEST_KEYS = ("method", "null", "alternative", "p_value", "draws", "seed")
_TEST_LINE = (
    "method={method:<9} null={null} alternative={alternative} draws={draws} seed={seed} "
    "p_value={p_value:.6f}"
)
# estimate's group table row, whose header drops the precision, and its pooled block
_GROUP_LINE = "{group:<12} {n:>5} {mean:>12.4f} {sd:>12.4f} {cv:>10.4f}"
# every character str.splitlines breaks a line at, and the backslash,
# mapped to its escape, so that a label prints on its table row and no two
# labels print alike
_ESCAPES = str.maketrans({ch: repr(ch)[1:-1] for ch in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})
_POOLED_KEYS = ("feltz_miller", "new", "mle")
# the simulate CSV's columns after the cell's own
_PERFORMANCE_KEYS = ("method", "coverage", "avg_length", "failures")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors (exit 1), not argparse's exit 2.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="common-cv", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--input", required=True, help="CSV file, or - for stdin")
        p.add_argument(
            "--summary",
            action="store_true",
            help="input holds group,n,mean,sd summaries instead of group,value rows",
        )
        p.add_argument("--json", action="store_true", help="emit one JSON object per result")

    # argparse passes a string default through type= only when the flag is absent
    seed = {"type": _seed, "default": os.environ.get("COMMON_CV_SEED", "0")}

    def add_mc_flags(p):
        p.add_argument("--method", choices=_METHOD_CHOICES, default="all")
        p.add_argument("--draws", type=int, default=_DEFAULT_DRAWS, help="Monte Carlo size")
        p.add_argument("--seed", **seed, help="master seed (default 0 or COMMON_CV_SEED)")

    p_est = sub.add_parser("estimate", help="point estimates of the common CV")
    add_input_flags(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_ci = sub.add_parser("ci", help="confidence intervals for the common CV")
    add_input_flags(p_ci)
    add_mc_flags(p_ci)
    p_ci.add_argument("--level", type=_level, default=0.95)
    p_ci.set_defaults(func=_cmd_ci)

    p_test = sub.add_parser("test", help="hypothesis tests about the common CV")
    add_input_flags(p_test)
    add_mc_flags(p_test)
    p_test.add_argument("--null", type=float, required=True, help="null value of the common CV")
    p_test.add_argument(
        "--alternative",
        choices=[a.value for a in Alternative],
        default=Alternative.TWO_SIDED.value,
    )
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="coverage/length study over a grid of cells")
    p_sim.add_argument("--config", required=True, help="grid CSV: phi,mu1..muK,n1..nK")
    p_sim.add_argument("--reps", type=int, default=2000, help="replications per cell")
    p_sim.add_argument("--draws", type=int, default=2000, help="Monte Carlo size per interval")
    p_sim.add_argument("--seed", **seed)
    p_sim.add_argument("--level", type=_level, default=0.95)
    p_sim.add_argument("--method", choices=_METHOD_CHOICES, default="all")
    p_sim.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ex = sub.add_parser("examples", help="analyze the two bundled datasets")
    p_ex.add_argument("--draws", type=int, default=_DEFAULT_DRAWS)
    p_ex.add_argument("--seed", **seed)
    p_ex.add_argument("--json", action="store_true")
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def _seed(text: str) -> int:
    """A --seed or COMMON_CV_SEED value: an integer in [0, 2^64)."""
    with contextlib.suppress(ValueError):  # not an integer, or one out of range
        return checked_seed(int(text))
    raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text!r} (--seed, else COMMON_CV_SEED)")


def _level(text: str) -> float:
    """A --level value: a number strictly between 0 and 1."""
    with contextlib.suppress(ValueError):
        if 0.0 < (level := float(text)) < 1.0:
            return level
    raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text!r}")


def _resolve_methods(args, every: tuple[Method, ...]) -> tuple[Method, ...]:
    """The methods ``--method`` asks for, where "all" stands for ``every``."""
    return every if args.method == "all" else (Method(args.method),)


def _source(path: str):
    """A path, or for "-" stdin's bytes, which the reader decodes strictly."""
    return getattr(sys.stdin, "buffer", sys.stdin) if path == "-" else path


def _load_study(args) -> Study:
    reader = read_summary_csv if args.summary else read_raw_csv
    return reader(_source(args.input))


def _estimates(study: Study) -> dict:
    """The group table and the three point estimates, as one JSON record."""
    mle = newton_mle(study)
    rows = zip(study.labels, study.groups, group_cvs(study))
    return {
        "groups": [{"group": label, "n": g.n, "mean": g.mean, "sd": g.sd, "cv": cv} for label, g, cv in rows],
        "feltz_miller": feltz_miller_estimate(study),
        "new": new_estimate(study),
        "mle": mle.phi,
        "mle_sigmas": list(mle.sigmas),
    }


def _print_estimates(study: Study, est: dict):
    print(_GROUP_LINE.replace(".4f", "").format_map({key: key for key in est["groups"][0]}))
    for row in est["groups"]:
        print(_GROUP_LINE.format_map({**row, "group": row["group"].translate(_ESCAPES)}))
    print(f"\npooled estimates (k={study.k}, n={study.n}):")
    for key in _POOLED_KEYS:
        print(f"  {key:<13} {est[key]:.6f}")


def _cmd_estimate(args) -> None:
    study = _load_study(args)
    est = _estimates(study)
    if args.json:
        print(json.dumps(est))
    else:
        _print_estimates(study, est)


def _record(result, keys) -> dict:
    """``result``'s fields named by ``keys``, in their order: ``null`` reads
    ``phi0``, and an enum reads as its value."""
    values = (getattr(result, "phi0" if key == "null" else key) for key in keys)
    return {key: v.value if isinstance(v, enum.Enum) else v for key, v in zip(keys, values)}


def _records(results: dict, keys):
    """The record of each result in method order, raising the first failed
    method's error on reaching it."""
    for result in results.values():
        if isinstance(result, errors.NumericalError):
            raise result
        yield _record(result, keys)


def _number(x: float) -> str:
    """``x`` in :g form where that reads back as ``x``, and in its shortest
    round-trip form otherwise: 0.95 as 0.95, 0.9999999999999999 as itself."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _print_records(records, line: str, as_json: bool):
    """Each record as one JSON object, or as its text ``line``, where a
    missing seed reads - and the level or the null reads as :func:`_number`."""
    for record in records:
        if as_json:
            print(json.dumps(record))
            continue
        text = {key: _number(v) if key in ("level", "null") else v for key, v in record.items()}
        print(line.format_map({**text, "seed": "-" if record["seed"] is None else record["seed"]}))


def _cmd_ci(args) -> None:
    study = _load_study(args)
    results = intervals(study, _resolve_methods(args, ALL_METHODS), args.level, args.draws, args.seed)
    _print_records(_records(results, _INTERVAL_KEYS), _INTERVAL_LINE, args.json)


def _cmd_test(args) -> None:
    study = _load_study(args)
    methods = _resolve_methods(args, PIVOTAL_METHODS)
    results = gpq_tests(study, methods, args.null, args.alternative, args.draws, args.seed)
    _print_records(_records(results, _TEST_KEYS), _TEST_LINE, args.json)


def _cmd_simulate(args) -> None:
    methods = _resolve_methods(args, ALL_METHODS)
    configs = [
        SimConfig(
            phi=phi, mus=mus, ns=ns, reps=args.reps, m=args.draws,
            level=args.level, methods=methods, master_seed=args.seed,
        )
        for phi, mus, ns in read_grid_csv(_source(args.config))
    ]
    header = grid_header(len(configs[0].mus)) + ["reps", "draws", "level", "seed", *_PERFORMANCE_KEYS, "error"]
    # opened before the grid runs, so that an unwritable path fails at once
    with contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cfg in configs:
            # one cell at a time, its rows written as it finishes
            (res,) = run_grid((cfg,))
            prefix = [cfg.phi, *cfg.mus, *cfg.ns, cfg.reps, cfg.m, cfg.level, cfg.master_seed]
            if res.error is not None:
                writer.writerow(prefix + [""] * len(_PERFORMANCE_KEYS) + [res.error])
            for perf in res.performance.values():
                writer.writerow(prefix + [*_record(perf, _PERFORMANCE_KEYS).values(), ""])
            fh.flush()


def _cmd_examples(args) -> None:
    datasets = [
        ("blood-analyte surveys", load_mcv_surveys()),
        ("hospital survival times", load_hospital_survival()),
    ]
    for name, study in datasets:
        est = _estimates(study)
        records = list(_records(intervals(study, ALL_METHODS, 0.95, args.draws, args.seed), _INTERVAL_KEYS))
        if args.json:
            print(json.dumps({"dataset": name, **est, "intervals": records}))
            continue
        print(f"=== {name} ===")
        _print_estimates(study, est)
        print("\n95% confidence intervals:")
        _print_records(records, _INTERVAL_LINE, False)
        print()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except _UsageError as exc:
        print(f"common-cv: error: {exc}", file=sys.stderr)
        return 1
    except errors.ValidationError as exc:
        print(f"common-cv: invalid input: {exc}", file=sys.stderr)
        return 1
    except errors.NumericalError as exc:
        print(f"common-cv: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"common-cv: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
