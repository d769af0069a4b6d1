"""Command line front end.

Subcommands: estimate, ci, test, simulate, examples.  Exit codes: 0 on
success, 1 for validation problems (bad flags, malformed input), 2 for
numerical failures, 3 for I/O errors.  The default seed is 0, overridden
by the COMMON_CV_SEED environment variable, which in turn is overridden
by an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
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
from .model import Alternative, Method, PIVOTAL_METHODS, Study
from .pivotal import confidence_interval, gpq_test
from .simulate import ALL_METHODS, SimConfig, run_grid

_METHOD_CHOICES = ["tian", "vj", "new", "combined", "all"]
_DEFAULT_DRAWS = 5000


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

    def add_mc_flags(p, methods=True):
        if methods:
            p.add_argument("--method", choices=_METHOD_CHOICES, default="all")
        p.add_argument("--draws", type=int, default=_DEFAULT_DRAWS, help="Monte Carlo size")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0 or COMMON_CV_SEED)")

    p_est = sub.add_parser("estimate", help="point estimates of the common CV")
    add_input_flags(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_ci = sub.add_parser("ci", help="confidence intervals for the common CV")
    add_input_flags(p_ci)
    add_mc_flags(p_ci)
    p_ci.add_argument("--level", type=float, default=0.95)
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
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.add_argument("--method", choices=_METHOD_CHOICES, default="all")
    p_sim.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ex = sub.add_parser("examples", help="analyze the two bundled datasets")
    p_ex.add_argument("--draws", type=int, default=_DEFAULT_DRAWS)
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.add_argument("--json", action="store_true")
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("COMMON_CV_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise errors.ValidationError(f"COMMON_CV_SEED must be an integer, got {env!r}") from None


def _resolve_methods(name: str, testing: bool = False) -> tuple[Method, ...]:
    if name == "all":
        return PIVOTAL_METHODS if testing else ALL_METHODS
    method = Method(name)
    if testing and method not in PIVOTAL_METHODS:
        raise errors.ValidationError("tests are only defined for the pivotal methods (tian, new, combined)")
    return (method,)


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise _UsageError(f"--level must be strictly between 0 and 1, got {level:g}")


def _load_study(args) -> Study:
    reader = read_summary_csv if args.summary else read_raw_csv
    if args.input == "-":
        return reader(sys.stdin)
    return reader(args.input)


def _group_rows(study: Study):
    for label, g, cv in zip(study.labels, study.groups, group_cvs(study)):
        yield {"group": label, "n": g.n, "mean": g.mean, "sd": g.sd, "cv": cv}


def _estimates(study: Study) -> dict:
    """The group table and the three point estimates, as one JSON record."""
    mle = newton_mle(study)
    return {
        "groups": list(_group_rows(study)),
        "feltz_miller": feltz_miller_estimate(study),
        "new": new_estimate(study),
        "mle": mle.phi,
        "mle_sigmas": list(mle.sigmas),
    }


def _print_estimates(study: Study, est: dict):
    print(f"{'group':<12} {'n':>5} {'mean':>12} {'sd':>12} {'cv':>10}")
    for row in est["groups"]:
        print(
            f"{row['group']:<12} {row['n']:>5} {row['mean']:>12.4f} "
            f"{row['sd']:>12.4f} {row['cv']:>10.4f}"
        )
    print(f"\npooled estimates (k={study.k}, n={study.n}):")
    print(f"  feltz_miller  {est['feltz_miller']:.6f}")
    print(f"  new           {est['new']:.6f}")
    print(f"  mle           {est['mle']:.6f}")


def _cmd_estimate(args) -> int:
    study = _load_study(args)
    est = _estimates(study)
    if args.json:
        print(json.dumps(est))
    else:
        _print_estimates(study, est)
    return 0


def _interval_record(iv) -> dict:
    return {
        "method": iv.method.value,
        "level": iv.level,
        "lower": iv.lower,
        "upper": iv.upper,
        "length": iv.length,
        "draws": iv.draws,
        "seed": iv.seed,
    }


def _print_interval(iv):
    seed = "-" if iv.seed is None else iv.seed
    print(
        f"method={iv.method.value:<9} level={iv.level:g} draws={iv.draws} seed={seed} "
        f"lower={iv.lower:.6f} upper={iv.upper:.6f} length={iv.length:.6f}"
    )


def _cmd_ci(args) -> int:
    _check_level(args.level)
    study = _load_study(args)
    seed = _resolve_seed(args)
    for method in _resolve_methods(args.method):
        iv = confidence_interval(study, method, args.level, args.draws, seed)
        if args.json:
            print(json.dumps(_interval_record(iv)))
        else:
            _print_interval(iv)
    return 0


def _cmd_test(args) -> int:
    study = _load_study(args)
    seed = _resolve_seed(args)
    alternative = Alternative(args.alternative)
    for method in _resolve_methods(args.method, testing=True):
        res = gpq_test(study, method, args.null, alternative, args.draws, seed)
        record = {
            "method": res.method.value,
            "null": res.phi0,
            "alternative": res.alternative.value,
            "p_value": res.p_value,
            "draws": res.draws,
            "seed": res.seed,
        }
        if args.json:
            print(json.dumps(record))
        else:
            print(
                f"method={res.method.value:<9} null={res.phi0:g} "
                f"alternative={res.alternative.value} draws={res.draws} seed={res.seed} "
                f"p_value={res.p_value:.6f}"
            )
    return 0


def _cmd_simulate(args) -> int:
    _check_level(args.level)
    seed = _resolve_seed(args)
    methods = _resolve_methods(args.method)
    configs = [
        SimConfig(
            phi=phi, mus=mus, ns=ns, reps=args.reps, m=args.draws,
            level=args.level, methods=methods, master_seed=seed,
        )
        for phi, mus, ns in read_grid_csv(sys.stdin if args.config == "-" else args.config)
    ]
    results = run_grid(configs)

    k = len(configs[0].mus) if configs else 0
    header = grid_header(k) + [
        "reps", "draws", "level", "seed", "method", "coverage", "avg_length", "failures", "error"
    ]
    own = args.out != "-"
    fh = open(args.out, "w", newline="") if own else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for res in results:
            cfg = res.config
            prefix = [repr(cfg.phi), *[repr(v) for v in cfg.mus], *cfg.ns,
                      cfg.reps, cfg.m, repr(cfg.level), cfg.master_seed]
            if res.error is not None:
                writer.writerow(prefix + ["", "", "", "", res.error])
                continue
            for method in cfg.methods:
                perf = res.performance[method]
                writer.writerow(
                    prefix + [method.value, repr(perf.coverage), repr(perf.avg_length), perf.failures, ""]
                )
    finally:
        if own:
            fh.close()
    return 0


def _cmd_examples(args) -> int:
    seed = _resolve_seed(args)
    datasets = [
        ("blood-analyte surveys", load_mcv_surveys()),
        ("hospital survival times", load_hospital_survival()),
    ]
    for name, study in datasets:
        est = _estimates(study)
        intervals = [
            confidence_interval(study, method, 0.95, args.draws, seed) for method in ALL_METHODS
        ]
        if args.json:
            intervals = [_interval_record(iv) for iv in intervals]
            print(json.dumps({"dataset": name, **est, "intervals": intervals}))
            continue
        print(f"=== {name} ===")
        _print_estimates(study, est)
        print("\n95% confidence intervals:")
        for iv in intervals:
            _print_interval(iv)
        print()
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
