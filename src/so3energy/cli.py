"""Command-line interface.

Exit codes: 0 success, 1 verification or run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .constants import _energy_prediction, all_constants, kappa, optimal_s, realizable_n
from .construct import build_configuration, load_configuration, save_configuration
from .energy import log_energy
from .ensembles import ENSEMBLE_KINDS, EnsembleSpec, sample_points
from .harness import ExperimentConfig, run_experiment
from .streams import DOMAIN_POINTS, keyed_stream

_PREDICT_KINDS = ENSEMBLE_KINDS + ("harmonic",)


def _fiber_count(value):
    if value == "auto":
        return None
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"fiber count must be >= 1, got {count}")
    return count


def _trial_count(value):
    count = int(value)
    if count < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 trials for a standard error, got {count}")
    return count


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: it is pure, and
    parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="so3energy",
        description="Low-energy rotation configurations from spherical point processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the named constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("generate", help="sample points, build a configuration, write it out")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=_fiber_count, default=None, metavar="S|auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("energy", help="logarithmic energy of a stored configuration")
    p.add_argument("--in", dest="path", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("predict", help="expected energy and its decomposition")
    p.add_argument("--ensemble", choices=_PREDICT_KINDS, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=_fiber_count, default=None, metavar="S|auto")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("mc", help="Monte Carlo energy estimate vs prediction")
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=_fiber_count, default=None, metavar="S|auto")
    p.add_argument("--trials", type=_trial_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("table", help="realizable (r, s, n) rows for an ensemble")
    p.add_argument("--ensemble", choices=_PREDICT_KINDS, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.set_defaults(func=_cmd_verify)
    return parser


def _cmd_constants(args):
    records = [
        {"name": c.name, "value": c.value, "method": c.method, "tolerance": c.tolerance}
        for c in all_constants()
    ]
    if args.json:
        print(json.dumps(records, indent=1))
    else:
        for rec in records:
            print(f"{rec['name']:<18} {rec['value']!r:>22}  {rec['method']}  tol<={rec['tolerance']:g}")
    return 0


def _cmd_generate(args):
    s = optimal_s(args.ensemble, args.r) if args.s is None else args.s
    points = sample_points(args.ensemble, args.r, keyed_stream(args.seed, DOMAIN_POINTS))
    config = build_configuration(points, s, args.seed, ensemble=args.ensemble)
    save_configuration(config, args.out, fmt=args.format)
    e = log_energy(config)
    print(
        json.dumps(
            {
                "out": args.out,
                "format": args.format,
                "ensemble": args.ensemble,
                "r": args.r,
                "s": s,
                "n": config.n,
                "seed": args.seed,
                "log_energy": e,
                "is_infinite": math.isinf(e),
            }
        )
    )
    return 0


def _cmd_energy(args):
    e = log_energy(load_configuration(args.path))
    print(repr(e))
    return 0


def _cmd_predict(args):
    s, value, kind = _energy_prediction(args.ensemble, args.r, args.s)
    n = args.r * s
    kappa_term = kappa() * n * n
    nlogn_term = -n * math.log(n) / 3.0
    print(
        json.dumps(
            {
                "ensemble": args.ensemble,
                "r": args.r,
                "s": s,
                "n": n,
                "predicted_energy": value,
                "prediction_kind": kind,
                "kappa_n_sq": kappa_term,
                "n_log_n_term": nlogn_term,
                "residual_per_n": (value - kappa_term - nlogn_term) / n,
            }
        )
    )
    return 0


def _cmd_mc(args):
    spec = EnsembleSpec(args.ensemble, args.r, args.s)
    report = run_experiment(ExperimentConfig(spec=spec, trials=args.trials, master_seed=args.seed))
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())
    return 0 if report.passed else 1


def _cmd_table(args):
    rows = realizable_n(args.ensemble, args.rmax)
    print("r,s,n")
    for r, s, n in rows:
        print(f"{r},{s},{n}")
    return 0


def _cmd_verify(args):
    from .verify import run_suite

    passed, results = run_suite(args.suite)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    print(f"{'OK' if passed else 'FAILED'} ({sum(r.passed for r in results)}/{len(results)} checks, suite={args.suite})")
    return 0 if passed else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # quadrature/root-finding/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
