"""One workload in one fresh process: set-up, timed rounds, checks, one JSON line.

Started by run.py with the package on PYTHONPATH and one BLAS thread; not
meant to be run by hand. The last line of stdout is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds instead of --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--root", required=True)
    p.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    return p.parse_args(argv)


def sustained_rate(ops_per_round, round_times):
    """Ops per second at the upper-quartile round time.

    On a shared VM the pace runs in bursts up to ~25% faster than its steady
    pace (see README.md); the upper quartile of the round times tracks the
    steady pace, where the median moves with the share of a run in bursts.
    """
    if len(round_times) == 1:
        return ops_per_round / round_times[0]
    return ops_per_round / statistics.quantiles(round_times, n=4, method="inclusive")[2]


def _per_layer(tracer, workload, ops, round_times, setup_self):
    summ = tracer.summary()
    timed = sum(round_times)
    out = {}
    for name in summ["calls"]:
        out[f"{name}.calls"] = (summ["calls"][name] / ops, "count/op")
        out[f"{name}.self_s"] = (summ["self"][name] / ops, "s/op")
    pls_s = summ["total"]["energy.pair_log_sums"]
    save_s = summ["total"]["construct.save_configuration"]
    load_s = summ["total"]["construct.load_configuration"]
    out["energy.pairs"] = (summ["pairs"] / ops, "count/op")
    out["energy.pairs_per_s"] = (summ["pairs"] / pls_s if pls_s else 0.0, "1/s")
    out["harness.gram_bytes"] = (summ["gram_bytes"], "B")
    out["construct.file_bytes"] = (workload.file_bytes / ops, "B/op")
    out["construct.save_bytes_per_s"] = (workload.file_bytes / save_s if save_s else 0.0, "B/s")
    out["construct.load_bytes_per_s"] = (workload.file_bytes / load_s if load_s else 0.0, "B/s")
    out["setup.constants_s"] = (sum(v for k, v in setup_self.items() if k.startswith("constants.")), "s")
    out["trace.span_share"] = (summ["root_s"] / timed, "ratio")
    out["trace.ops_per_s"] = (sustained_rate(workload.ops_per_round, round_times), "1/s")
    return out


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    import so3energy  # noqa: F401  (set-up time starts before the package and numpy load)

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.root)
    try:
        workload.warmup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_self = tracer.restart() if tracer else {}

        round_times = []
        attempted = failed = 0
        spent = 0.0
        budget = args.rounds * workload.ops_per_round
        while attempted < budget if args.rounds else spent < args.seconds:
            k = attempted // workload.ops_per_round
            if tracer:
                tracer.op = k
            attempted += workload.ops_per_round
            start = time.perf_counter()
            try:
                elapsed = workload.run_round(k)
            except Exception:  # an op that raises is counted as failed, and the run goes on
                traceback.print_exc(file=sys.stderr)
                failed += workload.ops_per_round
                spent += time.perf_counter() - start
                continue
            round_times.append(elapsed)
            spent += elapsed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
    finally:
        workload.close()

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if not round_times:
        print("error: every round failed", file=sys.stderr)
        return 1
    ops = len(round_times) * workload.ops_per_round
    if tracer:
        metrics = _per_layer(tracer, workload, ops, round_times, setup_self)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = {
            "ops_per_s": (sustained_rate(workload.ops_per_round, round_times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "setup_s": setup_s,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
