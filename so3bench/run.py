#!/usr/bin/env python3
"""Benchmark of the so3energy package: one workload per call, one JSON result line.

Run from the root of a checkout:

    python3 so3bench/run.py --workload mc-zeros-r256 --seed 1 --seconds 20 --trace 0
    python3 so3bench/run.py --smoke

With --trace 0 the result holds the end-to-end metrics (ops_per_s, setup_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of a traced run
and the spans go to so3bench/out/. --smoke runs one round of every workload,
traced and untraced, with all its checks. See so3bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mc-fixed-small", "mc-zeros-r256", "mc-zeros-r256-s1", "roundtrip-zeros-r96")
# set-up is timed in this many fresh processes after one discarded probe,
# which fills the bytecode and file caches; the median is reported
SETUP_PROBES = 7
# every process of one run must end within this many seconds
RUN_LIMIT_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _child_env():
    env = dict(os.environ)
    # one closed-loop caller on one core: no BLAS threads, no harness workers;
    # a fixed hash seed keeps string hashing the same in every process
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        SO3ENERGY_WORKERS="1",
        PYTHONHASHSEED="0",
    )
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _child(argv, deadline):
    """Run child.py to completion and return its last stdout line, parsed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT)] + argv
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with code {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def _missing_inputs():
    needed = [ROOT / "src" / "so3energy" / "__init__.py", ROOT / "tests" / "fixtures" / "oracle.json"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    result = _child(base + ["--seconds", str(seconds), "--trace", str(trace), "--spans", str(OUT / f"spans-{workload}-seed{seed}.npz")], deadline)
    if not trace:
        probes = [_child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES + 1)][1:]
        result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    del result["setup_s"]
    return result


def smoke():
    """One round of every workload, untraced and traced, with every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = _child(["--workload", workload, "--seed", "0", "--rounds", "1", "--trace", str(trace)], time.monotonic() + RUN_LIMIT_S)
            ok &= res["correct"] and res["failed"] == 0
            print(json.dumps({"workload": workload, "trace": trace, "correct": res["correct"], "failed": res["failed"], "attempted": res["attempted"]}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    missing = _missing_inputs()
    if missing:
        print(f"error: run from a so3energy checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
