"""Hash the user-visible output of a fixed list of so3energy commands.

Each command runs in-process on the checkout this script lives in (its
`src/` directory goes first on the import path). For every command the
script prints the sha256 of its exit code, stdout, stderr and any file it
wrote, then one combined hash over all lines. Two checkouts whose outputs
are byte-identical print identical lines, so a refactor that must not change
behaviour is checked by running this script before and after it.

Run from anywhere:  python tools/output_hashes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from so3energy import cli  # noqa: E402
from so3energy.ensembles import ENSEMBLE_KINDS, EnsembleSpec  # noqa: E402
from so3energy.harness import ExperimentConfig, run_experiment  # noqa: E402

# (kind, r, s) for the generate -> energy round trips; r = 40 with the optimal
# count spans several 64-row bands of the pair sum
_GENERATE = [(kind, r, s) for kind in ENSEMBLE_KINDS for r, s in ((7, "3"), (40, "auto"))]
_MC = [(kind, 9 if kind == "eap" else 6) for kind in ENSEMBLE_KINDS]
# a resampled s = 2 run takes the direct pair sum; n = 80 spans two 64-row
# bands, so each trial's energy is an fsum of band partials
_MC_DIRECT = ["mc", "--ensemble", "zeros", "--r", "40", "--s", "2", "--trials", "200", "--seed", "3"]
# a resampled zeros run at s = 8 takes the fiber-pair identity; r = 96 fibers
# span two 64-row bands, so each trial's energy is an fsum of band partials
_MC_BANDED = ["mc", "--ensemble", "zeros", "--r", "96", "--s", "auto", "--trials", "50", "--seed", "3"]
# r = 2100 fibers span 33 bands, more band shapes than a cache of 32 held
_MC_WIDE = ["mc", "--ensemble", "uniform", "--r", "2100", "--s", "3", "--trials", "2", "--seed", "3"]
# one zeros or eap point has no pairs: every energy and the prediction are 0
_MC_ONE = ["mc", "--ensemble", "zeros", "--r", "1", "--s", "auto", "--trials", "50", "--seed", "3"]
_MC_ONE_EAP = ["mc", "--ensemble", "eap", "--r", "1", "--s", "auto", "--trials", "50", "--seed", "3"]
# one fiber's energy does not depend on its phase, so these runs' standard
# errors are rounding noise: the mean agrees with its prediction to rounding
_MC_ONE_FIBER = ["mc", "--ensemble", "uniform", "--r", "1", "--s", "3", "--trials", "50", "--seed", "3"]
_MC_ONE_FIBER_EAP = ["mc", "--ensemble", "eap", "--r", "1", "--s", "31", "--trials", "50", "--seed", "3"]
# zeros at r = 1029 and harmonic at r = 400 (L = 19) pin deeper quadrature trees;
# eap at r = 2 pins the partition into two polar caps, zeros and eap at r = 1
# the kernel energy of a single point
_PREDICT = [(kind, 16) for kind in ENSEMBLE_KINDS + ("harmonic",)] + [
    ("zeros", 256),
    ("zeros", 1029),
    ("harmonic", 400),
    ("eap", 2),
    ("zeros", 1),
    ("eap", 1),
]
# the fixed-point grids of the acceptance test
_FIXED_GRIDS = [(r, s) for r in (2, 5, 10) for s in (1, 2, 3)]
_FIXED_SEEDS = (0, 11, 2026)
# n = 64 in 43-trial chunks: 59 chunks, each of several blocks of 64 x 64
# heads in the band
_FIXED_WIDE = ExperimentConfig(EnsembleSpec("uniform", 32, s=2), trials=2500, master_seed=11, resample_points=False)
# two equal rotations (r = 2, s = 1): the only command here whose energy is inf
_COINCIDENT = {"meta": {"ensemble": "uniform", "r": 2, "s": 1, "seed": None}, "matrices": [[1, 0, 0, 0, 1, 0, 0, 0, 1]] * 2}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _cli(argv, written=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    files = []
    for path in written:
        with open(path, "rb") as fh:
            files.append(fh.read())
    return _digest(rc, out.getvalue(), err.getvalue(), *files)


def _commands():
    for kind, r, s in _GENERATE:
        for fmt in ("json", "csv"):
            path = f"cfg-{kind}-{r}.{fmt}"
            argv = ["generate", "--ensemble", kind, "--r", str(r), "--s", s, "--seed", "5", "--out", path, "--format", fmt]
            yield " ".join(argv), lambda a=argv, p=path: _cli(a, written=[p])
            argv = ["energy", "--in", path]
            yield " ".join(argv), lambda a=argv: _cli(a)
    # the two polar caps of the r = 2 equal-area partition
    argv = ["generate", "--ensemble", "eap", "--r", "2", "--s", "3", "--seed", "5", "--out", "cfg-eap-2.json"]
    yield " ".join(argv), lambda a=argv: _cli(a, written=["cfg-eap-2.json"])
    with open("coincident.json", "w") as fh:
        json.dump(_COINCIDENT, fh)
    argv = ["energy", "--in", "coincident.json"]
    yield " ".join(argv), lambda a=argv: _cli(a)
    for kind, r in _MC:
        for fmt in ("json", "csv"):
            argv = ["mc", "--ensemble", kind, "--r", str(r), "--s", "auto", "--trials", "300", "--seed", "3", "--format", fmt]
            yield " ".join(argv), lambda a=argv: _cli(a)
    for argv in (_MC_DIRECT, _MC_BANDED, _MC_WIDE, _MC_ONE, _MC_ONE_EAP, _MC_ONE_FIBER, _MC_ONE_FIBER_EAP):
        yield " ".join(argv), lambda a=argv: _cli(a)
    for kind, r in _PREDICT:
        argv = ["predict", "--ensemble", kind, "--r", str(r), "--s", "auto"]
        yield " ".join(argv), lambda a=argv: _cli(a)
    for kind in ENSEMBLE_KINDS + ("harmonic",):
        argv = ["table", "--ensemble", kind, "--rmax", "30"]
        yield " ".join(argv), lambda a=argv: _cli(a)
    for argv in (["constants"], ["constants", "--json"]):
        yield " ".join(argv), lambda a=argv: _cli(a)
    for seed in _FIXED_SEEDS:
        for r, s in _FIXED_GRIDS:
            cfg = ExperimentConfig(EnsembleSpec("uniform", r, s=s), trials=500, master_seed=seed, resample_points=False)
            yield f"run_experiment fixed-point uniform r={r} s={s} seed={seed}", (
                lambda c=cfg: _digest(run_experiment(c).to_json())
            )
    yield "run_experiment fixed-point uniform r=32 s=2 seed=11 trials=2500", (
        lambda: _digest(run_experiment(_FIXED_WIDE).to_json())
    )
    for suite in ("fast", "full"):
        argv = ["verify", "--suite", suite]
        yield " ".join(argv), lambda a=argv: _cli(a)


def main():
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, run in _commands():
                line = f"{run()}  {label}"
                lines.append(line)
                print(line, flush=True)
        finally:
            os.chdir(cwd)
    print(f"{_digest(*lines)}  combined ({len(lines)} commands)")


if __name__ == "__main__":
    main()
