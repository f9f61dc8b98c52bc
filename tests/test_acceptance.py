"""End-to-end acceptance checks.

The checks are defined once, in `so3energy.verify._CHECKS`, the registry
behind `so3energy verify`. Each pins one user-facing guarantee: a constant
to its printed digits, a closed form against an independent numerical route,
a Monte Carlo estimate against its prediction at four standard errors, or a
structural property. It owns its seeds, trial counts and tolerances. Here
every check runs once at full size, as `verify --suite full` runs it, within
the wall-time budget the README states for it. The rest of this file pins
what the registry does not: its fixtures against the oracle, and the CLI's
byte-identical output across worker counts.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from so3energy import verify

# wall-time budgets in seconds
_BUDGET_S = {verify._check_fiber_identity: 5.0, verify._check_fixed_point_mean: 60.0}


@pytest.mark.parametrize("check", verify._CHECKS, ids=lambda check: check.__name__.removeprefix("_check_"))
def test_verify_check_passes_at_full_size(check):
    start = time.perf_counter()
    res = check(False)
    elapsed = time.perf_counter() - start
    assert res.passed, f"{res.name}: {res.detail}"
    assert elapsed < _BUDGET_S.get(check, math.inf)


def test_nan_error_fails_its_check(monkeypatch):
    # the worst-error reductions keep a NaN, which Python's max would drop
    monkeypatch.setattr(verify, "predicted_energy", lambda p, s: math.nan)
    monkeypatch.setattr(verify, "sphere_kernel", lambda t: math.nan)
    for check in (verify._check_fiber_identity, verify._check_circle_average, verify._check_kernel_positivity):
        assert not check(True).passed, check.__name__


def test_turan_tail_ratios_match_fixture(oracle):
    for key, expected in oracle["turan_tail_ratio"].items():
        assert verify._turan_tail_ratio(int(key)) == pytest.approx(expected, abs=1e-7)


def test_packaged_headline_residuals_match_oracle(oracle):
    # tools/derive_fixtures.py writes the oracle; the headline-residual check
    # reads the packaged copy, so regenerating one must regenerate the other
    with open(verify._FIXTURES) as fh:
        packaged = json.load(fh)["headline_residuals"]
    assert packaged == oracle["headline_residuals"]


def _run_cli(args, workers, cwd, base_env):
    env = dict(base_env, SO3ENERGY_WORKERS=str(workers))
    proc = subprocess.run(
        [sys.executable, "-m", "so3energy.cli"] + args,
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_outputs_byte_identical_across_worker_counts(tmp_path, child_env):
    # the in-process run_experiment twin of this test is the determinism check
    gen_outs, gen_files = [], []
    for w in (1, 8):
        out = tmp_path / f"cfg_w{w}.json"
        stdout = _run_cli(
            [
                "generate", "--ensemble", "zeros", "--r", "6", "--s", "2",
                "--seed", "13", "--out", str(out),
            ],
            w,
            tmp_path,
            child_env,
        )
        gen_outs.append(stdout.replace(str(out).encode(), b"OUT"))
        gen_files.append(out.read_bytes())
    assert gen_outs[0] == gen_outs[1]
    assert gen_files[0] == gen_files[1]

    mc_outs = []
    for w in (1, 8):
        stdout = _run_cli(
            [
                "mc", "--ensemble", "uniform", "--r", "32", "--s", "2",
                "--trials", "2500", "--seed", "13",
            ],
            w,
            tmp_path,
            child_env,
        )
        mc_outs.append(stdout)
    assert mc_outs[0] == mc_outs[1]
    report = json.loads(mc_outs[0])
    assert report["pass"] is True
