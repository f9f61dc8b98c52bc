"""Command line interface: argument handling, output shapes, exit codes,
and closure between generate, energy, and predict."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from so3energy.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    assert "kappa" in out and "J" in out
    code, out, _ = run_cli(capsys, "constants", "--json")
    assert code == 0
    records = json.loads(out)
    names = {rec["name"] for rec in records}
    assert {"kappa", "kappa_quadrature", "J", "C_zeros", "C_sph", "C_harmonic_so3"} <= names
    by_name = {rec["name"]: rec for rec in records}
    assert by_name["kappa"]["value"] == pytest.approx(-(1.0 + math.log(2.0)) / 2.0)


def test_generate_energy_round_trip(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code, out, _ = run_cli(
        capsys, "generate", "--ensemble", "uniform", "--r", "4", "--s", "3",
        "--seed", "9", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert doc["is_infinite"] is False
    code, out, _ = run_cli(capsys, "energy", "--in", str(out_path))
    assert code == 0
    # the recomputed energy equals the one reported at generation, exactly
    assert float(out.strip()) == doc["log_energy"]


def test_generate_csv_round_trip(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    code, out, _ = run_cli(
        capsys, "generate", "--ensemble", "eap", "--r", "6", "--s", "auto",
        "--seed", "1", "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] >= 1
    code, out, _ = run_cli(capsys, "energy", "--in", str(out_path))
    assert code == 0
    assert float(out.strip()) == doc["log_energy"]


def test_generate_deterministic_in_seed(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    outs = []
    for p in paths:
        _, out, _ = run_cli(
            capsys, "generate", "--ensemble", "zeros", "--r", "5", "--s", "2",
            "--seed", "33", "--out", str(p),
        )
        outs.append(json.loads(out)["log_energy"])
    assert outs[0] == outs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_predict_output_fields(capsys):
    code, out, _ = run_cli(capsys, "predict", "--ensemble", "uniform", "--r", "10", "--s", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 20
    assert doc["prediction_kind"] == "mean"
    # decomposition re-assembles to the prediction
    total = doc["kappa_n_sq"] + doc["n_log_n_term"] + doc["residual_per_n"] * doc["n"]
    assert total == pytest.approx(doc["predicted_energy"], rel=1e-12)


def test_predict_eap_is_upper_bound(capsys):
    code, out, _ = run_cli(capsys, "predict", "--ensemble", "eap", "--r", "9")
    assert code == 0
    assert json.loads(out)["prediction_kind"] == "upper_bound"


def test_predict_harmonic_requires_square(capsys):
    code, out, err = run_cli(capsys, "predict", "--ensemble", "harmonic", "--r", "9")
    assert code == 0
    code, out, err = run_cli(capsys, "predict", "--ensemble", "harmonic", "--r", "10")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["uniform", "zeros", "spherical", "eap", "harmonic"])
def test_predict_accepts_every_table_row(capsys, kind):
    code, out, _ = run_cli(capsys, "table", "--ensemble", kind, "--rmax", "30")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows
    for r, s, n in rows:
        code, out, err = run_cli(capsys, "predict", "--ensemble", kind, "--r", r)
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["s"], doc["n"]) == (int(s), int(n))


def test_mc_json_pass(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--ensemble", "uniform", "--r", "3", "--s", "2",
        "--trials", "2000", "--seed", "21",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["trials"] == 2000
    assert abs(doc["z_score"]) <= 4.0


def test_mc_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--ensemble", "uniform", "--r", "2", "--s", "1",
        "--trials", "500", "--seed", "2", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("format_version,ensemble,r,s,trials")
    assert row.split(",")[1] == "uniform"


def test_mc_zeros_at_one_point_passes_with_zero_prediction(capsys):
    # one point has no pairs: every energy is 0, and so is the prediction,
    # which the quadrature used to round to -5.1e-30 (z = inf, exit 1)
    code, out, _ = run_cli(capsys, "mc", "--ensemble", "zeros", "--r", "1", "--s", "auto", "--trials", "50", "--seed", "3")
    doc = json.loads(out)
    assert code == 0
    assert (doc["s"], doc["mean"], doc["prediction"], doc["z_score"], doc["pass"]) == (1, 0.0, 0.0, 0.0, True)
    code, out, _ = run_cli(capsys, "predict", "--ensemble", "zeros", "--r", "1", "--s", "auto")
    assert code == 0 and "e-30" not in out


def test_mc_eap_at_one_point_passes_with_zero_prediction(capsys):
    # one point has no pairs; the bound's whole-sphere region gave the kernel
    # energy 1/2 - log 2, a prediction of 0.193 against energies of 0 (z = inf)
    code, out, _ = run_cli(capsys, "mc", "--ensemble", "eap", "--r", "1", "--s", "auto", "--trials", "50", "--seed", "3")
    doc = json.loads(out)
    assert code == 0
    assert (doc["s"], doc["mean"], doc["prediction"], doc["z_score"], doc["pass"]) == (1, 0.0, 0.0, 0.0, True)
    code, out, _ = run_cli(capsys, "predict", "--ensemble", "eap", "--r", "1", "--s", "auto")
    assert code == 0 and json.loads(out)["predicted_energy"] == 0.0


def test_mc_rejects_bad_trials(capsys):
    code, _, err = run_cli(capsys, "mc", "--ensemble", "uniform", "--r", "2", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_mc_single_trial_is_a_usage_error(capsys):
    # one trial has no standard error, which the record would write as the
    # non-JSON token Infinity
    code, out, err = run_cli(capsys, "mc", "--ensemble", "uniform", "--r", "3", "--s", "2", "--trials", "1")
    assert code == 2 and out == ""
    assert "need at least 2 trials for a standard error, got 1" in err


@pytest.mark.parametrize("kind", ["uniform", "zeros", "eap", "spherical"])
def test_mc_single_fiber_passes(capsys, kind):
    # one fiber's energy does not depend on its phase: its standard error is
    # rounding noise, under which uniform gave z = -7.0 and eap at s = 31
    # missed its bound by 1 ulp
    for s in ("3", "31") if kind == "eap" else ("3",):
        code, out, _ = run_cli(capsys, "mc", "--ensemble", kind, "--r", "1", "--s", s, "--trials", "50", "--seed", "3")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] and doc["z_score"] == 0.0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_usage_error(capsys, tmp_path, seed):
    # 2^64 used to give the mean of seed 0 while recording master_seed 2^64
    code, out, err = run_cli(capsys, "mc", "--ensemble", "uniform", "--r", "4", "--s", "2", "--trials", "5", "--seed", seed)
    assert code == 2 and out == "" and "seed out of range" in err
    out_path = tmp_path / "c.json"
    code, out, err = run_cli(capsys, "generate", "--ensemble", "uniform", "--r", "4", "--seed", seed, "--out", str(out_path))
    assert code == 2 and out == "" and "seed out of range" in err
    assert not out_path.exists()


def test_largest_seed_is_recorded(capsys):
    code, out, _ = run_cli(capsys, "mc", "--ensemble", "uniform", "--r", "4", "--s", "2", "--trials", "5", "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["master_seed"] == 2**64 - 1


def test_table_output(capsys, oracle):
    code, out, _ = run_cli(capsys, "table", "--ensemble", "zeros", "--rmax", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,s,n"
    table = oracle["zeros"]["table_rmax9"]
    got = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert [g[0] for g in got] == table["r"]
    assert [g[1] for g in got] == table["s"]
    assert [g[2] for g in got] == table["n"]


def test_table_rejects_small_rmax(capsys):
    code, _, err = run_cli(capsys, "table", "--ensemble", "uniform", "--rmax", "1")
    assert code == 2


def test_generate_zeros_above_degree_limit_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code, out, err = run_cli(
        capsys, "generate", "--ensemble", "zeros", "--r", "1100", "--s", "1", "--out", str(out_path),
    )
    assert code == 2
    assert out == "" and "r <= 1029" in err
    assert not out_path.exists()


def test_bad_arguments_exit_code(capsys):
    assert run_cli(capsys, "generate", "--ensemble", "nope", "--r", "3", "--out", "x")[0] == 2
    assert run_cli(capsys, "energy", "--in", "/nonexistent/path.json")[0] == 1
    assert run_cli(capsys, "predict", "--ensemble", "uniform", "--r", "0")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "mc", "--help")[0] == 0


def test_console_script_entry_point(child_env):
    # the module behind the console script, run as `python -m so3energy.cli`
    # in a fresh interpreter, must answer --help
    proc = subprocess.run(
        [sys.executable, "-m", "so3energy.cli", "--help"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "constants" in proc.stdout and "verify" in proc.stdout


def test_verify_fast_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fast")
    assert code == 0
    assert out.strip().endswith("suite=fast)")
    assert "FAIL" not in out
    # one line per check plus the final summary
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert all(line.startswith("PASS") for line in lines[:-1])
