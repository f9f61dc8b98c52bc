"""Monte Carlo harness: derived random streams, chunking, worker
independence, and the pass/fail report schema."""

import json
import math

import numpy as np
import pytest

from so3energy.energy import COINCIDENCE_TOL
from so3energy.ensembles import EnsembleSpec
from so3energy.harness import (
    EstimateReport,
    ExperimentConfig,
    _chunk_energies,
    chunk_size,
    resolve_workers,
    run_experiment,
)
from so3energy.streams import DOMAIN_FIBER, DOMAIN_POINTS, DOMAIN_TRIAL, fiber_phases, keyed_stream


# --- streams ---------------------------------------------------------------------


def test_keyed_stream_reproducible_and_independent():
    a = keyed_stream(7, DOMAIN_TRIAL, 5).standard_normal(4)
    b = keyed_stream(7, DOMAIN_TRIAL, 5).standard_normal(4)
    assert np.array_equal(a, b)
    c = keyed_stream(7, DOMAIN_TRIAL, 6).standard_normal(4)
    d = keyed_stream(8, DOMAIN_TRIAL, 5).standard_normal(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_keyed_stream_domains_do_not_collide():
    # the same index in different domains must give different streams
    a = keyed_stream(0, DOMAIN_FIBER, 3).random(4)
    b = keyed_stream(0, DOMAIN_TRIAL, 3).random(4)
    c = keyed_stream(0, DOMAIN_POINTS, 3).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_keyed_stream_index_range():
    with pytest.raises(ValueError):
        keyed_stream(0, DOMAIN_TRIAL, -1)
    with pytest.raises(ValueError):
        keyed_stream(0, DOMAIN_TRIAL, 1 << 56)


@pytest.mark.parametrize("domain", [DOMAIN_TRIAL, DOMAIN_FIBER])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**63 + 5, 2**64 - 1])
def test_keyed_uniforms_equal_keyed_stream_bit_for_bit(seed, domain):
    # fiber_phases seeks by numpy's counter rule, one step per block of four
    # 64-bit words; hold that rule for keys across both domains and the whole
    # index range, with counts 1..17 ending inside and on the edge of a block
    for index in (0, 1, 2**40 + 3, 2**56 - 1):
        fresh = keyed_stream(seed, domain, index).uniform(0.0, 2.0 * math.pi, 7 + 17)
        for start in (0, 1, 2, 3, 4, 7):
            for count in range(1, 18):
                rng = keyed_stream(seed, domain, index)
                rng.bit_generator.advance(start // 4)
                rng.bit_generator.random_raw(start % 4)
                got = rng.uniform(0.0, 2.0 * math.pi, count)
                want = fresh[start : start + count]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (index, start, count)
                if domain == DOMAIN_FIBER and index == 0:
                    assert np.array_equal(fiber_phases(seed, start, count).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**63 + 5, 2**64 - 1])
def test_fiber_phases_equal_slices_of_a_fresh_stream(seed):
    # starts of every residue mod 4, the word within a 4-word Philox block,
    # and counts that end inside and on the edge of a block
    for start in (0, 1, 2, 3, 4, 5, 6, 7, 1021, 4094, 4095):
        for count in (0, 1, 3, 4, 5, 17):
            got = fiber_phases(seed, start, count)
            want = keyed_stream(seed, DOMAIN_FIBER).uniform(0.0, 2.0 * math.pi, start + count)[start:]
            assert got.shape == (count,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (start, count)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, -(2**64)])
def test_seeds_outside_64_bits_are_refused(seed):
    # reduced mod 2^64 they would alias a seed in range while recording another
    from so3energy.construct import build_configuration

    with pytest.raises(ValueError, match="seed out of range"):
        keyed_stream(seed, DOMAIN_POINTS)
    with pytest.raises(ValueError, match="seed out of range"):
        fiber_phases(seed, 0, 3)
    with pytest.raises(ValueError, match="seed out of range"):
        build_configuration([[0.0, 0.0, 1.0]], 2, seed=seed)
    for resample in (True, False):
        cfg = ExperimentConfig(EnsembleSpec("uniform", 3, s=2), 5, master_seed=seed, resample_points=resample)
        with pytest.raises(ValueError, match="seed out of range"):
            run_experiment(cfg)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_the_range_are_kept(seed):
    from so3energy.construct import build_configuration

    assert keyed_stream(seed, DOMAIN_POINTS).random() != keyed_stream(seed ^ 1, DOMAIN_POINTS).random()
    assert build_configuration([[0.0, 0.0, 1.0]], 2, seed=seed).meta.seed == seed
    for resample in (True, False):
        cfg = ExperimentConfig(EnsembleSpec("uniform", 3, s=2), 5, master_seed=seed, resample_points=resample)
        rep = run_experiment(cfg)
        assert rep.master_seed == seed and math.isfinite(rep.mean)


# --- chunking and workers -----------------------------------------------------------


def test_chunk_size_monotone_and_bounded():
    from so3energy.energy import band_len

    assert chunk_size(1) == 4096
    sizes = [chunk_size(n) for n in [2, 10, 50, 100, 500, 2000]]
    assert all(1 <= c <= 4096 for c in sizes)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # worker-count independence is structural: the size depends only on n;
    # below the cap a chunk is as many trials as fit 2^17 doubles
    assert chunk_size(100) == 2**17 // (16 * 100 + band_len(100)) == 22
    for n, b in zip([2, 10, 50, 100, 500], sizes):
        assert b * (16 * n + band_len(n)) <= 2**17 < (b + 1) * (16 * n + band_len(n))
    assert chunk_size(2000) == 1


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("SO3ENERGY_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    monkeypatch.setenv("SO3ENERGY_WORKERS", "6")
    assert resolve_workers() == 6
    assert resolve_workers(2) == 2


# --- experiment runs ----------------------------------------------------------------


def test_config_validation():
    spec = EnsembleSpec("uniform", 3, s=2)
    with pytest.raises(ValueError):
        ExperimentConfig(spec, 0)


def test_run_experiment_uniform_passes():
    spec = EnsembleSpec("uniform", 4, s=2)
    rep = run_experiment(ExperimentConfig(spec, 3000, master_seed=11))
    assert rep.passed
    assert rep.prediction_kind == "mean"
    assert abs(rep.z_score) <= 4.0
    assert rep.excluded == 0
    assert rep.trials == 3000
    assert rep.s == 2


def test_run_experiment_resolves_optimal_s():
    spec = EnsembleSpec("uniform", 4)  # s unspecified
    rep = run_experiment(ExperimentConfig(spec, 50, master_seed=1))
    assert rep.s == 2


def test_run_experiment_fixed_points_conditional_prediction():
    spec = EnsembleSpec("uniform", 3, s=2)
    cfg = ExperimentConfig(spec, 4000, master_seed=5, resample_points=False)
    rep = run_experiment(cfg)
    assert rep.passed
    # conditional prediction differs from the ensemble-level expectation
    ens = run_experiment(ExperimentConfig(spec, 10, master_seed=5)).prediction
    assert rep.prediction != ens


def test_run_experiment_eap_upper_bound():
    spec = EnsembleSpec("eap", 9, s=3)
    rep = run_experiment(ExperimentConfig(spec, 40, master_seed=2))
    assert rep.prediction_kind == "upper_bound"
    assert rep.passed
    assert rep.mean <= rep.prediction


def _record_pool_starts(monkeypatch):
    """Start methods of the pools run_experiment opens from here on."""
    from so3energy import harness

    used = []
    real_context = harness.multiprocessing.get_context
    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda m: used.append(m) or real_context(m))
    return used


def test_run_experiment_deterministic_across_workers(monkeypatch):
    # zeros r = 23, s = 4 (n = 92) makes 24-trial chunks, so fifty here and
    # the 4-worker run really starts a pool
    spec = EnsembleSpec("zeros", 23, s=4)
    cfg = ExperimentConfig(spec, 1200, master_seed=9)
    assert math.ceil(cfg.trials / chunk_size(92)) == 50
    seq = run_experiment(cfg, workers=1)
    used = _record_pool_starts(monkeypatch)
    par = run_experiment(cfg, workers=4)
    assert len(used) == 1
    # byte-identical reports regardless of parallelism
    assert seq.to_json() == par.to_json()


@pytest.mark.parametrize(
    "kind, r, s, resample", [("uniform", 40, 2, False), ("zeros", 10, 2, True), ("zeros", 10, 4, True)]
)
def test_chunking_never_changes_a_report(monkeypatch, kind, r, s, resample):
    # a fixed-point run (n = 80, two bands; the rule makes 30-trial chunks),
    # a resampled direct-route run and a resampled fiber-route run give the
    # same report in chunks of 1 and 7 trials as in the rule's
    from so3energy import harness

    cfg = ExperimentConfig(EnsembleSpec(kind, r, s=s), 50, master_seed=17, resample_points=resample)
    want = run_experiment(cfg).to_json()
    for b in (1, 7):
        monkeypatch.setattr(harness, "chunk_size", lambda n: b)
        assert run_experiment(cfg).to_json() == want


def test_spawn_when_fork_is_missing(monkeypatch):
    # without fork the pool is started by spawn and gives the same report;
    # uniform r = 32, s = 2 (n = 64) makes 43-trial chunks, so 59 here
    from so3energy import harness

    cfg = ExperimentConfig(EnsembleSpec("uniform", 32, s=2), 2500, master_seed=12)
    assert chunk_size(64) == 43
    serial = run_experiment(cfg, workers=1)
    monkeypatch.setattr(harness.multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    used = _record_pool_starts(monkeypatch)
    pooled = run_experiment(cfg, workers=2)
    assert used == ["spawn"]
    assert pooled.to_json() == serial.to_json()


def test_run_experiment_deterministic_across_worker_env(monkeypatch):
    # spherical r = 23, s = 4 (n = 92): fifty 24-trial chunks, so the
    # 3-worker run starts a pool
    spec = EnsembleSpec("spherical", 23, s=4)
    cfg = ExperimentConfig(spec, 1200, master_seed=3)
    assert math.ceil(cfg.trials / chunk_size(92)) == 50
    monkeypatch.setenv("SO3ENERGY_WORKERS", "1")
    a = run_experiment(cfg)
    used = _record_pool_starts(monkeypatch)
    monkeypatch.setenv("SO3ENERGY_WORKERS", "3")
    b = run_experiment(cfg)
    assert len(used) == 1
    assert a.to_json() == b.to_json()


def test_pool_has_at_most_one_worker_per_chunk(monkeypatch):
    # uniform r = 256, s = 2 (n = 512) makes 3-trial chunks, so two here; a
    # stub context records the pool size and maps serially, so no process starts
    from so3energy import harness

    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    class Context:
        Pool = SerialPool

    cfg = ExperimentConfig(EnsembleSpec("uniform", 256, s=2), 5, master_seed=4)
    assert chunk_size(512) == 3
    serial = run_experiment(cfg, workers=1)
    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: Context())
    assert run_experiment(cfg, workers=64).to_json() == serial.to_json()
    monkeypatch.setenv("SO3ENERGY_WORKERS", "64")
    assert run_experiment(cfg).to_json() == serial.to_json()
    assert sizes == [2, 2]
    # one chunk runs in this process, with no pool
    run_experiment(ExperimentConfig(EnsembleSpec("uniform", 256, s=2), 3, master_seed=4), workers=64)
    assert sizes == [2, 2]


def test_report_serialization_schema():
    spec = EnsembleSpec("uniform", 2, s=1)
    rep = run_experiment(ExperimentConfig(spec, 64, master_seed=0))
    doc = json.loads(rep.to_json())
    assert list(doc) == [
        "format_version",
        "ensemble",
        "r",
        "s",
        "trials",
        "master_seed",
        "mean",
        "std_error",
        "prediction",
        "prediction_kind",
        "z_score",
        "pass",
        "excluded",
    ]
    assert doc["format_version"] == "1"
    assert isinstance(doc["pass"], bool)
    csv_text = rep.to_csv()
    header, row = csv_text.strip().split("\n")
    assert header.split(",") == list(doc)
    assert len(row.split(",")) == len(doc)
    # floats round-trip through repr
    assert float(row.split(",")[6]) == rep.mean


def test_report_contains_no_timing_fields():
    spec = EnsembleSpec("uniform", 2, s=1)
    rep = run_experiment(ExperimentConfig(spec, 16))
    doc = rep.to_dict()
    for key in doc:
        assert "time" not in key and "duration" not in key and "date" not in key


def test_single_trial_gives_infinite_std_error():
    spec = EnsembleSpec("uniform", 2, s=1)
    rep = run_experiment(ExperimentConfig(spec, 1, master_seed=4))
    assert math.isinf(rep.std_error)
    assert rep.z_score == 0.0


@pytest.mark.parametrize("s", range(1, 33))
def test_single_fiber_fixed_point_runs_pass(s):
    # one fiber's energy does not depend on its phase, so its standard error
    # is rounding noise; a mean within 1e-12 of the prediction agrees with it
    cfg = ExperimentConfig(EnsembleSpec("uniform", 1, s=s), 50, master_seed=3, resample_points=False)
    rep = run_experiment(cfg)
    assert rep.passed and rep.z_score == 0.0


@pytest.mark.parametrize("kind, shift", [("uniform", 1e-9), ("uniform", -1e-9), ("eap", -1e-9)])
def test_prediction_moved_by_1e_9_still_fails(monkeypatch, kind, shift):
    # the mean of a single fiber agrees with its prediction to rounding, so a
    # prediction moved by 1e-9 relative lies far outside the agreement bound:
    # a mean moved either way fails, an upper bound moved below the mean fails
    from so3energy import harness

    real = harness._energy_prediction

    def moved(*args):
        s, value, kind_ = real(*args)
        return s, value * (1.0 - shift), kind_

    cfg = ExperimentConfig(EnsembleSpec(kind, 1, s=3), 50, master_seed=3)
    assert run_experiment(cfg).passed
    monkeypatch.setattr(harness, "_energy_prediction", moved)
    rep = run_experiment(cfg)
    assert not rep.passed and rep.z_score != 0.0


def test_mean_matches_direct_energy_computation():
    # the harness energies are exactly log_energy of the same configurations
    from so3energy.construct import fiber_matrices
    from so3energy.energy import log_energy
    from so3energy.ensembles import sample_points
    from so3energy.geometry import base_frames

    kind, r, s, seed = "uniform", 3, 2, 77
    trials = 5
    direct = []
    for t in range(trials):
        rng = keyed_stream(seed, DOMAIN_TRIAL, t)
        pts = sample_points(kind, r, rng)
        rows = fiber_matrices(base_frames(pts), rng.uniform(0.0, 2.0 * math.pi, r), s)
        direct.append(log_energy(rows.reshape(-1, 3, 3)))
    rep = run_experiment(ExperimentConfig(EnsembleSpec(kind, r, s=s), trials, master_seed=seed))
    assert rep.mean == pytest.approx(math.fsum(direct) / trials, rel=1e-13)


def _numpy_scalar_statistics(energies, mins):
    """Mean and standard error as the report took them over numpy scalars."""
    good = (mins >= COINCIDENCE_TOL) & np.isfinite(energies)
    vals = energies[good]
    m = len(vals)
    mean = math.fsum(vals) / m
    var = math.fsum((v - mean) ** 2 for v in vals) / (m - 1)
    return mean, math.sqrt(var / m)


@pytest.mark.parametrize("kind, r, s, trials, resample", [("uniform", 5, 3, 3000, False), ("zeros", 6, 2, 700, True)])
def test_report_statistics_equal_numpy_scalar_sums_bit_for_bit(monkeypatch, kind, r, s, trials, resample):
    from so3energy import harness

    chunks = []

    def recording(args):
        chunks.append(_chunk_energies(args))
        return chunks[-1]

    monkeypatch.setattr(harness, "_chunk_energies", recording)
    cfg = ExperimentConfig(EnsembleSpec(kind, r, s=s), trials, master_seed=31, resample_points=resample)
    rep = run_experiment(cfg, workers=1)
    energies = np.concatenate([c[0] for c in chunks])
    assert len(energies) == trials
    mean, std_error = _numpy_scalar_statistics(energies, np.concatenate([c[1] for c in chunks]))
    assert rep.mean.hex() == mean.hex()
    assert rep.std_error.hex() == std_error.hex()


def test_fixed_point_fsum_calls_do_not_grow_with_trials(monkeypatch):
    # n = 30 is one tile, so a trial's energy needs no fsum; the report's mean
    # and variance are one fsum each over all trials
    calls = []
    real_fsum = math.fsum

    def counting(xs):
        calls.append(1)
        return real_fsum(xs)

    monkeypatch.setattr(math, "fsum", counting)
    counts = []
    for trials in (1024, 4096):
        calls.clear()
        run_experiment(ExperimentConfig(EnsembleSpec("uniform", 10, s=3), trials, master_seed=8, resample_points=False))
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "kind, r, s, resample", [("zeros", 30, 3, True), ("uniform", 10, 7, False), ("uniform", 40, 2, True)]
)
def test_chunk_energies_equal_log_energy_of_rebuilt_configurations(kind, r, s, resample):
    # fixed-point trials, and resampled ones with s <= 2, take the direct pair
    # sum: exactly log_energy of the configuration rebuilt from the trial's
    # draws (its own stream when resampled, draws t r .. t r + r - 1 of the
    # fiber stream over fixed points; n > 64, so several tiles), in a
    # single-trial chunk and in a 12-trial one. Resampled trials with s >= 3
    # take the fiber-pair identity: equal to it within 1e-12 relative, and the
    # same bits whatever chunk holds them.
    from so3energy.construct import fiber_matrices
    from so3energy.energy import log_energy
    from so3energy.ensembles import sample_points
    from so3energy.geometry import base_frames

    seed, trials = 41, 12
    frames = None
    if not resample:
        points = sample_points(kind, r, keyed_stream(seed, DOMAIN_POINTS))
        frames = base_frames(points)
    batched, _ = _chunk_energies((kind, r, s, seed, 0, trials, frames))
    assert batched.shape == (trials,)
    fiber_stream = keyed_stream(seed, DOMAIN_FIBER).uniform(0.0, 2.0 * math.pi, trials * r)
    for t in range(trials):
        if resample:
            rng = keyed_stream(seed, DOMAIN_TRIAL, t)
            pts, phases = sample_points(kind, r, rng), rng.uniform(0.0, 2.0 * math.pi, r)
        else:
            pts, phases = points, fiber_stream[t * r : (t + 1) * r]
        rows = fiber_matrices(base_frames(pts), phases, s)
        direct = log_energy(rows.reshape(-1, 3, 3))
        single, _ = _chunk_energies((kind, r, s, seed, t, t + 1, frames))
        assert single[0] == batched[t]
        if resample and s >= 3:
            assert batched[t] == pytest.approx(direct, rel=1e-12)
        else:
            assert batched[t] == direct


def test_fixed_point_chunks_equal_per_trial_route():
    # uniform r = 10, s = 3 (n = 30): 147 trials are a 143-trial chunk and a
    # 4-trial one; r = 32, s = 2 (n = 64, one band of 2,016 pairs): 49 trials
    # are a 43-trial chunk and a 6-trial one. Each batched chunk
    # (fiber_phases seeked to its first trial, one fiber_matrices broadcast
    # and pair_log_sums in one workspace) must give the bits of the per-trial
    # route: trial t's r draws sliced from the whole fiber stream,
    # fiber_matrices of its rows, pair_log_sums.
    from so3energy.construct import fiber_matrices
    from so3energy.energy import pair_log_sums
    from so3energy.ensembles import sample_points
    from so3energy.geometry import base_frames

    kind, seed = "uniform", 19
    for r, s, trials in ((10, 3, 147), (32, 2, 49)):
        frames = base_frames(sample_points(kind, r, keyed_stream(seed, DOMAIN_POINTS)))
        fiber_stream = keyed_stream(seed, DOMAIN_FIBER).uniform(0.0, 2.0 * math.pi, trials * r)
        b = chunk_size(r * s)
        assert b < trials < 2 * b
        for lo in range(0, trials, b):
            hi = min(lo + b, trials)
            energies, mins = _chunk_energies((kind, r, s, seed, lo, hi, frames))
            phases = [fiber_stream[t * r : (t + 1) * r] for t in range(lo, hi)]
            rows = np.stack([fiber_matrices(frames, phi, s) for phi in phases])
            want_sums, want_mins = pair_log_sums(rows)
            want_energies = -want_sums
            assert np.array_equal(energies.view(np.uint64), want_energies.view(np.uint64))
            assert np.array_equal(mins.view(np.uint64), want_mins.view(np.uint64))


@pytest.mark.parametrize("r, s", [(5, 2), (10, 3), (32, 2)])
def test_fixed_point_trial_zero_is_the_built_configuration(r, s):
    # trial 0 over fixed points takes draws 0..r-1 of the fiber stream, the
    # phases build_configuration gives fibers 0..r-1 over the same points,
    # which generate --seed samples; r = 32, s = 2 is one full band (n = 64)
    from so3energy.construct import build_configuration
    from so3energy.energy import log_energy
    from so3energy.ensembles import sample_points
    from so3energy.geometry import base_frames

    seed = 43
    points = sample_points("uniform", r, keyed_stream(seed, DOMAIN_POINTS))
    energies, _ = _chunk_energies(("uniform", r, s, seed, 0, 3, base_frames(points)))
    assert energies[0].hex() == log_energy(build_configuration(points, s, seed)).hex()


@pytest.mark.parametrize("n", [2, 30, 32, 64, 256, 1024])
def test_fixed_point_chunk_memory(n):
    # one warm chunk of chunk_size(n) trials, uniform r = n / 2, s = 2 (r = n,
    # s = 1 at n = 2 and 32, r = 10, s = 3 at n = 30): sized by the 2^25 /
    # (8 n^2) rule of the n x n Gram it peaked at 24.4 / 27.6 / 21.6 / 9.7 MiB
    # for n = 30 / 32 / 64 / 256; its rows, fiber scratch and band fit 1 MiB,
    # with at most 2^15 head entries beside them
    import tracemalloc

    from so3energy.ensembles import sample_points
    from so3energy.geometry import base_frames

    r, s = {2: (2, 1), 30: (10, 3), 32: (32, 1)}.get(n, (n // 2, 2))
    seed = 11
    frames = base_frames(sample_points("uniform", r, keyed_stream(seed, DOMAIN_POINTS)))
    args = ("uniform", r, s, seed, 0, chunk_size(n), frames)
    _chunk_energies(args)
    tracemalloc.start()
    try:
        energies, _ = _chunk_energies(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert energies.shape == (chunk_size(n),) and np.isfinite(energies).all()
    assert peak < 1.5 * 2**20


def test_batched_fiber_matrices_equal_stacked_single_calls():
    # shared (r, 3, 3) frames and per-trial (b, r, 3, 3) frames alike
    from so3energy.construct import fiber_matrices
    from so3energy.geometry import haar_rotations

    rng = np.random.default_rng(23)
    for r, s in ((1, 1), (2, 3), (7, 2), (10, 5)):
        shared = haar_rotations(rng, r)
        frames = haar_rotations(rng, 6 * r).reshape(6, r, 3, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, (6, r))
        for f, got in ((shared, fiber_matrices(shared, phases, s)), (frames, fiber_matrices(frames, phases, s))):
            want = np.stack([fiber_matrices(f if f.ndim == 3 else f[k], phases[k], s) for k in range(6)])
            assert got.shape == (6, r * s, 9)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class _ZeroPhases:
    """A trial stream whose phase draws are all zero; other draws pass through."""

    def __init__(self, rng):
        self._rng = rng

    def uniform(self, low, high, size):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _coincide_trial_zero(monkeypatch):
    """Base points 0 and 1 coincide in every trial; trial 0 also draws equal
    phases, so two of its rotations coincide."""
    from so3energy import harness

    real_stream, real_sample = harness.keyed_stream, harness.sample_points

    def stream(seed, domain, index=0):
        rng = real_stream(seed, domain, index)
        return _ZeroPhases(rng) if (domain, index) == (DOMAIN_TRIAL, 0) else rng

    def sample(kind, r, rng):
        pts = real_sample(kind, r, rng)
        pts[1] = pts[0]
        return pts

    monkeypatch.setattr(harness, "keyed_stream", stream)
    monkeypatch.setattr(harness, "sample_points", sample)


def test_coincident_resampled_trial_is_excluded(monkeypatch):
    # only trial 0 has coincident rotations, so only it is excluded
    _coincide_trial_zero(monkeypatch)
    energies, mins = _chunk_energies(("uniform", 4, 3, 8, 0, 3, None))
    assert mins[0] < COINCIDENCE_TOL and mins[1] > 1e-6 and mins[2] > 1e-6
    rep = run_experiment(ExperimentConfig(EnsembleSpec("uniform", 4, s=3), 1000, master_seed=8))
    assert rep.excluded == 1


def test_run_whose_every_trial_is_coincident_fails(monkeypatch):
    # a run of trial 0 alone excludes all of its trials, more than 0.1%, so
    # no run ends with no trial left to average
    _coincide_trial_zero(monkeypatch)
    cfg = ExperimentConfig(EnsembleSpec("uniform", 4, s=3), 1, master_seed=8)
    with pytest.raises(RuntimeError, match="1 of 1 trials coincident; seed or sampler is broken"):
        run_experiment(cfg)
