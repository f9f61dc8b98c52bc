"""Fiber construction, configuration assembly, and file round-trips."""

import math

import numpy as np
import pytest

from so3energy.cli import main
from so3energy.construct import (
    Configuration,
    build_configuration,
    fiber_energy_closed_form,
    fiber_matrices,
    load_configuration,
    save_configuration,
)
from so3energy.energy import log_energy
from so3energy.geometry import base_frames, is_rotation, unit_vector
from so3energy.streams import DOMAIN_FIBER, keyed_stream


def fiber(p, s, phase):
    """The s rotations over one base point at a given phase, shape (s, 3, 3)."""
    return fiber_matrices(base_frames(np.atleast_2d(p)), [phase], s).reshape(s, 3, 3)


def rotation_about_z(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_fiber_members_are_rotations_over_base():
    p = unit_vector([1.0, -2.0, 0.5])
    mats = fiber(p, 5, phase=0.37)
    assert mats.shape == (5, 3, 3)
    e3 = np.array([0.0, 0.0, 1.0])
    for m in mats:
        assert is_rotation(m, tol=1e-12)
        # every member of the fiber sends the pole to the base point
        assert np.allclose(m @ e3, p, atol=1e-12)


def test_fiber_members_equally_spaced():
    # consecutive members differ by rotation through 2 pi / s about the pole,
    # so all consecutive squared distances are equal
    mats = fiber([0.0, 1.0, 0.0], 7, phase=1.1)
    gram = np.einsum("aij,bij->ab", mats, mats)
    d2 = 6.0 - 2.0 * gram
    offs = [d2[i, (i + 1) % 7] for i in range(7)]
    assert np.allclose(offs, offs[0], atol=1e-12)
    expected = 6.0 - 2.0 * (2.0 * math.cos(2.0 * math.pi / 7.0) + 1.0)
    assert offs[0] == pytest.approx(expected, abs=1e-12)


def test_fiber_over_north_pole_is_rotations_about_z():
    # the north-pole frame is the identity, so slot j is R(2 pi (j+1)/s + phase)
    e1, e3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    mats = fiber([0.0, 0.0, 1.0], 4, phase=0.0)
    assert np.allclose(mats[3], np.eye(3), atol=1e-15)
    assert np.allclose(mats[0] @ e1, [0.0, 1.0, 0.0], atol=1e-15)
    for j, m in enumerate(mats):
        assert is_rotation(m)
        assert np.allclose(m @ e3, e3)
        assert np.allclose(m, rotation_about_z(2.0 * math.pi * (j + 1) / 4), atol=1e-15)
        # group law on the circle: slots add their angles
        for k in range(4):
            assert np.allclose(m @ mats[k], mats[(j + k + 1) % 4], atol=1e-15)
    a = fiber([0.0, 0.0, 1.0], 1, phase=0.7)[0]
    assert np.allclose(a @ fiber([0.0, 0.0, 1.0], 1, phase=-1.9)[0], fiber([0.0, 0.0, 1.0], 1, phase=-1.2)[0])


def test_fiber_matrices_matches_frame_times_rotation():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((6, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * math.pi, 6)
    s = 4
    rows = fiber_matrices(base_frames(pts), phases, s)
    assert rows.shape == (24, 9)
    frames = base_frames(pts)
    for i in range(6):
        direct = np.stack([frames[i] @ rotation_about_z(2.0 * math.pi * (j + 1) / s + phases[i]) for j in range(s)])
        block = rows[i * s : (i + 1) * s].reshape(s, 3, 3)
        assert np.max(np.abs(block - direct)) < 1e-14


def test_fiber_energy_closed_form_matches_direct_sum():
    # identity check: the pairwise log-distance sum inside one fiber depends
    # only on s, not on the base point or phase
    rng = np.random.default_rng(22)
    for s in [1, 2, 3, 8, 17]:
        expected = fiber_energy_closed_form(s)
        for _ in range(3):
            p = unit_vector(rng.standard_normal(3))
            mats = build_configuration(p, s, rng).matrices
            if s == 1:
                direct = 0.0
            else:
                gram = np.einsum("aij,bij->ab", mats, mats)
                d2 = 6.0 - 2.0 * gram
                iu = np.triu_indices(s, 1)
                # ordered pairs: sum of log d over i != j equals sum of
                # log d^2 over i < j
                direct = float(np.sum(np.log(d2[iu])))
            assert direct == pytest.approx(expected, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        fiber_energy_closed_form(0)


def test_fiber_energy_closed_form_small_values():
    assert fiber_energy_closed_form(1) == 0.0
    assert fiber_energy_closed_form(2) == pytest.approx(math.log(2.0) + 2.0 * math.log(2.0))
    assert fiber_energy_closed_form(3) == pytest.approx(3.0 * math.log(2.0) + 3.0 * math.log(3.0))


def test_build_configuration_shapes_and_meta():
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cfg = build_configuration(pts, 4, rng=123, ensemble="uniform")
    assert cfg.n == 12
    assert cfg.matrices.shape == (12, 3, 3)
    assert cfg.meta.r == 3 and cfg.meta.s == 4
    assert cfg.meta.seed == 123
    assert cfg.meta.ensemble == "uniform"
    for m in cfg.matrices:
        assert is_rotation(m, tol=1e-12)


def test_build_configuration_integer_seed_is_order_independent():
    # with an integer seed each fiber phase comes from its own derived
    # stream, so the same (point, index) pair always gets the same phase
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    a = build_configuration(pts, 3, rng=7)
    b = build_configuration(pts, 3, rng=7)
    assert np.array_equal(a.matrices, b.matrices)
    c = build_configuration(pts, 3, rng=8)
    assert not np.array_equal(a.matrices, c.matrices)
    # fiber i's phase is the first draw of keyed_stream(seed, DOMAIN_FIBER, i)
    phases = [keyed_stream(7, DOMAIN_FIBER, i).uniform(0.0, 2.0 * math.pi) for i in range(2)]
    want = fiber_matrices(base_frames(pts), phases, 3).reshape(6, 3, 3)
    assert np.array_equal(a.matrices.view(np.uint64), want.view(np.uint64))


def test_build_configuration_generator_path():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    a = build_configuration(pts, 2, rng=np.random.default_rng(9))
    b = build_configuration(pts, 2, rng=np.random.default_rng(9))
    assert np.array_equal(a.matrices, b.matrices)
    assert a.meta.seed is None


def test_build_configuration_validation():
    with pytest.raises(ValueError):
        build_configuration(np.empty((0, 3)), 2, rng=0)
    with pytest.raises(ValueError):
        build_configuration([[0.0, 0.0, 1.0]], 0, rng=0)
    with pytest.raises(ValueError):
        build_configuration([0.0, 0.0, 1.0], 0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_load_round_trip_is_bit_exact(tmp_path, fmt):
    pts = np.random.default_rng(31).standard_normal((4, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cfg = build_configuration(pts, 3, rng=55, ensemble="eap")
    path = tmp_path / f"config.{fmt}"
    save_configuration(cfg, path, fmt=fmt)
    back = load_configuration(path)
    assert np.array_equal(back.matrices, cfg.matrices)
    assert back.meta == cfg.meta
    # the energy computed from the file equals the energy of the original
    assert log_energy(back.matrices).value == log_energy(cfg.matrices).value


@pytest.mark.parametrize("seed", range(12))
def test_save_load_round_trip_is_bit_exact_for_any_configuration(tmp_path, seed):
    # fibers over random points and over the poles (exact and signed zeros),
    # r up to 40 and s up to 9, through JSON and CSV: every bit comes back
    rng = np.random.default_rng(900 + seed)
    r, s = int(rng.integers(1, 41)), int(rng.integers(1, 10))
    pts = rng.standard_normal((r, 3))
    pts[: r // 4] = [0.0, 0.0, 1.0]
    pts[r // 4 : r // 2] = [0.0, 0.0, -1.0]
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    seed_arg = int(rng.integers(0, 2**63)) if seed % 2 else np.random.default_rng(seed)
    cfg = build_configuration(pts, s, rng=seed_arg, ensemble="uniform")
    for fmt in ("json", "csv"):
        path = tmp_path / f"config-{seed}.{fmt}"
        save_configuration(cfg, path, fmt=fmt)
        back = load_configuration(path)
        assert back.matrices.shape == cfg.matrices.shape
        assert np.array_equal(back.matrices.view(np.uint64), cfg.matrices.view(np.uint64))
        assert back.meta == cfg.meta


def test_save_rejects_unknown_format(tmp_path):
    cfg = build_configuration([[0.0, 0.0, 1.0]], 2, rng=0)
    with pytest.raises(ValueError):
        save_configuration(cfg, tmp_path / "x.bin", fmt="bin")


def test_load_csv_without_meta_line(tmp_path):
    path = tmp_path / "bare.csv"
    rows = np.eye(3).reshape(1, 9)
    with open(path, "w") as fh:
        fh.write(",".join("m%d%d" % (i, j) for i in range(1, 4) for j in range(1, 4)) + "\n")
        fh.write(",".join(repr(float(v)) for v in rows[0]) + "\n")
    cfg = load_configuration(path)
    assert isinstance(cfg, Configuration)
    assert cfg.n == 1
    assert np.array_equal(cfg.matrices[0], np.eye(3))
    assert cfg.meta.ensemble == "unknown"


def _broken_file(tmp_path, fmt, damage):
    """A saved configuration of 6 rotations whose matrix row 3 is damaged."""
    pts = np.random.default_rng(32).standard_normal((3, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cfg = build_configuration(pts, 2, rng=56)
    damage(cfg.matrices[2])
    path = tmp_path / f"broken.{fmt}"
    save_configuration(cfg, path, fmt=fmt)
    return path


def _nan_entry(m):
    m[1, 2] = math.nan


def _scaled(m):
    m *= 1.01


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("damage", [_nan_entry, _scaled])
def test_load_rejects_non_rotation_rows(tmp_path, capsys, fmt, damage):
    path = _broken_file(tmp_path, fmt, damage)
    with pytest.raises(ValueError, match="matrix row 3 of 6 is not a rotation"):
        load_configuration(path)
    capsys.readouterr()
    assert main(["energy", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "matrix row 3 of 6" in captured.err
