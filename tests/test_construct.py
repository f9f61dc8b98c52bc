"""Fiber construction, configuration assembly, and file round-trips."""

import csv
import dataclasses
import json
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


def test_fiber_energy_closed_form_at_and_near_the_poles():
    # the poles take base_frames' special frames, and points whose x and y lie
    # within 1e-12 of 0 fall on either side of its pole test (rho^2 < 1e-24)
    rng = np.random.default_rng(23)
    for s in (2, 3, 8, 17):
        expected = fiber_energy_closed_form(s)
        iu = np.triu_indices(s, 1)
        for k in range(12):
            z = 1.0 if k % 2 else -1.0
            xy = [0.0, 0.0] if k < 2 else rng.uniform(-1e-12, 1e-12, 2)
            mats = build_configuration([xy[0], xy[1], z], s, rng).matrices
            assert np.max(np.abs(mats[:, :, 2] - [xy[0], xy[1], z])) <= 1e-12
            d2 = 6.0 - 2.0 * np.einsum("aij,bij->ab", mats, mats)
            assert float(np.sum(np.log(d2[iu]))) == pytest.approx(expected, rel=1e-12, abs=1e-12)


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


def _reference_bytes(cfg, fmt, path):
    """The file the json.dump / csv.writer encoders wrote for cfg."""
    rows = cfg.matrices.reshape(cfg.n, 9).tolist()
    meta = dataclasses.asdict(cfg.meta)
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            json.dump({"meta": meta, "matrices": rows}, fh)
            fh.write("\n")
        else:
            fh.write("# meta: " + json.dumps(meta) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33"])
            writer.writerows(rows)
    return path.read_bytes()


def _encoder_cases():
    """(name, configuration, finite) over random fibers, both poles, a
    subnormal entry and a matrix holding nan, inf and -inf."""
    rng = np.random.default_rng(41)
    pts = rng.standard_normal((5, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    yield "random", build_configuration(pts, 4, rng=77, ensemble="uniform"), True
    poles = build_configuration([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], 6, rng=np.random.default_rng(5))
    assert np.any(np.signbit(poles.matrices) & (poles.matrices == 0.0))
    yield "poles", poles, True
    mats = poles.matrices.copy()
    mats[0, 0, 2] = 5e-324
    mats[3, 2, 0] = -2.2250738585072e-310
    yield "subnormal", Configuration(mats, poles.meta), True
    mats = poles.matrices.copy()
    mats[2] = [[math.nan, math.inf, -math.inf], [0.0, -0.0, 1e-300], [1e300, -1.5, 0.1]]
    yield "non-finite", Configuration(mats, poles.meta), False


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_writes_the_bytes_of_the_stream_encoders(tmp_path, fmt):
    for name, cfg, finite in _encoder_cases():
        path = tmp_path / f"{name}.{fmt}"
        save_configuration(cfg, path, fmt=fmt)
        assert path.read_bytes() == _reference_bytes(cfg, fmt, tmp_path / f"ref-{name}.{fmt}"), name
        if finite:
            back = load_configuration(path)
            assert np.array_equal(back.matrices.view(np.uint64), cfg.matrices.view(np.uint64)), name
            assert back.meta == cfg.meta


def test_save_rejects_unknown_format(tmp_path):
    cfg = build_configuration([[0.0, 0.0, 1.0]], 2, rng=0)
    with pytest.raises(ValueError):
        save_configuration(cfg, tmp_path / "x.bin", fmt="bin")


def test_load_csv_without_meta_line(tmp_path):
    # no meta line, blank lines and a comment between data lines are skipped,
    # with \n, \r\n or \r line ends
    cfg = build_configuration([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], 2, rng=4)
    rows = [",".join(repr(v) for v in row) for row in cfg.matrices.reshape(4, 9).tolist()]
    lines = [",".join("m%d%d" % (i, j) for i in range(1, 4) for j in range(1, 4)), rows[0], "", rows[1]]
    lines += ["# a note between data lines", "  ", rows[2], rows[3], ""]
    for k, newline in enumerate(["\n", "\r\n", "\r"]):
        path = tmp_path / f"bare-{k}.csv"
        path.write_bytes(newline.join(lines).encode())
        back = load_configuration(path)
        assert isinstance(back, Configuration)
        assert back.n == 4
        assert np.array_equal(back.matrices.view(np.uint64), cfg.matrices.view(np.uint64))
        assert back.meta.ensemble == "unknown" and back.meta.r == 4


def _write_rows_json(path, rows):
    meta = {"ensemble": "uniform", "r": len(rows), "s": 1, "seed": None, "version": "1"}
    path.write_text(json.dumps({"meta": meta, "matrices": rows}) + "\n")


def _eight_entry_rows(path):
    # 72 numbers that would reshape into 8 matrices if the rows were flattened
    rows = np.tile(np.eye(3).reshape(9), 8).reshape(9, 8).tolist()
    _write_rows_json(path.with_suffix(".json"), rows)
    return path.with_suffix(".json"), "matrix row 1 of 9 has 8 entries, expected 9"


def _ragged_json_row(path):
    rows = np.tile(np.eye(3).reshape(9), (6, 1)).tolist()
    rows[3].append(0.0)
    _write_rows_json(path.with_suffix(".json"), rows)
    return path.with_suffix(".json"), "matrix row 4 of 6 has 10 entries, expected 9"


def _csv_twelve_then_six(path):
    # 12 + 6 fields would pass as two matrices if the fields were flattened
    eye = ",".join(repr(v) for v in np.eye(3).reshape(9).tolist())
    fields = eye.split(",")
    lines = ["m11,m12,m13,m21,m22,m23,m31,m32,m33", eye, ",".join(fields + fields[:3])]
    lines += [",".join(fields[3:]), eye]
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    return path.with_suffix(".csv"), "matrix row 2 of 4 has 12 entries, expected 9"


@pytest.mark.parametrize("write", [_eight_entry_rows, _ragged_json_row, _csv_twelve_then_six])
def test_load_rejects_rows_without_nine_entries(tmp_path, capsys, write):
    path, message = write(tmp_path / "wide")
    with pytest.raises(ValueError, match=message):
        load_configuration(path)
    assert main(["energy", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


_EYE_ROW = np.eye(3).reshape(9).tolist()
_META = {"ensemble": "uniform", "r": 1, "s": 1, "seed": None, "version": "1"}


def _json_without_meta(path):
    path.with_suffix(".json").write_text(json.dumps({"matrices": [_EYE_ROW]}))
    return path.with_suffix(".json"), 'an object with "meta" and a "matrices" list'


def _json_without_matrices(path):
    path.with_suffix(".json").write_text(json.dumps({"meta": _META, "rows": [_EYE_ROW]}))
    return path.with_suffix(".json"), 'an object with "meta" and a "matrices" list'


def _json_meta_with_unknown_key(path):
    meta = dict(_META, colour="blue")
    path.with_suffix(".json").write_text(json.dumps({"meta": meta, "matrices": [_EYE_ROW]}))
    return path.with_suffix(".json"), "meta must be an object with keys ensemble, r, s, seed"


def _json_meta_not_an_object(path):
    path.with_suffix(".json").write_text(json.dumps({"meta": [1, 2], "matrices": [_EYE_ROW]}))
    return path.with_suffix(".json"), "meta must be an object with keys ensemble, r, s, seed"


def _csv_empty_meta(path):
    lines = ["# meta: {}", "m11,m12,m13,m21,m22,m23,m31,m32,m33", ",".join(repr(v) for v in _EYE_ROW)]
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    return path.with_suffix(".csv"), "meta must be an object with keys ensemble, r, s, seed"


def _json_that_does_not_parse(path):
    path.with_suffix(".json").write_text('{"meta": {"ensemble": "uniform", "r": 1,')
    return path.with_suffix(".json"), "the document is not valid JSON"


def _csv_meta_line_that_does_not_parse(path):
    lines = ["# meta: {bad", "m11,m12,m13,m21,m22,m23,m31,m32,m33", ",".join(repr(v) for v in _EYE_ROW)]
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    return path.with_suffix(".csv"), "the meta line is not valid JSON"


def _json_meta_with(message, **fields):
    def write(path):
        meta = dict(_META, **fields)
        path.with_suffix(".json").write_text(json.dumps({"meta": meta, "matrices": [_EYE_ROW]}))
        return path.with_suffix(".json"), message

    write.__name__ = "_json_meta_" + "_".join(f"{key}_{value}" for key, value in fields.items())
    return write


@pytest.mark.parametrize(
    "write",
    [
        _json_without_meta,
        _json_without_matrices,
        _json_meta_with_unknown_key,
        _json_meta_not_an_object,
        _csv_empty_meta,
        _json_that_does_not_parse,
        _csv_meta_line_that_does_not_parse,
        _json_meta_with("meta ensemble must be a string", ensemble=5, r="abc", s=-3, seed="x"),
        _json_meta_with("meta r must be an integer >= 1", r="abc"),
        _json_meta_with("meta r must be an integer >= 1", r=0),
        _json_meta_with("meta r must be an integer >= 1", r=True),
        _json_meta_with("meta s must be an integer >= 1", s=-3),
        _json_meta_with("meta s must be an integer >= 1", s=1.0),
        _json_meta_with("meta seed must be an integer or null", seed="x"),
        _json_meta_with("meta version must be a string", version=1),
        _json_meta_with("meta r = 1 and s = 2 give 2 rotations, the file holds 1", s=2),
    ],
)
def test_malformed_meta_is_a_usage_error_naming_the_file(tmp_path, capsys, write):
    path, message = write(tmp_path / "meta")
    with pytest.raises(ValueError, match=message) as info:
        load_configuration(path)
    assert str(info.value).startswith(f"{path}: ")
    assert main(["energy", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and message in captured.err


def test_json_with_leading_whitespace_is_read_as_json(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["generate", "--ensemble", "uniform", "--r", "5", "--s", "3", "--seed", "4", "--out", str(path)]) == 0
    generated = json.loads(capsys.readouterr().out)["log_energy"]
    cfg = load_configuration(path)
    padded = tmp_path / "padded.json"
    padded.write_text("\n \t\n" + path.read_text())
    back = load_configuration(padded)
    assert back.meta == cfg.meta
    assert np.array_equal(back.matrices.view(np.uint64), cfg.matrices.view(np.uint64))
    assert main(["energy", "--in", str(padded)]) == 0
    assert float(capsys.readouterr().out.strip()) == generated


def test_energy_of_an_empty_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_configuration(path).n == 0
    assert main(["energy", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least one rotation" in captured.err


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
