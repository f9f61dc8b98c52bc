"""Fibers of equally spaced rotations over spherical base points.

A fiber over p with count s and phase phi is the set
H_p R(2 pi (j+1)/s + phi) for j = 0..s-1; a configuration stacks the fibers
of r base points, each with an independent uniform phase. The flat index of
(fiber i, slot j) is i*s + j.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import base_frames, rotation_mask
from .streams import DOMAIN_FIBER, keyed_uniforms

FORMAT_VERSION = "1"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConfigMeta:
    ensemble: str
    r: int
    s: int
    seed: int | None
    version: str = FORMAT_VERSION


@dataclass(frozen=True)
class Configuration:
    matrices: np.ndarray  # (n, 3, 3)
    meta: ConfigMeta

    @property
    def n(self):
        return len(self.matrices)


def fiber_matrices(frames, phases, s):
    """Vectorized fiber construction: frames (..., r, 3, 3) and phases (..., r)
    -> (..., r*s, 9) rows.

    Row i*s+j is frames[i] @ R(2 pi (j+1)/s + phases[i]) flattened row-major.
    Columns 1 and 2 of each product mix the frame's first two columns by the
    angle; column 3 is the frame's third column unchanged. Leading axes
    broadcast, so one (r, 3, 3) set of frames takes a (b, r) batch of phases;
    every row has the bits of the unbatched call.
    """
    frames = np.asarray(frames, dtype=float)
    phases = np.asarray(phases, dtype=float)
    lead = np.broadcast_shapes(frames.shape[:-2], phases.shape)
    ang = phases[..., None] + _TWO_PI * np.arange(1, s + 1) / s
    c, sn = np.cos(ang)[..., None], np.sin(ang)[..., None]
    h0, h1 = frames[..., None, :, 0], frames[..., None, :, 1]
    out = np.empty(lead + (s, 3, 3))
    out[..., 0] = h0 * c + h1 * sn
    out[..., 1] = -h0 * sn + h1 * c
    out[..., 2] = frames[..., None, :, 2]
    return out.reshape(lead[:-1] + (lead[-1] * s, 9))


def build_configuration(points, s, rng, ensemble="custom"):
    """Stack fibers over `points` with independent uniform phases.

    `rng` is either an integer master seed (each fiber's phase then comes
    from its own derived stream, so parallel construction is reproducible)
    or a numpy Generator (phases drawn from it in fiber order).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = len(points)
    if r < 1:
        raise ValueError("need at least one base point")
    if s < 1:
        raise ValueError(f"fiber count must be >= 1, got {s}")
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        phases = keyed_uniforms(seed, DOMAIN_FIBER, np.arange(r), 1, _TWO_PI)[:, 0]
    else:
        seed = None
        phases = rng.uniform(0.0, _TWO_PI, r)
    rows = fiber_matrices(base_frames(points), phases, s)
    meta = ConfigMeta(ensemble=ensemble, r=r, s=s, seed=seed)
    return Configuration(matrices=rows.reshape(r * s, 3, 3), meta=meta)


def fiber_energy_closed_form(s):
    """Sum over ordered pairs within one fiber of log ||O_i - O_j||_F.

    Equals s(s-1)/2 log 2 + s log s for every base point and phase.
    """
    if s < 1:
        raise ValueError(f"fiber count must be >= 1, got {s}")
    return s * (s - 1) / 2.0 * math.log(2.0) + s * math.log(s)


# --- serialization ---------------------------------------------------------
#
# JSON: {"meta": {...}, "matrices": [[9 numbers row-major], ...]}
# CSV: a '# meta: {...}' comment line, a header row, one matrix per row.
# Floats are written with repr (shortest round-trip), so load(save(c)) is
# bit-exact for finite doubles. The whole text is formatted in C (json's C
# encoder, one %-format for the CSV body) and written with one call; its bytes
# are those of json.dump and of csv.writer, which writes floats by repr and
# never quotes them.

_CSV_HEADER = ["m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33"]
_CSV_ROW = ",".join(["%r"] * 9) + "\n"


def save_configuration(config, path, fmt="json"):
    meta = asdict(config.meta)
    if fmt == "json":
        rows = config.matrices.reshape(config.n, 9).tolist()
        text = json.dumps({"meta": meta, "matrices": rows}) + "\n"
    elif fmt == "csv":
        head = "# meta: " + json.dumps(meta) + "\n" + ",".join(_CSV_HEADER) + "\n"
        text = head + (_CSV_ROW * config.n) % tuple(config.matrices.reshape(-1).tolist())
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'json' or 'csv')")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _parse_json(path, text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {what} is not valid JSON ({exc})") from None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _load_meta(path, fields):
    try:
        meta = ConfigMeta(**fields)
    except TypeError:
        raise ValueError(
            f"{path}: meta must be an object with keys ensemble, r, s, seed and optionally version,"
            f" got {fields!r}"
        ) from None
    for ok, rule in (
        (isinstance(meta.ensemble, str), "ensemble must be a string"),
        (_is_int(meta.r) and meta.r >= 1, "r must be an integer >= 1"),
        (_is_int(meta.s) and meta.s >= 1, "s must be an integer >= 1"),
        (meta.seed is None or _is_int(meta.seed), "seed must be an integer or null"),
        (isinstance(meta.version, str), "version must be a string"),
    ):
        if not ok:
            raise ValueError(f"{path}: meta {rule}, got {fields!r}")
    return meta


def load_configuration(path):
    """Read a configuration written by save_configuration.

    The file is read once; it is JSON if its first non-blank character is
    "{". Raises ValueError naming the file for a JSON document or CSV meta
    line that does not parse, for a JSON document that is not an object with
    "meta" and a "matrices" list, for a meta without the keys of ConfigMeta
    or with a value of the wrong type or range (ensemble a string, r and s
    integers >= 1, seed an integer or null, version a string), for a meta
    whose r * s is not the number of matrices (every writer stores the r * s
    rotations of r fibers of s), and for the first matrix row that does not
    have exactly 9 entries, has a non-finite entry or is not a rotation within
    1e-10 (the tolerance of is_rotation).
    """
    with open(path) as fh:
        text = fh.read()
    meta = None
    if text.lstrip()[:1] == "{":
        doc = _parse_json(path, text, "the document")
        if "meta" not in doc or not isinstance(doc.get("matrices"), list):
            raise ValueError(f'{path}: a JSON configuration is an object with "meta" and a "matrices" list')
        meta = _load_meta(path, doc["meta"])
        rows = doc["matrices"]
    else:
        rows = []
        # text mode reads \r\n and \r line ends as \n
        for line in text.split("\n"):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "meta:" in line:
                    meta = _load_meta(path, _parse_json(path, line.split("meta:", 1)[1], "the meta line"))
                continue
            if line.startswith(_CSV_HEADER[0]):
                continue
            rows.append(line.split(","))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 9:
            what = f"has {len(row)} entries" if isinstance(row, list) else "is not a list"
            raise ValueError(f"{path}: matrix row {i + 1} of {len(rows)} {what}, expected 9 entries")
    # strings convert as float() reads them, so the CSV values are bit-exact too
    mats = np.array(rows, dtype=float).reshape(-1, 3, 3)
    bad = np.flatnonzero(~rotation_mask(mats))
    if bad.size:
        raise ValueError(
            f"{path}: matrix row {bad[0] + 1} of {len(mats)} is not a rotation"
            " (needs finite entries, |M^T M - I| and |det M - 1| within 1e-10)"
        )
    if meta is None:
        meta = ConfigMeta(ensemble="unknown", r=len(mats), s=1, seed=None)
    elif meta.r * meta.s != len(mats):
        raise ValueError(
            f"{path}: meta r = {meta.r} and s = {meta.s} give {meta.r * meta.s} rotations, the file holds {len(mats)}"
        )
    return Configuration(matrices=mats, meta=meta)
