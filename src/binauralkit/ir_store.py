"""Impulse-response sets: on-disk manifest layout, measured-data import, and
synthetic set generation.

A set lives at <root>/<subject>/<HRIR|BRIR>/<rate>/manifest.tsv. The manifest
has one header line of tab-separated key=value pairs (schema=1, subject,
ir_type, rate) followed by azimuth<TAB>elevation<TAB>path rows, paths
relative to the manifest file.
"""

from __future__ import annotations

import enum
import math
import os
import re
import shutil
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import wavio
from .distributions import lebedev50_directions, ring_grid_directions
from .errors import (
    BinauralKitError,
    EmptyImportError,
    FormatError,
    InsufficientPointsError,
    InvalidArgumentError,
    NotFoundError,
    as_number,
)
from .geometry import (
    MERGE_TOLERANCE_DEG,
    Direction,
    PointIndex,
    Triangulation,
    normalize_direction,
)

SAMPLE_RATES = (44100, 48000, 96000)
MANIFEST_NAME = "manifest.tsv"
MANIFEST_SCHEMA = 1

# Default filename pattern for measured-set import: azi_<az>_ele_<el> with
# either decimal separator, e.g. azi_22,5_ele_-10.wav
DEFAULT_IMPORT_PATTERN = (
    r"azi_(?P<azimuth>-?\d+(?:[.,]\d+)?)_ele_(?P<elevation>-?\d+(?:[.,]\d+)?)"
)


class IRType(enum.Enum):
    HRIR = "HRIR"
    BRIR = "BRIR"

    @classmethod
    def parse(cls, value) -> "IRType":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise InvalidArgumentError(
                f"unknown IR type {value!r}; expected HRIR or BRIR"
            ) from None


def _check_rate(rate: int) -> int:
    rate = int(rate)
    if rate not in SAMPLE_RATES:
        raise InvalidArgumentError(
            f"unsupported sample rate {rate}; expected one of {SAMPLE_RATES}"
        )
    return rate


def _at_points(error: Exception, *indices: int) -> Exception:
    """Tag a set-wide validation error with the point indices it concerns,
    so a loader can name the rows they came from."""
    error.point_indices = indices
    return error


@dataclass
class IRPoint:
    """A measured or synthetic IR pair at one direction."""

    direction: Direction
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        # a float64 array passes through asarray as the same object
        self.left = np.asarray(self.left, dtype=np.float64)
        self.right = np.asarray(self.right, dtype=np.float64)
        if self.left.ndim != 1 or self.right.ndim != 1:
            raise InvalidArgumentError("IR buffers must be one-dimensional")
        if len(self.left) != len(self.right) or len(self.left) == 0:
            raise InvalidArgumentError(
                f"IR buffers must share a nonzero length, got "
                f"{len(self.left)} and {len(self.right)}"
            )
        if not (np.isfinite(self.left).all() and np.isfinite(self.right).all()):
            raise InvalidArgumentError("IR buffers contain non-finite samples")
        self.left.flags.writeable = False
        self.right.flags.writeable = False

    @property
    def ir_length(self) -> int:
        return len(self.left)


@dataclass
class IRSet:
    """All IR points for one subject, IR type, and sample rate."""

    subject_id: str
    ir_type: IRType
    sample_rate_hz: int
    points: tuple[IRPoint, ...]

    def __post_init__(self):
        self.ir_type = IRType.parse(self.ir_type)
        self.sample_rate_hz = _check_rate(self.sample_rate_hz)
        self.points = tuple(self.points)
        if len(self.points) < 3:
            raise InsufficientPointsError(
                f"an IR set needs at least 3 points, got {len(self.points)}"
            )
        n = self.points[0].ir_length
        for i, p in enumerate(self.points):
            if p.ir_length != n:
                raise _at_points(FormatError(
                    f"IR length mismatch in set {self.subject_id}: "
                    f"{p.ir_length} != {n}"
                ), i)
        kept = self.index.vertex_indices
        if len(kept) < len(self.points):
            # the first dropped row, and the earlier row nearest to it
            i = next((k for k, v in enumerate(kept) if k != v), len(kept))
            carts = self.index.cartesians
            j = int(np.argmax(carts[:i] @ carts[i]))
            a = self.points[j].direction
            b = self.points[i].direction
            raise _at_points(InvalidArgumentError(
                f"points {j} ({a.azimuth_deg}, {a.elevation_deg}) and "
                f"{i} ({b.azimuth_deg}, {b.elevation_deg}) are within "
                f"{MERGE_TOLERANCE_DEG} degrees"
            ), j, i)

    @property
    def ir_length(self) -> int:
        return self.points[0].ir_length

    @cached_property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(p.direction for p in self.points)

    @cached_property
    def index(self) -> PointIndex:
        """Cartesians, nearest lookup, rings, columns and triangulation of
        the point directions, each built on first use."""
        return PointIndex(self.directions)

    @property
    def triangulation(self) -> Triangulation:
        """Triangulation over the point directions, built on first use."""
        return self.index.triangulation

    @cached_property
    def speaker_sets(self) -> dict:
        """Speaker IR sets resolved from this set, by (layout, mode); filled
        by ``dsp.render_source_binaural`` and dropped with the set."""
        return {}


@dataclass(frozen=True)
class IRManifest:
    """Parsed manifest: header fields plus (azimuth, elevation, path) rows."""

    schema_version: int
    subject_id: str
    ir_type: IRType
    sample_rate_hz: int
    entries: tuple[tuple[float, float, str], ...]


def manifest_path(root, subject_id: str, ir_type, sample_rate_hz: int) -> Path:
    ir_type = IRType.parse(ir_type)
    return (
        Path(root) / subject_id / ir_type.value / str(int(sample_rate_hz)) / MANIFEST_NAME
    )


def write_manifest(manifest: IRManifest, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"schema={manifest.schema_version}\tsubject={manifest.subject_id}"
        f"\tir_type={manifest.ir_type.value}\trate={manifest.sample_rate_hz}"
    ]
    for az, el, rel in manifest.entries:
        # shortest round-trip float repr keeps directions exact across IO
        lines.append(f"{float(az)!r}\t{float(el)!r}\t{rel}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> IRManifest:
    return _read_manifest(path)[0]


def _read_manifest(path) -> tuple[IRManifest, tuple[int, ...]]:
    """The parsed manifest plus the file line number of each entry."""
    path = Path(path)
    if not path.is_file():
        raise NotFoundError(f"manifest not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"{path} is empty")
    header: dict[str, str] = {}
    for part in lines[0].split("\t"):
        if "=" not in part:
            raise FormatError(f"{path}: bad header field {part!r}")
        k, v = part.split("=", 1)
        header[k.strip()] = v.strip()
    for key in ("schema", "subject", "ir_type", "rate"):
        if key not in header:
            raise FormatError(f"{path}: header is missing {key!r}")
    schema, rate = (
        as_number(header[key], f"{path}: header {key}", int) for key in ("schema", "rate")
    )
    if schema != MANIFEST_SCHEMA:
        raise FormatError(
            f"{path}: unsupported schema {header['schema']} "
            f"(expected {MANIFEST_SCHEMA})"
        )
    entries = []
    line_numbers = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise FormatError(f"{path}:{i}: expected 3 tab-separated columns")
        try:
            entries.append((float(cols[0]), float(cols[1]), cols[2]))
        except ValueError:
            raise FormatError(f"{path}:{i}: bad angle value") from None
        line_numbers.append(i)
    manifest = IRManifest(
        schema_version=schema,
        subject_id=header["subject"],
        ir_type=IRType.parse(header["ir_type"]),
        sample_rate_hz=_check_rate(rate),
        entries=tuple(entries),
    )
    return manifest, tuple(line_numbers)


def load_ir_set(root, subject_id: str, ir_type, sample_rate_hz: int) -> IRSet:
    """Load every IR referenced by a manifest, preserving manifest order.

    The manifest directory is resolved once and each row's path is joined
    to it, so a row may step out through ``..`` or a symlink. Errors about
    a file name its manifest line and WAV path.
    """
    ir_type = IRType.parse(ir_type)
    sample_rate_hz = _check_rate(sample_rate_hz)
    mpath = manifest_path(root, subject_id, ir_type, sample_rate_hz)
    manifest, line_numbers = _read_manifest(mpath)
    base = os.path.realpath(mpath.parent)
    wav_paths = [os.path.join(base, rel) for _, _, rel in manifest.entries]

    def row(k: int) -> str:
        return f"{mpath}:{line_numbers[k]} ({wav_paths[k]})"

    points = []
    for k, (az, el, _) in enumerate(manifest.entries):
        try:
            rate, samples = wavio.read_wav(wav_paths[k])
            if samples.shape[1] != 2:
                raise FormatError(
                    f"IR files must have 2 channels, got {samples.shape[1]}"
                )
            if rate != sample_rate_hz:
                raise FormatError(
                    f"sample rate {rate} does not match manifest rate "
                    f"{sample_rate_hz}"
                )
            points.append(
                IRPoint(normalize_direction(az, el), samples[:, 0], samples[:, 1])
            )
        except BinauralKitError as e:
            raise type(e)(f"{row(k)}: {e}") from None
    try:
        return IRSet(manifest.subject_id, ir_type, sample_rate_hz, tuple(points))
    except BinauralKitError as e:
        indices = getattr(e, "point_indices", None)
        if indices is None:
            raise
        raise type(e)(f"{' and '.join(map(row, indices))}: {e}") from None


def save_ir_set(ir_set: IRSet, root, encoding: str = "float32") -> Path:
    """Write an IR set in the manifest layout; returns the manifest path."""
    mpath = manifest_path(root, ir_set.subject_id, ir_set.ir_type, ir_set.sample_rate_hz)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, p in enumerate(ir_set.points):
        name = f"ir_{i:05d}.wav"
        wavio.write_wav(
            mpath.parent / name,
            ir_set.sample_rate_hz,
            np.column_stack([p.left, p.right]),
            encoding=encoding,
        )
        entries.append((p.direction.azimuth_deg, p.direction.elevation_deg, name))
    manifest = IRManifest(
        MANIFEST_SCHEMA, ir_set.subject_id, ir_set.ir_type,
        ir_set.sample_rate_hz, tuple(entries),
    )
    write_manifest(manifest, mpath)
    return mpath


def nearest_point(ir_set: IRSet, direction: Direction) -> tuple[int, float]:
    """Index and angular distance of the stored point nearest to direction.

    Ties resolve to the lowest index.
    """
    return ir_set.index.nearest(direction)


def import_sadie(
    source_dir,
    dest_root,
    subject_id: str,
    ir_type,
    sample_rate_hz: int,
    filename_pattern: str = DEFAULT_IMPORT_PATTERN,
    *,
    inclination: bool = False,
    copy_files: bool = True,
) -> IRManifest:
    """Scan a directory of measured IR WAVs and write a manifest for them.

    Angles are parsed from filenames with a regex exposing ``azimuth`` and
    ``elevation`` groups; comma decimal separators are accepted. With
    ``inclination`` the elevation group is read as inclination from zenith
    (elevation = 90 - value). Unparsable names, files with the wrong channel
    count or rate, and duplicate directions are skipped and reported.
    """
    source_dir = Path(source_dir)
    if not source_dir.is_dir():
        raise NotFoundError(f"import source {source_dir} is not a directory")
    ir_type = IRType.parse(ir_type)
    sample_rate_hz = _check_rate(sample_rate_hz)
    try:
        pattern = re.compile(filename_pattern)
    except re.error as e:
        raise InvalidArgumentError(f"bad filename pattern: {e}") from e
    if not {"azimuth", "elevation"} <= set(pattern.groupindex):
        raise InvalidArgumentError(
            "filename pattern needs named groups 'azimuth' and 'elevation'"
        )

    mpath = manifest_path(dest_root, subject_id, ir_type, sample_rate_hz)
    mpath.parent.mkdir(parents=True, exist_ok=True)

    files = sorted(p for p in source_dir.iterdir() if p.suffix.lower() == ".wav")
    candidates: list[tuple[Path, Direction]] = []
    skipped: list[str] = []
    for f in files:
        m = pattern.search(f.name)
        if not m:
            skipped.append(f"{f.name}: filename does not match pattern")
            continue
        az = float(m.group("azimuth").replace(",", "."))
        el = float(m.group("elevation").replace(",", "."))
        if inclination:
            el = 90.0 - el
        d = normalize_direction(az, el)
        try:
            rate, samples = wavio.read_wav(f)
        except FormatError as e:
            skipped.append(str(e))
            continue
        if samples.shape[1] != 2:
            skipped.append(f"{f.name}: expected 2 channels, got {samples.shape[1]}")
            continue
        if rate != sample_rate_hz:
            skipped.append(f"{f.name}: rate {rate} != {sample_rate_hz}")
            continue
        candidates.append((f, d))

    # the same test IRSet applies on load, so every kept row loads
    kept = set(PointIndex(d for _, d in candidates).vertex_indices)
    entries = []
    for k, (f, d) in enumerate(candidates):
        if k not in kept:
            skipped.append(f"{f.name}: duplicate direction "
                           f"({d.azimuth_deg}, {d.elevation_deg})")
            continue
        if copy_files:
            shutil.copy2(f, mpath.parent / f.name)
            rel = f.name
        else:
            rel = os.path.relpath(str(f), str(mpath.parent))
        entries.append((d.azimuth_deg, d.elevation_deg, rel))

    for msg in skipped:
        warnings.warn(f"import: skipped {msg}", stacklevel=2)
    if not entries:
        raise EmptyImportError(
            f"no usable IR files found in {source_dir} "
            f"(pattern {filename_pattern!r}, {len(skipped)} skipped)"
        )
    manifest = IRManifest(
        MANIFEST_SCHEMA, subject_id, ir_type, sample_rate_hz, tuple(entries)
    )
    write_manifest(manifest, mpath)
    return manifest


# ---------------------------------------------------------------------------
# synthetic sets


def _woodworth_itd_s(direction: Direction, head_radius_m: float = 0.0875,
                     speed_of_sound: float = 343.0) -> float:
    """Spherical-head ITD in seconds; positive when the left ear leads."""
    s = math.sin(math.radians(direction.azimuth_deg)) * math.cos(
        math.radians(direction.elevation_deg)
    )
    gamma = math.asin(max(-1.0, min(1.0, s)))
    return (head_radius_m / speed_of_sound) * (gamma + math.sin(gamma))


def synthesize_ir_set(
    distribution,
    sample_rate_hz: int,
    ir_length_samples: int = 256,
    seed: int = 0,
    *,
    step_deg: float | None = None,
    elevations: Sequence[float] | None = None,
    subject_id: str = "SYN1",
    ir_type=IRType.HRIR,
) -> IRSet:
    """Generate a bit-deterministic synthetic IR set.

    ``distribution`` is "lebedev50", "ring_az_step" (with ``step_deg`` and
    ``elevations``), or an explicit sequence of directions. Each IR is a
    spherical-head model: onset delays from the Woodworth ITD, level
    difference scaling with the lateral sine, and a seeded low-level noise
    tail. Identical arguments give bit-identical buffers.
    """
    sample_rate_hz = _check_rate(sample_rate_hz)
    n = int(ir_length_samples)
    if n < 32:
        raise InvalidArgumentError(f"ir_length_samples must be >= 32, got {n}")
    if isinstance(distribution, str):
        if distribution == "lebedev50":
            dirs = lebedev50_directions()
        elif distribution == "ring_az_step":
            if step_deg is None or elevations is None:
                raise InvalidArgumentError(
                    "ring_az_step needs step_deg and elevations"
                )
            dirs = ring_grid_directions(step_deg, elevations)
        else:
            raise InvalidArgumentError(
                f"unknown distribution {distribution!r}; expected 'lebedev50', "
                "'ring_az_step', or a sequence of directions"
            )
    else:
        dirs = [normalize_direction(d.azimuth_deg, d.elevation_deg) for d in distribution]

    rng = np.random.default_rng(seed)
    base_delay = 16
    envelope = np.exp(-6.0 * np.arange(n) / n)
    points = []
    for d in dirs:
        itd = _woodworth_itd_s(d) * sample_rate_hz
        lead = base_delay
        lag = base_delay + int(round(abs(itd)))
        left_onset, right_onset = (lead, lag) if itd >= 0 else (lag, lead)
        left_onset = min(left_onset, n - 1)
        right_onset = min(right_onset, n - 1)
        s = math.sin(math.radians(d.azimuth_deg)) * math.cos(
            math.radians(d.elevation_deg)
        )
        gains = (1.0 + 0.4 * s, 1.0 - 0.4 * s)
        noise = rng.standard_normal((2, n))
        chans = []
        for ear, (onset, gain) in enumerate(zip((left_onset, right_onset), gains)):
            x = np.zeros(n)
            x[onset] = gain
            tail = n - onset - 1
            if tail > 0:
                x[onset + 1:] = 1e-3 * gain * noise[ear, :tail] * envelope[:tail]
            chans.append(x.astype(np.float32).astype(np.float64))
        points.append(IRPoint(d, chans[0], chans[1]))
    return IRSet(subject_id, IRType.parse(ir_type), sample_rate_hz, tuple(points))
