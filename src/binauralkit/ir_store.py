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
    printable,
    read_utf8,
)
from .geometry import (
    MERGE_TOLERANCE_DEG,
    Direction,
    PointIndex,
    Triangulation,
    normalize_direction,
)

SAMPLE_RATES = (44100, 48000, 96000)
# load_ir_set reads rows into blocks of at most this many file bytes. A
# block stays under glibc's 128 KiB mmap threshold: freeing a larger
# temporary raises the threshold, which moves where the process's later
# large arrays come from and how fast fresh pages of them are.
_BLOCK_BYTES = 1 << 16
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
    """Tag an error with the point indices it concerns, so a loader can
    name the rows they came from."""
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

    @classmethod
    def _view(cls, direction: Direction, left: np.ndarray, right: np.ndarray) -> "IRPoint":
        """A point over checked, read-only buffers, skipping ``__post_init__``."""
        point = cls.__new__(cls)
        point.direction, point.left, point.right = direction, left, right
        return point

    @property
    def ir_length(self) -> int:
        return len(self.left)


class IRSet:
    """All IR points for one subject, IR type, and sample rate.

    Built from IRPoints, or, inside the package, over one stacked array of
    IRs whose points are made only when first read."""

    def __init__(self, subject_id: str, ir_type, sample_rate_hz: int,
                 points: Iterable[IRPoint]):
        self.points = tuple(points)
        self._set_header(subject_id, ir_type, sample_rate_hz, len(self.points))
        self.ir_length = self.points[0].ir_length
        for i, p in enumerate(self.points):
            if p.ir_length != self.ir_length:
                raise _at_points(FormatError(
                    f"IR length mismatch in set {self.subject_id}: "
                    f"{p.ir_length} != {self.ir_length}"
                ), i)
        self._check_distinct()

    @classmethod
    def _stacked(cls, subject_id: str, ir_type, sample_rate_hz: int,
                 directions: Sequence[Direction], irs: np.ndarray,
                 index: PointIndex | None = None) -> "IRSet":
        """A set over ``irs``, a finite ``(rows, taps, 2)`` float64 array,
        made read-only here, whose shape gives every row its length;
        ``index``, when given, is the set's index over ``directions``."""
        irs.flags.writeable = False
        ir_set = cls.__new__(cls)
        ir_set.irs, ir_set.directions = irs, tuple(directions)
        if index is not None:
            ir_set.index = index
        ir_set._set_header(subject_id, ir_type, sample_rate_hz, len(irs))
        ir_set.ir_length = irs.shape[1]
        ir_set._check_distinct()
        return ir_set

    def _set_header(self, subject_id: str, ir_type, sample_rate_hz: int, rows: int) -> None:
        self.subject_id = subject_id
        self.ir_type = IRType.parse(ir_type)
        self.sample_rate_hz = _check_rate(sample_rate_hz)
        if rows < 3:
            raise InsufficientPointsError(f"an IR set needs at least 3 points, got {rows}")

    def _check_distinct(self) -> None:
        kept = self.index.vertex_indices
        if len(kept) < len(self.directions):
            # the first dropped row, and the earlier row nearest to it
            i = next((k for k, v in enumerate(kept) if k != v), len(kept))
            carts = self.index.cartesians
            j = int(np.argmax(carts[:i] @ carts[i]))
            a, b = self.directions[j], self.directions[i]
            raise _at_points(InvalidArgumentError(
                f"points {j} ({a.azimuth_deg}, {a.elevation_deg}) and "
                f"{i} ({b.azimuth_deg}, {b.elevation_deg}) are within "
                f"{MERGE_TOLERANCE_DEG} degrees"
            ), j, i)

    @cached_property
    def points(self) -> tuple[IRPoint, ...]:
        """The set's points; over a stack, read-only views of ``irs``."""
        irs = self.irs
        return tuple(IRPoint._view(d, irs[i, :, 0], irs[i, :, 1])
                     for i, d in enumerate(self.directions))

    @cached_property
    def irs(self) -> np.ndarray:
        """The points' buffers as one read-only ``(rows, taps, 2)`` array:
        the one the set was built over, else a copy."""
        irs = np.stack([np.column_stack((p.left, p.right)) for p in self.points])
        irs.flags.writeable = False
        return irs

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
        by ``dsp.source_ir`` and dropped with the set."""
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
    """Where a set's manifest lives under ``root``. A subject may nest, as
    in ``SADIE/D1``, but may not leave ``root``, and must be printable, as
    the manifest header holds it."""
    if not subject_id.isprintable():
        raise InvalidArgumentError(f"{root}: subject {subject_id!r} must be printable")
    subject = Path(subject_id)
    if subject.anchor or ".." in subject.parts:
        raise InvalidArgumentError(
            f"{root}: subject {subject_id!r} must be a relative path with no '..' component"
        )
    ir_type = IRType.parse(ir_type)
    return Path(root) / subject / ir_type.value / str(int(sample_rate_hz)) / MANIFEST_NAME


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
    lines = read_utf8(path).splitlines()
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
    try:
        rate = _check_rate(rate)
        ir_type = IRType.parse(header["ir_type"])
    except InvalidArgumentError as e:
        raise FormatError(f"{path}: {e}") from None
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
        ir_type=ir_type,
        sample_rate_hz=rate,
        entries=tuple(entries),
    )
    return manifest, tuple(line_numbers)


def load_ir_set(root, subject_id: str, ir_type, sample_rate_hz: int) -> IRSet:
    """Load every IR referenced by a manifest, preserving manifest order.

    The manifest directory is resolved once and each row's path is joined
    to it, so a row may step out through ``..`` or a symlink. Errors about
    a file name its manifest line and WAV path, and set-wide errors (too
    few rows) name the manifest. The header's subject, IR type and rate
    must match the directory the set is loaded from. Of several bad rows,
    the first in manifest order is named; non-finite samples are looked for
    once every row is in.

    The rows are decoded into one read-only ``(rows, taps, 2)`` float64
    array, kept as the set's ``irs``; the set's points, views of it, are
    made only if read. The first row is read and its header parsed. Every
    later row is read once, into a block of rows holding at most
    ``_BLOCK_BYTES`` (64 KiB) of file bytes, so that no temporary reaches
    glibc's mmap threshold. A row as long as the first whose bytes outside
    the data body equal the first row's has the same header, and is decoded
    with the rest of its block in one pass; any other row is read again,
    parsed and decoded on its own.
    """
    ir_type = IRType.parse(ir_type)
    sample_rate_hz = _check_rate(sample_rate_hz)
    mpath = manifest_path(root, subject_id, ir_type, sample_rate_hz)
    manifest, line_numbers = _read_manifest(mpath)
    for key, header, want in (
        ("subject", manifest.subject_id, subject_id),
        ("ir_type", manifest.ir_type.value, ir_type.value),
        ("rate", manifest.sample_rate_hz, sample_rate_hz),
    ):
        if header != want:
            raise FormatError(
                f"{mpath}: header {key} {header} does not match the set's {key} {want}"
            )
    base = os.path.realpath(mpath.parent)
    wav_paths = [os.path.join(base, rel) for _, _, rel in manifest.entries]

    def row(k: int) -> str:
        return f"{mpath}:{line_numbers[k]} ({wav_paths[k]})"

    try:
        if wav_paths:
            directions, stack = _read_rows(wav_paths, manifest, sample_rate_hz)
        else:
            directions, stack = (), np.empty((0, 1, 2))
        # the set's index takes the directions as normalized above
        return IRSet._stacked(manifest.subject_id, ir_type, sample_rate_hz, directions,
                              stack, PointIndex._normalized(directions))
    except BinauralKitError as e:
        rows = getattr(e, "point_indices", ())
        where = " and ".join(map(row, rows)) if rows else mpath
        raise type(e)(f"{where}: {e}") from None


def _read_rows(paths: list[str], manifest: IRManifest,
               rate: int) -> tuple[tuple[Direction, ...], np.ndarray]:
    """The normalized direction of each manifest row, and the samples of its
    file ``paths[k]``, stacked ``(rows, taps, 2)``, as load_ir_set reads
    them; an error is tagged with the row it concerns."""
    directions = []

    def parse(k: int) -> tuple[bytes, wavio.WavHeader]:
        """Row k read and checked on its own."""
        raw = wavio.read_bytes(paths[k])
        head = wavio.expect_format(raw, paths[k], 2, rate)
        az, el, _ = manifest.entries[k]
        directions.append(normalize_direction(az, el))
        if not head.frames:
            raise InvalidArgumentError("IR buffers must share a nonzero length, got 0 and 0")
        return raw, head

    k = 0
    try:
        raw, first = parse(0)
        n, size = len(paths), len(raw)
        stack = np.empty((n, first.frames, 2))
        flat = stack.reshape(n, -1)
        wavio.decode_into(raw, first, flat[0])
        raw = np.frombuffer(raw, np.uint8)
        before, after = raw[:first.start], raw[first.end:]
        block = np.empty((max(1, _BLOCK_BYTES // size), size), np.uint8)
        for lo in range(1, n, len(block)):
            rows = block[:n - lo]
            whole = [wavio.read_into(paths[lo + i], r) for i, r in enumerate(rows)]
            same = (whole & (rows[:, :first.start] == before).all(1)
                    & (rows[:, first.end:] == after).all(1))
            # a row that differs is zeroed, as its bytes read as float32 may
            # hold a signalling NaN whose cast warns, and decoded on its own
            # below
            rows[~same] = 0
            wavio.decode_into(rows, first, flat[lo:lo + len(rows)])
            for k, shared in enumerate(same.tolist(), lo):
                if shared:
                    az, el, _ = manifest.entries[k]
                    directions.append(normalize_direction(az, el))
                    continue
                raw, head = parse(k)
                if head.frames != first.frames:
                    raise FormatError(f"IR length mismatch in set {manifest.subject_id}: "
                                      f"{head.frames} != {first.frames}")
                wavio.decode_into(raw, head, flat[k])
    except BinauralKitError as e:
        raise _at_points(e, k)
    # min and max are NaN or infinite exactly when some sample is, and need
    # no temporary the size of the set
    if not (math.isfinite(stack.min()) and math.isfinite(stack.max())):
        k = int(np.argmin(np.isfinite(stack).all(axis=(1, 2))))
        raise _at_points(InvalidArgumentError("IR buffers contain non-finite samples"), k)
    return tuple(directions), stack


def save_ir_set(ir_set: IRSet, root, encoding: str = "float32") -> Path:
    """Write an IR set in the manifest layout; returns the manifest path."""
    mpath = manifest_path(root, ir_set.subject_id, ir_set.ir_type, ir_set.sample_rate_hz)
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
    (elevation = 90 - value). A file is skipped, with a warning naming it,
    unless its angles parse, its manifest path is printable (without
    ``copy_files``, the path from the resolved set directory, which is what
    a load joins it to), and it holds finite samples in 2 channels at
    ``sample_rate_hz``, as many frames as the first kept file and a
    direction no kept file has, so each kept row loads. Fewer than 3 kept
    files raise EmptyImportError before anything is copied or written.
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
    base = os.path.realpath(mpath.parent)  # what load_ir_set joins rows to
    files = sorted(p for p in source_dir.iterdir() if p.suffix.lower() == ".wav")
    candidates: list[tuple[str, Direction, str]] = []
    skipped: list[str] = []
    for f in files:
        m = pattern.search(f.name)
        if not m:
            skipped.append(f"{f.name}: filename does not match pattern")
            continue
        try:
            az, el = (float((m.group(g) or "").replace(",", "."))
                      for g in ("azimuth", "elevation"))
            d = normalize_direction(az, 90.0 - el if inclination else el)
        except ValueError:
            skipped.append(f"{f.name}: angles {m.group('azimuth')!r}, "
                           f"{m.group('elevation')!r} are not finite numbers")
            continue
        rel = f.name if copy_files else os.path.relpath(f, base)
        if not rel.isprintable():
            skipped.append(f"{f.name}: manifest path {rel!r} is not printable")
            continue
        try:
            raw = wavio.read_bytes(str(f))
            head = wavio.expect_format(raw, f, 2, sample_rate_hz)
            samples = np.empty((head.frames, 2))
            wavio.decode_into(raw, head, samples.reshape(-1))
            IRPoint(d, samples[:, 0], samples[:, 1])  # a nonzero length, finite samples
        except BinauralKitError as e:
            skipped.append(f"{f.name}: {e}")
            continue
        if candidates and head.frames != taps:
            skipped.append(f"{f.name}: {head.frames} frames, but {candidates[0][0]} has {taps}")
            continue
        taps = head.frames
        candidates.append((f.name, d, rel))

    # the same test IRSet applies on load, so every kept row loads
    kept = set(PointIndex(d for _, d, _ in candidates).vertex_indices)
    skipped += [f"{name}: duplicate direction ({d.azimuth_deg}, {d.elevation_deg})"
                for k, (name, d, _) in enumerate(candidates) if k not in kept]
    entries = tuple((d.azimuth_deg, d.elevation_deg, rel)
                    for k, (_, d, rel) in enumerate(candidates) if k in kept)
    for msg in skipped:
        warnings.warn(f"import: skipped {printable(msg)}", stacklevel=2)
    if len(entries) < 3:
        raise EmptyImportError(
            f"{source_dir}: an IR set needs at least 3 usable IR files, got {len(entries)} "
            f"(pattern {filename_pattern!r}, {len(skipped)} skipped)")
    if copy_files:
        mpath.parent.mkdir(parents=True, exist_ok=True)
        for _, _, rel in entries:
            shutil.copy2(source_dir / rel, mpath.parent / rel)
    manifest = IRManifest(MANIFEST_SCHEMA, subject_id, ir_type, sample_rate_hz, entries)
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
    irs = np.empty((len(dirs), n, 2))
    for k, d in enumerate(dirs):
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
        for ear, (onset, gain) in enumerate(zip((left_onset, right_onset), gains)):
            x = np.zeros(n)
            x[onset] = gain
            tail = n - onset - 1
            if tail > 0:
                x[onset + 1:] = 1e-3 * gain * noise[ear, :tail] * envelope[:tail]
            irs[k, :, ear] = x.astype(np.float32)
    return IRSet._stacked(subject_id, IRType.parse(ir_type), sample_rate_hz, dirs, irs)
