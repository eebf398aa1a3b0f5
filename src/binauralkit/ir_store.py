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
    as_rate,
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
    rate = as_number(rate, "sample rate", int, InvalidArgumentError)
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


@dataclass(eq=False)
class IRPoint:
    """A measured or synthetic IR pair at one direction: ``left`` and ``right``
    are the columns of one read-only ``(taps, 2)`` float64 array, ``pair``.
    Points compare, and hash, by identity: buffers have no one truth value."""

    direction: Direction
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left, right = (np.asarray(a, dtype=np.float64) for a in (self.left, self.right))
        if left.ndim != 1 or right.ndim != 1:
            raise InvalidArgumentError("IR buffers must be one-dimensional")
        if len(left) != len(right) or len(left) == 0:
            raise InvalidArgumentError(
                f"IR buffers must share a nonzero length, got "
                f"{len(left)} and {len(right)}"
            )
        # a read-only copy: the caller's arrays stay its own, and writable
        pair = np.stack([left, right], axis=1)
        if not np.isfinite(pair).all():
            raise InvalidArgumentError("IR buffers contain non-finite samples")
        pair.flags.writeable = False
        self.pair, self.left, self.right = pair, pair[:, 0], pair[:, 1]

    @classmethod
    def _view(cls, direction: Direction, pair: np.ndarray) -> "IRPoint":
        """A point over a checked, read-only pair, skipping ``__post_init__``."""
        point = cls.__new__(cls)
        point.direction, point.pair = direction, pair
        point.left, point.right = pair[:, 0], pair[:, 1]
        return point

    @property
    def ir_length(self) -> int:
        return len(self.pair)


class IRSet:
    """All IR points for one subject, IR type, and sample rate, held as one
    ``(rows, taps, 2)`` float64 array: a copy of the IRPoints' pairs, or,
    inside the package, an array already stacked, or the rows of a set on
    disk, each read into its slot when first needed (see
    :func:`load_ir_set`). ``irs`` is the array, read-only, with every row
    read; ``points`` are read-only views of it, made only when first read.
    ``directions`` are normalized, as ``index`` holds them."""

    def __init__(self, subject_id: str, ir_type, sample_rate_hz: int,
                 points: Iterable[IRPoint]):
        points = tuple(points)
        self._set_header(subject_id, ir_type, sample_rate_hz, len(points))
        for i, p in enumerate(points):
            if p.ir_length != points[0].ir_length:
                raise _at_points(FormatError(
                    f"IR length mismatch in set {self.subject_id}: "
                    f"{p.ir_length} != {points[0].ir_length}"
                ), i)
        self._set_stack([p.direction for p in points], np.stack([p.pair for p in points]))

    @classmethod
    def _stacked(cls, subject_id: str, ir_type, sample_rate_hz: int,
                 directions: Sequence[Direction], irs: np.ndarray) -> "IRSet":
        """A set over ``irs``, a finite ``(rows, taps, 2)`` float64 array."""
        ir_set = cls.__new__(cls)
        ir_set._set_header(subject_id, ir_type, sample_rate_hz, len(irs))
        ir_set._set_stack(directions, irs)
        return ir_set

    def _set_header(self, subject_id: str, ir_type, sample_rate_hz: int, rows: int) -> None:
        self.subject_id = subject_id
        self.ir_type = IRType.parse(ir_type)
        self.sample_rate_hz = _check_rate(sample_rate_hz)
        if rows < 3:
            raise InsufficientPointsError(f"an IR set needs at least 3 points, got {rows}")

    def _set_stack(self, directions: Sequence[Direction], irs: np.ndarray,
                   index: PointIndex | None = None, rows: "_Rows | None" = None) -> None:
        """Keep ``irs``, whose shape gives every row its length, and the row
        directions with their index, whose facts are each built on first
        use; no two directions may be within ``MERGE_TOLERANCE_DEG``.
        ``rows``, when given, reads the rows of ``irs`` not yet read;
        otherwise every row is in and ``irs`` is made read-only here."""
        self._stack, self._rows, self.ir_length = irs, rows, irs.shape[1]
        if rows is None:
            irs.flags.writeable = False
        self.index = PointIndex(directions) if index is None else index
        self.directions = self.index.directions
        # speaker IR sets resolved from this set by dsp.source_ir, by (layout, mode)
        self.speaker_sets: dict = {}
        kept = self.index.vertex_indices
        if len(kept) < len(self.directions):
            # the first dropped row, and the earlier row nearest to it, named
            # by the directions as given
            i = next((k for k, v in enumerate(kept) if k != v), len(kept))
            carts = self.index.cartesians
            j = int(np.argmax(carts[:i] @ carts[i]))
            a, b = directions[j], directions[i]
            raise _at_points(InvalidArgumentError(
                f"points {j} ({a.azimuth_deg}, {a.elevation_deg}) and "
                f"{i} ({b.azimuth_deg}, {b.elevation_deg}) are within "
                f"{MERGE_TOLERANCE_DEG} degrees"
            ), j, i)

    def _with_rows(self, entries: Iterable[tuple[int, float]] | None = None) -> np.ndarray:
        """The set's array with the rows of a plan's ``(row, weight)`` entries
        read, or every row when None; a bad row raises the error that names
        it, and is read again on the next use."""
        rows = self._rows
        if rows is None:
            return self._stack
        unread = (rows.unread if entries is None
                  else rows.unread.intersection(i for i, _ in entries))
        if unread:
            try:
                rows.read(sorted(unread))
            except BinauralKitError as e:
                raise rows.named(e) from None
            if not rows.unread:
                self._rows = None
                self._stack.flags.writeable = False
        return self._stack

    @cached_property
    def irs(self) -> np.ndarray:
        """The set's ``(rows, taps, 2)`` array, every row read; read-only."""
        return self._with_rows()

    @cached_property
    def points(self) -> tuple[IRPoint, ...]:
        """The set's points, each ``pair`` a read-only view of a row of ``irs``."""
        return tuple(map(IRPoint._view, self.directions, self.irs))

    @property
    def triangulation(self) -> Triangulation:
        """Triangulation over the point directions, built on first use."""
        return self.index.triangulation


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
    rate = as_rate(sample_rate_hz, f"{root}: sample rate", InvalidArgumentError)
    return Path(root) / subject / ir_type.value / str(rate) / MANIFEST_NAME


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
    """The set a manifest describes, in manifest order, its rows read when
    first needed.

    The load reads the manifest and checks its header: the subject, IR type
    and rate must match the directory the set is loaded from. A set needs
    at least 3 rows. The load reads, checks and decodes the first row,
    which fixes the tap count, normalizes every direction, builds the set's
    index from them and checks no two are within ``MERGE_TOLERANCE_DEG``.
    Every other row is read, checked and decoded into its slot of the set's
    array when first needed, by ``IRSet._with_rows``: ``interpolation.blend``
    reads the rows of its plan, and ``IRSet.irs``, ``IRSet.points`` and
    :func:`save_ir_set` read every row still unread. So a bad row no blend
    touches fails nothing, and a bad row fails its first use, and every
    later one, with the error the load would have given. A set's files must
    not change while it is used.

    Errors about a row name its manifest line and WAV path; set-wide errors
    (too few rows) name the manifest. The manifest directory is resolved
    once and a row's path is joined to it when the row is read, so a row
    may step out through ``..`` or a symlink. How rows are read, and which
    bad row of several is named, is :meth:`_Rows.read`.
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
    rows = _Rows(mpath, line_numbers, manifest)
    ir_set = IRSet.__new__(IRSet)
    try:
        ir_set._set_header(manifest.subject_id, ir_type, sample_rate_hz, len(line_numbers))
        rows.read([0])
        directions = []
        for k, (az, el, _) in enumerate(manifest.entries):
            try:
                directions.append(normalize_direction(az, el))
            except BinauralKitError as e:
                raise _at_points(e, k)
        directions = tuple(directions)
        # the set's index takes the directions as normalized above
        ir_set._set_stack(directions, rows.stack, PointIndex._normalized(directions), rows)
    except BinauralKitError as e:
        raise rows.named(e) from None
    return ir_set


class _Rows:
    """The rows of a set on disk not read yet, and what reading them needs:
    the set directory, each row's manifest line and relative path, and the
    set's array, made when row 0 is read."""

    def __init__(self, mpath: Path, line_numbers: Sequence[int], manifest: IRManifest):
        self.mpath, self.line_numbers, self.manifest = mpath, line_numbers, manifest
        self.base = os.path.realpath(mpath.parent)
        self.unread = set(range(len(line_numbers)))

    def path(self, k: int) -> str:
        return os.path.join(self.base, self.manifest.entries[k][2])

    def named(self, error: BinauralKitError) -> BinauralKitError:
        """``error`` prefixed with the rows it is tagged with, or else the
        manifest; ``names_set`` marks it as naming its own files."""
        rows = getattr(error, "point_indices", ())
        where = " and ".join(f"{self.mpath}:{self.line_numbers[k]} ({self.path(k)})"
                             for k in rows) if rows else self.mpath
        named = type(error)(f"{where}: {error}")
        named.names_set = True
        return named

    def read(self, ks: Sequence[int]) -> None:
        """Read, check and decode rows ``ks``, ascending and unread, into
        their slots of ``stack``, one file at a time, so of several bad rows
        the first is named. Row 0, read first and alone, fixes the tap count
        and makes ``stack``, unfilled. Non-finite samples are looked for once
        every row of ``ks`` is in. On an error, tagged with its row, no row
        of ``ks`` counts as read."""
        try:
            for k in ks:
                path = self.path(k)
                raw = wavio.read_bytes(path)
                head = wavio.expect_format(raw, path, 2, self.manifest.sample_rate_hz)
                if not head.frames:
                    raise InvalidArgumentError(
                        "IR buffers must share a nonzero length, got 0 and 0")
                if not k:
                    self.stack = np.empty((len(self.line_numbers), head.frames, 2))
                elif head.frames != self.stack.shape[1]:
                    raise FormatError(
                        f"IR length mismatch in set {self.manifest.subject_id}: "
                        f"{head.frames} != {self.stack.shape[1]}")
                wavio.decode_into(raw, head, self.stack[k].reshape(-1))
            for k in ks:
                # min and max are NaN or infinite exactly when some sample
                # is, and need no temporary the size of the row
                if not (math.isfinite(self.stack[k].min())
                        and math.isfinite(self.stack[k].max())):
                    raise InvalidArgumentError("IR buffers contain non-finite samples")
        except BinauralKitError as e:
            raise _at_points(e, k)
        self.unread.difference_update(ks)


def save_ir_set(ir_set: IRSet, root, encoding: str = "float32") -> Path:
    """Write an IR set in the manifest layout; returns the manifest path."""
    mpath = manifest_path(root, ir_set.subject_id, ir_set.ir_type, ir_set.sample_rate_hz)
    entries = []
    for k, (d, ir) in enumerate(zip(ir_set.directions, ir_set.irs)):
        name = f"ir_{k:05d}.wav"
        wavio.write_wav(mpath.parent / name, ir_set.sample_rate_hz, ir, encoding=encoding)
        entries.append((d.azimuth_deg, d.elevation_deg, name))
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


# the spherical head of the synthetic sets
_HEAD_RADIUS_M = 0.0875
_SPEED_OF_SOUND_M_S = 343.0


def _woodworth_itd_s(direction: Direction) -> float:
    """Spherical-head ITD in seconds; positive when the left ear leads."""
    s = math.sin(math.radians(direction.azimuth_deg)) * math.cos(
        math.radians(direction.elevation_deg)
    )
    gamma = math.asin(max(-1.0, min(1.0, s)))
    return (_HEAD_RADIUS_M / _SPEED_OF_SOUND_M_S) * (gamma + math.sin(gamma))


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
    n = as_number(ir_length_samples, "ir_length_samples", int, InvalidArgumentError)
    seed = as_number(seed, "seed", int, InvalidArgumentError)
    if n < 32:
        raise InvalidArgumentError(f"ir_length_samples must be >= 32, got {n}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
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
