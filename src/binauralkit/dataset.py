"""Batch rendering of parameter grids into WAV files plus a manifest.

A grid file is JSON: {"schema": 1, "seed": N, "axes": {...}} where each
axis is a non-empty list. Jobs are the cartesian product of the axes,
iterated in the fixed axis order below, so job indices, filenames, and
manifest rows are reproducible for a given grid.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .dsp import AudioBuffer, load_audio, load_reverbs
from .errors import BinauralKitError, FormatError, InvalidArgumentError
from .ir_store import IRType, load_ir_set
from .mixer import MixConfig, TrackObject, _track_source, mix_tracks_binaural
from .wavio import write_wav

AXIS_ORDER = (
    "subject",
    "ir_type",
    "sample_rate",
    "layout",
    "mode",
    "azimuth",
    "elevation",
    "level",
    "reverb_amount",
    "reverb_type",
    "source",
)
_AXIS_DEFAULTS = {
    "layout": (None,),
    "mode": ("auto",),
    "level": (1.0,),
    "reverb_amount": (0.0,),
    "reverb_type": (1,),
}

DEFAULT_JOB_CAP = 10000
GRID_SCHEMA = 1
MANIFEST_COLUMNS = (
    "index",
    "subject",
    "ir_type",
    "sample_rate",
    "layout",
    "mode",
    "azimuth",
    "elevation",
    "level",
    "reverb_amount",
    "reverb_type",
    "source",
    "seed",
    "file",
    "peak",
    "clipped",
    "status",
    "error",
    "tags",
)


@dataclass(frozen=True)
class DatasetGrid:
    seed: int
    axes: dict[str, tuple]
    base_dir: Path  # source paths resolve against this

    @property
    def job_count(self) -> int:
        n = 1
        for axis in self.axes.values():
            n *= len(axis)
        return n

    def jobs(self):
        """Yield one {axis: value} dict per combination, in grid order."""
        names = AXIS_ORDER
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass(frozen=True)
class DatasetReport:
    manifest_path: Path
    rows: tuple[dict, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r["status"] != "ok")


def parse_grid(path) -> DatasetGrid:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(data, dict) or data.get("schema") != GRID_SCHEMA:
        raise FormatError(f"{path}: expected an object with schema={GRID_SCHEMA}")
    raw = data.get("axes")
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: missing axes object")
    unknown = set(raw) - set(AXIS_ORDER)
    if unknown:
        raise FormatError(f"{path}: unknown axes: {', '.join(sorted(unknown))}")
    axes = {}
    for name in AXIS_ORDER:
        axis = raw.get(name, _AXIS_DEFAULTS.get(name))
        if not isinstance(axis, (list, tuple)) or len(axis) == 0:
            raise FormatError(f"{path}: axis {name!r} must be a non-empty list")
        axes[name] = tuple(axis)
    return DatasetGrid(int(data.get("seed", 0)), axes, path.parent)


def _axis_number(values: dict, axis: str, kind=float):
    """``kind(values[axis])``; a value that does not convert fails its row
    with an error naming the axis."""
    value = values[axis]
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise InvalidArgumentError(f"{axis} must be {what}, got {value!r}") from None


def job_filename(values: dict, seed: int) -> str:
    """Deterministic name encoding the job's parameters.

    Grep-friendly axes go in the name at display precision; a short hash of
    every parameter value plus the seed keeps distinct jobs collision-free.
    """
    tail = "|".join(str(values[k]) for k in AXIS_ORDER)
    h8 = hashlib.sha1(f"{tail}|{seed}".encode()).hexdigest()[:8]
    layout = values["layout"] if values["layout"] is not None else "none"
    return (
        f"{values['subject']}_{IRType.parse(values['ir_type']).value}_"
        f"{_axis_number(values, 'sample_rate', int)}_{layout}_{values['mode']}_"
        f"az{_axis_number(values, 'azimuth'):05.1f}_"
        f"el{_axis_number(values, 'elevation'):+05.1f}_"
        f"{h8}.wav"
    )


@lru_cache(maxsize=8)
def _cached_ir_set(data_root: str, subject: str, ir_type: str, rate: int):
    return load_ir_set(data_root, subject, ir_type, rate)


@lru_cache(maxsize=4)
def _cached_reverbs(data_root: str, rate: int):
    return load_reverbs(data_root, rate)


@lru_cache(maxsize=8)
def _cached_audio(path: str) -> AudioBuffer:
    return load_audio(path)


@lru_cache(maxsize=8)
def _cached_track_audio(
    path: str, data_root: str, rate: int, reverb_type: int,
    level: float, reverb: float,
) -> AudioBuffer:
    """A job's source after level gain and reverb.

    It does not depend on direction, layout or mode, so jobs that differ
    only in those share one reverb instead of each recomputing it. level and
    reverb must already be clamped to [0, 1]. The buffer is read-only
    because every caller gets the same object.
    """
    track = TrackObject("source", _cached_audio(path), level, reverb)
    sig = _track_source(track, rate, reverb_type, _cached_reverbs(data_root, rate))
    sig.samples.flags.writeable = False
    return sig


def _render_job(args) -> dict:
    """One grid job; returns a manifest row. Runs in worker processes."""
    index, values, source_path, data_root, out_dir, seed, encoding = args
    row = {c: "" for c in MANIFEST_COLUMNS}
    row["index"] = str(index)
    row["seed"] = str(seed)
    row["status"] = "ok"
    for k in (
        "subject", "ir_type", "sample_rate", "layout", "mode",
        "azimuth", "elevation", "level", "reverb_amount", "reverb_type",
        "source",
    ):
        v = values[k]
        # shortest round-trip float repr keeps rows re-renderable byte-exactly
        row[k] = "none" if v is None else repr(v) if isinstance(v, float) else str(v)
    try:
        name = job_filename(values, seed)
        row["file"] = name
        rate = _axis_number(values, "sample_rate", int)
        ir_set = _cached_ir_set(
            str(data_root), str(values["subject"]),
            IRType.parse(values["ir_type"]).value, rate,
        )
        audio = _cached_audio(source_path)
        # validates and clamps level and reverb, warning when out of range
        track = TrackObject(
            "source",
            audio,
            _axis_number(values, "level"),
            _axis_number(values, "reverb_amount"),
            _axis_number(values, "azimuth"),
            _axis_number(values, "elevation"),
        )
        cfg = MixConfig(
            subject_id=str(values["subject"]),
            sample_rate_hz=rate,
            ir_type=values["ir_type"],
            speaker_layout=values["layout"],
            interpolation_mode=values["mode"],
            reverb_type=_axis_number(values, "reverb_type", int),
        )
        prepared = _cached_track_audio(
            source_path, str(data_root), rate, cfg.reverb_type,
            track.level, track.reverb,
        )
        # level 1 and reverb 0 pass the prepared source through unchanged
        # (keep_tail is on, so the longer input length trims nothing)
        track = TrackObject(
            "source", prepared, 1.0, 0.0, track.azimuth_deg, track.elevation_deg
        )
        result = mix_tracks_binaural(
            [track], cfg, ir_set, _cached_reverbs(str(data_root), rate)
        )
        write_wav(Path(out_dir) / name, rate, result.audio.samples, encoding)
        row["peak"] = f"{result.peak_level:.8g}"
        row["clipped"] = "1" if result.clipped else "0"
    except BinauralKitError as e:  # bad rows land in the manifest, run continues
        row["status"] = "failed"
        row["error"] = " ".join(str(e).split())
    return row


def run_dataset(
    grid: DatasetGrid,
    data_root,
    out_dir,
    jobs: int = 1,
    force: bool = False,
    encoding: str = "pcm24",
    job_cap: int = DEFAULT_JOB_CAP,
) -> DatasetReport:
    """Render every grid combination; write WAVs and manifest.tsv.

    A job that fails with a ``BinauralKitError`` (bad row values, a
    missing IR set or source) is recorded in the manifest and does not stop
    the run; any other exception, such as an ``OSError`` from writing a
    WAV, propagates.
    Manifest rows are in grid order regardless of worker scheduling, and
    reruns of the same grid produce byte-identical outputs.
    """
    count = grid.job_count
    if count > job_cap and not force:
        raise InvalidArgumentError(
            f"grid expands to {count} jobs, over the cap of {job_cap}; "
            "pass force=True (--force) to run anyway"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # resolve sources against the grid file's directory before dispatch;
    # the manifest keeps the original (possibly relative) source strings
    args = []
    for index, values in enumerate(grid.jobs()):
        src = Path(str(values["source"]))
        if not src.is_absolute():
            src = grid.base_dir / src
        args.append((index, values, str(src), str(data_root), str(out_dir),
                     grid.seed, encoding))

    # Jobs that share everything but layout, mode and direction share one
    # levelled, reverbed source. Running them back to back lets each worker
    # compute it once however many such sources the grid has.
    shared = [a for a in AXIS_ORDER
              if a not in ("layout", "mode", "azimuth", "elevation")]
    args.sort(key=lambda a: [str(a[1][name]) for name in shared])
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_render_job, args))
    else:
        rows = [_render_job(a) for a in args]
    rows.sort(key=lambda row: int(row["index"]))

    mpath = out_dir / "manifest.tsv"
    lines = [f"# schema={GRID_SCHEMA}\tseed={grid.seed}\tjobs={count}"]
    lines.append("\t".join(MANIFEST_COLUMNS))
    for row in rows:
        lines.append("\t".join(row[c] for c in MANIFEST_COLUMNS))
    mpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return DatasetReport(mpath, tuple(rows))
