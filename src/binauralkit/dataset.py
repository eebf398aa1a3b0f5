"""Batch rendering of parameter grids into WAV files plus a manifest.

A grid file is JSON: {"schema": 1, "seed": N, "axes": {...}} where each
axis is a non-empty list. Jobs are the cartesian product of the axes,
iterated in the fixed axis order below, so job indices, filenames, and
manifest rows are reproducible for a given grid.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .dsp import binaural_sum, load_audio, load_reverbs, source_ir
from .errors import (BinauralKitError, FormatError, InvalidArgumentError, as_number,
                     printable, read_json)
from .ir_store import IRType, load_ir_set
from .layouts import get_layout
from .mixer import CONFIG_FIELDS, MixConfig, TrackObject, _finish, _track_source
from .wavio import check_encoding, write_wav

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
    "index", *AXIS_ORDER, "seed", "file", "peak", "clipped", "status", "error", "tags",
)


@dataclass(frozen=True)
class DatasetGrid:
    seed: int
    axes: dict[str, tuple]
    base_dir: Path  # source paths resolve against this

    @property
    def job_count(self) -> int:
        return math.prod(len(axis) for axis in self.axes.values())

    def jobs(self):
        """Yield one {axis: value} dict per combination, in grid order."""
        for combo in itertools.product(*(self.axes[n] for n in AXIS_ORDER)):
            yield dict(zip(AXIS_ORDER, combo))


@dataclass(frozen=True)
class DatasetReport:
    manifest_path: Path
    rows: tuple[dict, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r["status"] != "ok")


def parse_grid(path) -> DatasetGrid:
    path = Path(path)
    data = read_json(path)
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
    seed = as_number(data.get("seed", 0), f"{path}: seed", int)
    return DatasetGrid(seed, axes, path.parent)


def _axis_number(values: dict, axis: str, kind=float):
    """``kind(values[axis])``; a value that does not convert fails its row
    with an error naming the axis."""
    return as_number(values[axis], axis, kind, InvalidArgumentError)


def job_filename(values: dict, seed: int) -> str:
    """Deterministic name encoding the job's parameters.

    Grep-friendly axes go in the name at display precision; a short hash of
    every parameter value plus the seed keeps distinct jobs collision-free.
    Each path separator, and a leading ``.``, is written as ``_``, so the
    name is one path component, and not a hidden file, whatever a subject,
    layout or mode holds.
    """
    tail = "|".join(str(values[k]) for k in AXIS_ORDER)
    h8 = hashlib.sha1(f"{tail}|{seed}".encode(errors="surrogatepass")).hexdigest()[:8]
    layout = values["layout"] if values["layout"] is not None else "none"
    name = (
        f"{values['subject']}_{IRType.parse(values['ir_type']).value}_"
        f"{_axis_number(values, 'sample_rate', int)}_{layout}_{values['mode']}_"
        f"az{_axis_number(values, 'azimuth'):05.1f}_"
        f"el{_axis_number(values, 'elevation'):+05.1f}_"
        f"{h8}.wav"
    )
    for sep in filter(None, (os.sep, os.altsep)):
        name = name.replace(sep, "_")
    return "_" + name[1:] if name.startswith(".") else name


# A run's inputs, each kind keeping its 8 most recently used; run_dataset
# empties them at its start and end, so a rerun reads edited files afresh.
@functools.lru_cache(maxsize=8)
def _cached_ir_set(data_root: str, subject: str, ir_type: str, rate: int):
    return load_ir_set(data_root, subject, ir_type, rate)


@functools.lru_cache(maxsize=8)
def _cached_audio(source_path: str):
    return load_audio(source_path)


@functools.lru_cache(maxsize=8)
def _cached_reverbs(data_root: str, rate: int):
    return load_reverbs(data_root, rate)


@functools.lru_cache(maxsize=8)
def _cached_source(source_path: str, data_root: str, rate: int, reverb_type: int,
                   level: float, reverb: float):
    """The levelled, reverbed source, from a level and reverb already clamped."""
    track = TrackObject("source", _cached_audio(source_path), level, reverb)
    return _track_source(track, rate, reverb_type, _cached_reverbs(data_root, rate))


def _clear_caches() -> None:
    for cache in (_cached_ir_set, _cached_audio, _cached_reverbs, _cached_source):
        cache.cache_clear()


def _render_group(group) -> list[dict]:
    """Grid jobs that differ only in mode; returns their manifest rows. Runs
    in worker processes. Rows whose blended IRs are bit-identical share one
    render and one WAV encode; the others get a copy of its file."""
    rows, blends = [], {}
    for index, values, source_path, data_root, out_dir, seed, encoding in group:
        row = {c: "" for c in MANIFEST_COLUMNS}
        row.update(index=str(index), seed=str(seed), status="ok")
        rows.append(row)
        for k in AXIS_ORDER:
            v = values[k]
            # a float's str, numpy's too, is its shortest round-trip repr
            row[k] = "none" if v is None else str(v)
        try:
            row["file"] = job_filename(values, seed)
            cfg = MixConfig(**{field: values[key] for key, field in CONFIG_FIELDS.items()
                               if key in values})
            rate = cfg.sample_rate_hz
            ir_set = _cached_ir_set(data_root, cfg.subject_id, cfg.ir_type.value, rate)
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
            prepared = _cached_source(source_path, data_root, rate, cfg.reverb_type,
                                      track.level, track.reverb)
            layout = None if cfg.speaker_layout is None else get_layout(cfg.speaker_layout)
            _, ir = source_ir(track.direction, ir_set, cfg.interpolation_mode, layout)
        except BinauralKitError as e:  # bad rows land in the manifest, run continues
            row.update(status="failed", error=" ".join(str(e).split()))
            continue
        job = (prepared, audio.n_samples, ir, cfg, Path(out_dir), encoding)
        blends.setdefault(ir.pair.tobytes(), (job, []))[1].append(row)
    for (prepared, n_input, ir, cfg, out_dir, encoding), members in blends.values():
        first = out_dir / members[0]["file"]
        try:
            result = _finish([binaural_sum([(prepared.samples, ir)])], n_input, cfg)
            write_wav(first, cfg.sample_rate_hz, result.audio.samples, encoding)
        except BinauralKitError as e:  # the same error every member would raise
            for row in members:
                row.update(status="failed", error=" ".join(str(e).split()))
            continue
        for row in members:
            # identical grid rows share one name, and so the written file
            if row["file"] != members[0]["file"]:
                shutil.copyfile(first, out_dir / row["file"])
            row.update(peak=f"{result.peak_level:.8g}",
                       clipped="1" if result.clipped else "0")
        del result  # hold one blend's audio at a time
    return rows


def run_dataset(
    grid: DatasetGrid,
    data_root,
    out_dir,
    jobs: int = 1,
    force: bool = False,
    encoding: str = "pcm24",
) -> DatasetReport:
    """Render every grid combination; write WAVs and manifest.tsv.

    A job that fails with a ``BinauralKitError`` (bad row values, a
    missing IR set or source, a bad IR row its plan blends) is recorded in
    the manifest and does not stop the run; any other exception, such as an
    ``OSError`` from writing a WAV, propagates. An IR set's row is read
    when a job first blends it, so a bad row fails only the jobs that blend
    it, and editing a set's files during a run is not supported.
    Manifest rows are in grid order regardless of worker scheduling, and
    reruns of the same grid produce byte-identical outputs.
    Within a run each worker keeps the 8 most recently used IR sets, reverb
    sets, sources and levelled, reverbed sources, one ``functools.lru_cache``
    each, so a grid with at most 8 of each loads or computes each once per
    worker; a failed load is not kept. The caches are emptied at a run's
    start and end, so a rerun after editing an input renders the new content.
    Jobs that differ only in mode run as one group on one worker; those
    whose blended IRs are bit-identical share one render and one WAV
    encode, and the others get a copy of its bytes, so every output is
    what its own render would write; identical rows share one file.
    ``jobs`` (an integer, at least 1) caps the worker processes, and no
    more start than there are groups. Settings are checked before
    ``out_dir`` is touched; then an existing ``manifest.tsv`` there is
    deleted before the first WAV is written.
    """
    check_encoding(encoding)
    jobs = as_number(jobs, "jobs", int, InvalidArgumentError)
    if jobs < 1:
        raise InvalidArgumentError(f"jobs must be at least 1, got {jobs}")
    count = grid.job_count
    if count > DEFAULT_JOB_CAP and not force:
        raise InvalidArgumentError(
            f"grid expands to {count} jobs, over the cap of {DEFAULT_JOB_CAP}; "
            "pass force=True (--force) to run anyway"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a run stopped part way must not leave an earlier run's manifest
    # vouching for a mix of old and new WAVs
    mpath = out_dir / "manifest.tsv"
    mpath.unlink(missing_ok=True)

    # resolve sources against the grid file's directory before dispatch;
    # the manifest keeps the original (possibly relative) source strings
    args = []
    for index, values in enumerate(grid.jobs()):
        src = grid.base_dir / str(values["source"])
        args.append((index, values, str(src), str(data_root), str(out_dir),
                     grid.seed, encoding))

    # Jobs that share everything but layout, mode and direction share one
    # levelled, reverbed source. Running them back to back lets each worker
    # compute it once however many such sources the grid has. Within that
    # stretch, jobs that differ only in mode form one group for one worker.
    shared = [a for a in AXIS_ORDER
              if a not in ("layout", "mode", "azimuth", "elevation")]
    order = (*shared, "layout", "azimuth", "elevation")  # every axis but mode

    def key(a):
        return [str(a[1][name]) for name in order]

    args.sort(key=key)
    groups = [list(group) for _, group in itertools.groupby(args, key)]
    _clear_caches()  # forked workers start empty too
    # the pool starts all its workers at once, so idle ones are never made
    workers = min(jobs, len(groups))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(_render_group, groups))
        else:
            done = [_render_group(group) for group in groups]
    finally:
        _clear_caches()
    rows = [row for group in done for row in group]
    rows.sort(key=lambda row: int(row["index"]))

    lines = [f"# schema={GRID_SCHEMA}\tseed={grid.seed}\tjobs={count}"]
    lines.append("\t".join(MANIFEST_COLUMNS))
    for row in rows:
        lines.append("\t".join(printable(row[c]) for c in MANIFEST_COLUMNS))
    mpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return DatasetReport(mpath, tuple(rows))
