import hashlib
import json
import warnings

import numpy as np
import pytest

from binauralkit import dsp
from binauralkit.dataset import (
    AXIS_ORDER,
    MANIFEST_COLUMNS,
    DatasetGrid,
    job_filename,
    parse_grid,
    run_dataset,
)
from binauralkit.errors import FormatError, InvalidArgumentError
from binauralkit.ir_store import save_ir_set, synthesize_ir_set
from binauralkit.wavio import write_wav

# hot synthetic IRs push some renders past full scale; that path is
# exercised on purpose and the manifest records the clipped flag
pytestmark = pytest.mark.filterwarnings("ignore:mix peak")


def _write_grid(path, axes, seed=7, schema=1):
    path.write_text(json.dumps({"schema": schema, "seed": seed, "axes": axes}))
    return path


def _grid_axes(**overrides):
    axes = {
        "subject": ["SYN1"],
        "ir_type": ["hrir"],
        "sample_rate": [48000],
        "azimuth": [0.0, 90.0],
        "elevation": [0.0],
        "source": ["tone.wav"],
    }
    axes.update(overrides)
    return axes


def test_parse_grid_applies_defaults(tmp_path):
    p = _write_grid(tmp_path / "g.json", _grid_axes())
    grid = parse_grid(p)
    assert grid.seed == 7
    assert grid.base_dir == tmp_path
    assert grid.axes["layout"] == (None,)
    assert grid.axes["mode"] == ("auto",)
    assert grid.axes["level"] == (1.0,)
    assert grid.axes["reverb_amount"] == (0.0,)
    assert grid.axes["reverb_type"] == (1,)
    assert grid.job_count == 2


def test_parse_grid_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError, match="invalid JSON"):
        parse_grid(bad)

    with pytest.raises(FormatError, match="schema"):
        parse_grid(_write_grid(tmp_path / "s.json", _grid_axes(), schema=2))

    with pytest.raises(FormatError, match="unknown axes: gain"):
        parse_grid(_write_grid(tmp_path / "u.json", _grid_axes(gain=[1.0])))

    with pytest.raises(FormatError, match="non-empty"):
        parse_grid(_write_grid(tmp_path / "e.json", _grid_axes(azimuth=[])))

    missing = tmp_path / "m.json"
    missing.write_text(json.dumps({"schema": 1, "axes": _grid_axes(subject=None)}))
    with pytest.raises(FormatError):
        parse_grid(missing)


def test_parse_grid_needs_an_axes_object(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"schema": 1, "seed": 7}))
    with pytest.raises(FormatError) as e:
        parse_grid(path)
    assert str(e.value) == f"{path}: missing axes object"


def test_job_order_is_axis_order(tmp_path):
    axes = _grid_axes(azimuth=[10.0, 20.0], level=[0.5, 1.0])
    grid = parse_grid(_write_grid(tmp_path / "g.json", axes))
    jobs = list(grid.jobs())
    assert len(jobs) == 4
    assert list(jobs[0]) == list(AXIS_ORDER)
    # first job takes every axis's first value
    assert jobs[0]["azimuth"] == 10.0 and jobs[0]["level"] == 0.5
    # the latest axis in AXIS_ORDER varies fastest
    assert [(j["azimuth"], j["level"]) for j in jobs] == [
        (10.0, 0.5), (10.0, 1.0), (20.0, 0.5), (20.0, 1.0)
    ]


def test_job_filename_layout():
    values = {
        "subject": "SYN1",
        "ir_type": "hrir",
        "sample_rate": 48000,
        "layout": None,
        "mode": "auto",
        "azimuth": 7.5,
        "elevation": -30.0,
        "level": 1.0,
        "reverb_amount": 0.0,
        "reverb_type": 1,
        "source": "tone.wav",
    }
    tail = "|".join(str(values[k]) for k in AXIS_ORDER) + "|7"
    h8 = hashlib.sha1(tail.encode()).hexdigest()[:8]
    assert job_filename(values, 7) == f"SYN1_HRIR_48000_none_auto_az007.5_el-30.0_{h8}.wav"

    values["layout"] = "5.1"
    values["elevation"] = 5.0
    name = job_filename(values, 7)
    assert "_5.1_" in name and "_el+05.0_" in name

    # any parameter or seed change moves the hash, keeping names collision-free
    assert job_filename(values, 8) != name
    values["reverb_amount"] = 0.5
    assert h8 not in job_filename(values, 7)
    values["reverb_amount"] = 0.0
    values["azimuth"] = 5.04
    values["elevation"] = 5.0
    a = job_filename(values, 7)
    values["azimuth"] = 5.01  # same display precision, different job
    assert job_filename(values, 7) != a


def _run(tmp_path, data_root, noise_wav, axes=None, seed=7, **kw):
    tmp_path.mkdir(parents=True, exist_ok=True)
    grid_path = _write_grid(
        tmp_path / "grid.json", axes or _grid_axes(source=[str(noise_wav)]), seed=seed
    )
    grid = parse_grid(grid_path)
    out = tmp_path / "out"
    return grid, run_dataset(grid, data_root, out, **kw), out


def test_run_dataset_writes_files_and_manifest(tmp_path, data_root, noise_wav):
    grid, report, out = _run(tmp_path, data_root, noise_wav)
    assert report.n_failed == 0
    assert len(report.rows) == 2
    assert report.manifest_path == out / "manifest.tsv"
    lines = report.manifest_path.read_text().splitlines()
    assert lines[0] == "# schema=1\tseed=7\tjobs=2"
    assert lines[1] == "\t".join(MANIFEST_COLUMNS)
    assert len(lines) == 4
    for row in report.rows:
        assert row["status"] == "ok"
        assert (out / row["file"]).is_file()
        assert float(row["peak"]) > 0.0
        assert row["source"] == str(noise_wav)  # original string preserved
        assert row["seed"] == "7"


def test_run_dataset_relative_source(tmp_path, data_root, noise_wav):
    import shutil

    shutil.copy(noise_wav, tmp_path / "local.wav")
    grid, report, out = _run(
        tmp_path, data_root, None, axes=_grid_axes(source=["local.wav"])
    )
    assert report.n_failed == 0
    assert report.rows[0]["source"] == "local.wav"


def test_run_dataset_records_failures_and_continues(tmp_path, data_root, noise_wav):
    axes = _grid_axes(source=[str(noise_wav)], subject=["SYN1", "GHOST"])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    by_subject = {r["subject"]: r for r in report.rows}
    assert len(report.rows) == 4
    assert by_subject["SYN1"]["status"] == "ok"
    assert by_subject["GHOST"]["status"] == "failed"
    assert by_subject["GHOST"]["error"].startswith("manifest not found: ")
    assert "\n" not in by_subject["GHOST"]["error"]
    assert report.n_failed == 2
    # failed jobs leave no wav behind
    ghost = [r for r in report.rows if r["subject"] == "GHOST"]
    for row in ghost:
        assert not (out / row["file"]).is_file() or row["file"] == ""


@pytest.mark.parametrize("axis,value,message", [
    ("sample_rate", "fast", "sample_rate must be an integer, got 'fast'"),
    ("sample_rate", None, "sample_rate must be an integer, got None"),
    ("level", "loud", "level must be a number, got 'loud'"),
    ("reverb_amount", [0.5], "reverb_amount must be a number, got [0.5]"),
    ("reverb_type", "hall", "reverb_type must be an integer, got 'hall'"),
    ("azimuth", "left", "azimuth must be a number, got 'left'"),
    ("elevation", {"deg": 3}, "elevation must be a number, got {'deg': 3}"),
    ("layout", ["5.1"], "layout: unsupported layout ['5.1']; expected one of: "),
    # int() would truncate these to Theatre and 48000
    ("reverb_type", 1.7, "reverb_type must be an integer, got 1.7"),
    ("reverb_type", True, "reverb_type must be an integer, got True"),
    ("sample_rate", 48000.5, "sample_rate must be an integer, got 48000.5"),
    ("azimuth", False, "azimuth must be a number, got False"),
])
def test_run_dataset_bad_row_values_fail_their_rows(tmp_path, data_root, noise_wav,
                                                     axis, value, message):
    # a bad value is a failed row, with an error naming the axis
    axes = _grid_axes(**{"source": [str(noise_wav)], "azimuth": [0.0], axis: [value]})
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    (row,) = report.rows
    assert row["status"] == "failed"
    assert row["error"].startswith(message)


def test_run_dataset_nan_amount_fails_its_row(tmp_path, data_root, noise_wav):
    axes = _grid_axes(source=[str(noise_wav)], azimuth=[0.0],
                      reverb_amount=[float("nan"), 0.25])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    bad, good = sorted(report.rows, key=lambda r: r["reverb_amount"] != "nan")
    assert bad["status"] == "failed"
    assert bad["error"] == "track 'source': reverb is NaN"
    assert not (out / bad["file"]).exists()
    assert good["status"] == "ok"
    assert (out / good["file"]).is_file()
    assert report.n_failed == 1


def test_row_error_names_unusable_source(tmp_path, data_root, noise_wav, empty_wav):
    nan_source = tmp_path / "nan.wav"
    x = np.full(64, 0.1)
    x[10] = np.nan
    write_wav(nan_source, 48000, x, "float32")
    empty_source = empty_wav(tmp_path / "empty.wav", channels=1)
    axes = _grid_axes(source=[str(noise_wav), str(nan_source), str(empty_source)],
                      azimuth=[0.0])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert [(r["status"], r["error"]) for r in report.rows] == [
        ("ok", ""),
        ("failed", f"{nan_source}: audio buffer contains non-finite samples"),
        ("failed", f"{empty_source}: audio buffer is empty"),
    ]


def test_run_dataset_lets_internal_errors_escape(tmp_path, data_root, noise_wav,
                                                 monkeypatch):
    import binauralkit.dataset as dataset

    def broken_render(*args, **kwargs):
        raise TypeError("an internal bug")

    monkeypatch.setattr(dataset, "binaural_sum", broken_render)
    with pytest.raises(TypeError, match="an internal bug"):
        _run(tmp_path, data_root, noise_wav, jobs=1)


def test_run_dataset_write_errors_propagate(tmp_path, data_root, noise_wav,
                                            monkeypatch, capsys):
    import binauralkit.dataset as dataset
    from binauralkit.cli import main

    def full_disk(path, *args):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(dataset, "write_wav", full_disk)
    with pytest.raises(OSError, match="No space left"):
        _run(tmp_path / "api", data_root, noise_wav, jobs=1)
    assert not (tmp_path / "api" / "out" / "manifest.tsv").exists()

    gpath = _write_grid(tmp_path / "grid.json", _grid_axes(source=[str(noise_wav)]))
    rc = main(["dataset", str(gpath), "--data-root", str(data_root),
               "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert "No space left on device" in capsys.readouterr().err


def test_rerun_renders_edited_inputs(tmp_path, monkeypatch):
    # nothing a run loads outlives it: after the source, IR set and reverb
    # change on disk, a rerun in the same process renders the new files
    import binauralkit.dataset as dataset
    from binauralkit.dsp import load_audio, load_reverbs
    from binauralkit.ir_store import load_ir_set, save_ir_set, synthesize_ir_set
    from binauralkit.mixer import MixConfig, TrackObject, mix_tracks_binaural
    from binauralkit.wavio import write_wav

    root, source = tmp_path / "data", tmp_path / "src.wav"
    (root / "reverb").mkdir(parents=True)
    (root / "reverb" / "manifest.tsv").write_text("1\tr.wav\n")

    def write_inputs(seed):
        rng = np.random.default_rng(seed)
        save_ir_set(synthesize_ir_set("lebedev50", 48000, 64, seed=seed), root)
        write_wav(source, 48000, 0.25 * rng.standard_normal(2400), "float32")
        write_wav(root / "reverb" / "r.wav", 48000, 0.1 * rng.standard_normal(1200),
                  "float32")

    axes = _grid_axes(source=[str(source)], reverb_amount=[0.0, 0.4])
    write_inputs(1)
    _run(tmp_path / "first", root, source, axes=axes)
    write_inputs(2)
    grid, report, out = _run(tmp_path / "second", root, source, axes=axes)
    assert report.n_failed == 0 and len(report.rows) == 4
    ir_set = load_ir_set(root, "SYN1", "HRIR", 48000)
    reverbs = load_reverbs(root, 48000)
    for row in report.rows:
        track = TrackObject("source", load_audio(source), 1.0,
                            float(row["reverb_amount"]), float(row["azimuth"]))
        result = mix_tracks_binaural([track], MixConfig("SYN1", 48000), ir_set, reverbs)
        write_wav(tmp_path / "direct.wav", 48000, result.audio.samples, "pcm24")
        assert (tmp_path / "direct.wav").read_bytes() == (out / row["file"]).read_bytes()
    assert dsp._held == {}

    def full_disk(path, *args):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(dataset, "write_wav", full_disk)
    with pytest.raises(OSError, match="No space left"):
        _run(tmp_path / "third", root, source, axes=axes)
    assert dsp._held == {}


def test_held_values_are_bounded_per_kind(monkeypatch):
    # each kind keeps its own most recently used values, so many levelled
    # sources never push out the source audio every job reads
    monkeypatch.setattr(dsp, "_held", {})
    made = []

    def make(value):
        made.append(value)
        return value

    dsp._hold(("audio", "a"), make, "a")
    for i in range(dsp._HELD_PER_KIND):
        dsp._hold(("prepared", i), make, i)
    dsp._hold(("prepared", 0), make, 0)  # now the most recent of its kind
    dsp._hold(("prepared", "new"), make, "new")
    assert dsp._hold(("audio", "a"), make, "b") == "a"
    assert made == ["a", *range(dsp._HELD_PER_KIND), "new"]
    assert ("prepared", 1) not in dsp._held and ("prepared", 0) in dsp._held
    assert len(dsp._held) == dsp._HELD_PER_KIND + 1


def test_cache_clear_empties_the_store():
    # the benchmark's cold start finds the store's face on dsp._hold and on
    # dataset._cached_ir_set, empties it through either and checks currsize
    from binauralkit.dataset import _cached_ir_set

    for face in (_cached_ir_set, dsp._hold):
        dsp._hold(("audio", "a"), str, "a")
        assert face.cache_info().currsize == len(dsp._held) > 0
        face.cache_clear()
        assert dsp._held == {} and face.cache_info().currsize == 0


def test_run_dataset_cap(tmp_path, data_root, noise_wav, monkeypatch):
    import binauralkit.dataset as dataset

    monkeypatch.setattr(dataset, "DEFAULT_JOB_CAP", 2)
    axes = _grid_axes(source=[str(noise_wav)], azimuth=[0.0, 10.0, 20.0])
    grid_path = _write_grid(tmp_path / "grid.json", axes)
    grid = parse_grid(grid_path)
    with pytest.raises(InvalidArgumentError, match="over the cap"):
        run_dataset(grid, data_root, tmp_path / "out")
    report = run_dataset(grid, data_root, tmp_path / "out", force=True)
    assert len(report.rows) == 3


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_dataset_rejects_jobs_below_one(tmp_path, data_root, noise_wav, capsys,
                                            jobs):
    from binauralkit.cli import main

    with pytest.raises(InvalidArgumentError, match=f"jobs must be at least 1, got {jobs}"):
        _run(tmp_path, data_root, noise_wav, jobs=jobs)
    assert not (tmp_path / "out").exists()
    rc = main(["dataset", str(tmp_path / "grid.json"), "--data-root", str(data_root),
               "--out", str(tmp_path / "cli"), "--jobs", str(jobs)])
    assert rc == 1
    assert f"error: jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_run_dataset_starts_no_more_workers_than_groups(tmp_path, data_root, noise_wav,
                                                       monkeypatch):
    import binauralkit.dataset as dataset

    started = []

    class RecordingPool:  # runs the groups in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(dataset, "ProcessPoolExecutor", RecordingPool)
    # two azimuths, one elevation and one mode: two groups
    _, report, _ = _run(tmp_path / "two", data_root, noise_wav, jobs=500)
    assert started == [2]
    assert report.n_failed == 0 and len(report.rows) == 2
    _, report, _ = _run(tmp_path / "one", data_root, noise_wav, jobs=500,
                        axes=_grid_axes(source=[str(noise_wav)], azimuth=[0.0]))
    assert started == [2]  # a single group runs without a pool
    assert report.n_failed == 0


def test_run_dataset_rerun_is_byte_identical(tmp_path, data_root, noise_wav):
    axes = _grid_axes(
        source=[str(noise_wav)], azimuth=[0.0, 33.0], reverb_amount=[0.0, 0.25]
    )
    g1, r1, out1 = _run(tmp_path / "a", data_root, noise_wav, axes=axes)
    g2, r2, out2 = _run(tmp_path / "b", data_root, noise_wav, axes=axes)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and len(files1) == 5  # 4 wavs + manifest
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_numpy_axes_write_what_their_json_grid_writes(tmp_path, data_root, noise_wav):
    # numpy scalars print as np.float64(...) under repr; a manifest cell holds
    # what float() reads back, as for the JSON grid
    import dataclasses

    axes = _grid_axes(source=[str(noise_wav)], azimuth=[0.0, 30.0], elevation=[12.5],
                      level=[0.7], reverb_amount=[0.25])
    grid, report, out = _run(tmp_path / "json", data_root, noise_wav, axes=axes)
    numpy_axes = dict(grid.axes, azimuth=tuple(np.arange(0.0, 60.0, 30.0)),
                      elevation=(np.float64(12.5),), level=(np.float64(0.7),),
                      reverb_amount=(np.float64(0.25),), sample_rate=(np.int64(48000),))
    run_dataset(dataclasses.replace(grid, axes=numpy_axes), data_root, tmp_path / "np")
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "np").iterdir()) and len(names) == 3
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "np" / name).read_bytes(), name
    assert report.rows[1]["azimuth"] == "30.0"


def _mode_layout_axes(source):
    # (1.5, 0) lies within 2 degrees of a stored point and of a 7.1.4
    # speaker, so every mode snaps there; (30, 10) and (62, 0) do not
    return _grid_axes(
        source=[str(source)], mode=["auto", "three_point", "two_point", "nearest"],
        layout=[None, "7.1.4"], azimuth=[1.5, 30.0, 62.0], elevation=[0.0, 10.0],
    )


def test_run_dataset_parallel_matches_serial(tmp_path, data_root, noise_wav):
    axes = _grid_axes(source=[str(noise_wav)], azimuth=[0.0, 45.0, 90.0])
    g1, r1, out1 = _run(tmp_path / "serial", data_root, noise_wav, axes=axes, jobs=1)
    g2, r2, out2 = _run(tmp_path / "par", data_root, noise_wav, axes=axes, jobs=2)
    assert [r["file"] for r in r1.rows] == [r["file"] for r in r2.rows]
    for name in (p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mode_groups_parallel_match_serial(tmp_path, data_root, noise_wav):
    # shared renders and their copies land the same on one worker or two
    axes = _mode_layout_axes(noise_wav)
    g1, r1, out1 = _run(tmp_path / "serial", data_root, noise_wav, axes=axes, jobs=1)
    g2, r2, out2 = _run(tmp_path / "par", data_root, noise_wav, axes=axes, jobs=2)
    assert r1.rows == r2.rows and r1.n_failed == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and len(names) == 49
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mode_groups_render_each_distinct_blend_once(tmp_path, data_root, noise_wav,
                                                     monkeypatch):
    # jobs that differ only in mode share a render when their blended IRs are
    # bit-identical; every row must still equal its own direct mix
    import binauralkit.dsp as dsp
    from binauralkit.dsp import load_audio, source_ir
    from binauralkit.geometry import normalize_direction
    from binauralkit.ir_store import load_ir_set
    from binauralkit.layouts import get_layout
    from binauralkit.mixer import MixConfig, TrackObject, mix_tracks_binaural
    from binauralkit.wavio import write_wav

    real_convolve, convolved = dsp.fft_convolve, []

    def counting_convolve(x, h):
        convolved.append(h.shape)
        return real_convolve(x, h)

    monkeypatch.setattr(dsp, "fft_convolve", counting_convolve)
    axes = _mode_layout_axes(noise_wav)
    axes["mode"].insert(2, "sideways")  # a bad value fails only its own rows
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    monkeypatch.setattr(dsp, "fft_convolve", real_convolve)
    assert len(report.rows) == 2 * 5 * 3 * 2

    ir_set = load_ir_set(data_root, "SYN1", "HRIR", 48000)
    blends = set()
    for row in report.rows:
        layout = None if row["layout"] == "none" else row["layout"]
        if row["mode"] == "sideways":
            with pytest.raises(InvalidArgumentError) as e:
                MixConfig("SYN1", 48000, speaker_layout=layout, interpolation_mode="sideways")
            assert (row["status"], row["error"]) == ("failed", str(e.value))
            assert not (out / row["file"]).exists()
            continue
        track = TrackObject("source", load_audio(noise_wav), 1.0, 0.0,
                            float(row["azimuth"]), float(row["elevation"]))
        cfg = MixConfig("SYN1", 48000, speaker_layout=layout,
                        interpolation_mode=row["mode"])
        result = mix_tracks_binaural([track], cfg, ir_set)
        direct = tmp_path / "direct.wav"
        write_wav(direct, 48000, result.audio.samples, "pcm24")
        assert row["status"] == "ok", row["error"]
        assert direct.read_bytes() == (out / row["file"]).read_bytes(), row["file"]
        assert row["peak"] == f"{result.peak_level:.8g}"
        assert row["clipped"] == ("1" if result.clipped else "0")
        _, ir = source_ir(normalize_direction(track.azimuth_deg, track.elevation_deg),
                          ir_set, row["mode"], layout and get_layout(layout))
        group = (row["layout"], row["azimuth"], row["elevation"])
        blends.add((group, ir.left.tobytes(), ir.right.tobytes()))
    # one stereo convolution per distinct blend in each group; some groups
    # share (the snapped direction), others render several blends
    assert convolved == [(128, 2)] * len(blends)
    assert len({b[0] for b in blends}) < len(blends) < 2 * 4 * 3 * 2


def test_a_shared_render_that_cannot_be_written_fails_every_row(tmp_path, data_root):
    # auto and nearest at a stored point blend the same IR and share one
    # render; a source near float32's limit renders past it, so the one
    # write fails and every row sharing it records that failure
    loud = tmp_path / "loud.wav"
    write_wav(loud, 48000, np.full(64, 3e38), "float32")
    axes = _grid_axes(source=[str(loud)], mode=["auto", "nearest"], azimuth=[90.0])
    grid, report, out = _run(tmp_path, data_root, None, axes=axes, encoding="float32")
    first = out / report.rows[0]["file"]
    assert [(r["status"], r["error"]) for r in report.rows] == [
        ("failed", f"{first}: a finite sample is beyond float32's range")] * 2
    assert not list(out.glob("*.wav"))


def test_each_job_is_planned_once(tmp_path, data_root, noise_wav, monkeypatch):
    # the group renders the blend source_ir made; nothing plans it again
    import binauralkit.dsp as dsp

    real_plan, planned = dsp.plan, []

    def counting_plan(ir_set, direction, mode, *args):
        planned.append(str(mode))
        return real_plan(ir_set, direction, mode, *args)

    monkeypatch.setattr(dsp, "plan", counting_plan)
    axes = _grid_axes(source=[str(noise_wav)], azimuth=[10.0, 33.3],
                      mode=["auto", "three_point", "nearest"])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert report.n_failed == 0
    assert len(planned) == len(report.rows) == 6


def test_killed_rerun_leaves_no_manifest(tmp_path, data_root, noise_wav, monkeypatch):
    # a rerun into the same directory drops the earlier manifest before its
    # first WAV, so a run stopped part way never looks complete
    import binauralkit.dataset as dataset

    axes = _grid_axes(source=[str(noise_wav)], azimuth=[0.0, 33.0, 90.0, 120.0])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert report.manifest_path.is_file() and report.n_failed == 0
    real_write, writes = dataset.write_wav, []

    def failing_third_write(path, *args):
        writes.append(path)
        if len(writes) == 3:
            raise OSError(28, "No space left on device", str(path))
        return real_write(path, *args)

    monkeypatch.setattr(dataset, "write_wav", failing_third_write)
    with pytest.raises(OSError, match="No space left"):
        run_dataset(grid, data_root, out)
    assert len(writes) == 3
    assert not (out / "manifest.tsv").exists()


def test_manifest_rows_re_render_byte_exactly(tmp_path, data_root, noise_wav):
    # a manifest row carries everything needed to rebuild its WAV
    from binauralkit.dsp import load_audio, load_reverbs
    from binauralkit.ir_store import load_ir_set
    from binauralkit.mixer import MixConfig, TrackObject, mix_tracks_binaural
    from binauralkit.wavio import write_wav

    axes = _grid_axes(
        source=[str(noise_wav)], azimuth=[12.3456789], level=[0.7],
        reverb_amount=[0.25], reverb_type=[3],
    )
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert report.n_failed == 0
    row = report.rows[0]

    rate = int(row["sample_rate"])
    track = TrackObject(
        "source",
        load_audio(row["source"]),
        level=float(row["level"]),
        reverb=float(row["reverb_amount"]),
        azimuth_deg=float(row["azimuth"]),
        elevation_deg=float(row["elevation"]),
    )
    cfg = MixConfig(
        subject_id=row["subject"],
        sample_rate_hz=rate,
        ir_type=row["ir_type"],
        speaker_layout=None if row["layout"] == "none" else row["layout"],
        interpolation_mode=row["mode"],
        reverb_type=int(row["reverb_type"]),
    )
    ir_set = load_ir_set(data_root, cfg.subject_id, cfg.ir_type, rate)
    result = mix_tracks_binaural([track], cfg, ir_set, load_reverbs(data_root, rate))
    again = tmp_path / "again.wav"
    write_wav(again, rate, result.audio.samples, "pcm24")
    assert again.read_bytes() == (out / row["file"]).read_bytes()


def test_shared_reverb_renders_match_direct_mixes(tmp_path, data_root, noise_wav,
                                                  monkeypatch):
    # jobs that differ only in direction share one levelled, reverbed source;
    # every WAV must still equal a direct mix of its row with nothing cached
    import binauralkit.mixer as mixer
    from binauralkit.dsp import load_audio, load_reverbs
    from binauralkit.ir_store import load_ir_set
    from binauralkit.mixer import MixConfig, TrackObject, mix_tracks_binaural
    from binauralkit.wavio import read_wav, write_wav

    mixer_apply_reverb = mixer.apply_reverb
    reverb_calls = []

    def counting_reverb(signal, model, amount):
        reverb_calls.append((model.id, amount))
        return mixer_apply_reverb(signal, model, amount)

    monkeypatch.setattr(mixer, "apply_reverb", counting_reverb)
    # 9 distinct (level, amount) sources, more than the cache holds, and
    # grid order iterates them inside each direction
    axes = _grid_axes(
        source=[str(noise_wav)], azimuth=[0.0, 90.0], level=[0.25, 0.5, 1.0, 1.5],
        reverb_amount=[0.0, 0.3, 0.6], reverb_type=[2, 9],
    )
    with pytest.warns(UserWarning, match="level 1.5 outside"):
        grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert [r["index"] for r in report.rows] == [str(i) for i in range(48)]
    # level 1.5 clamps to 1.0: 3 levels x 2 wet amounts of Office, once each
    assert sorted(reverb_calls) == [(2, 0.3)] * 3 + [(2, 0.6)] * 3

    monkeypatch.setattr(mixer, "apply_reverb", mixer_apply_reverb)
    ir_set = load_ir_set(data_root, "SYN1", "HRIR", 48000)
    n_ok = 0
    for row in report.rows:
        if row["reverb_type"] == "9":
            assert row["status"] == "failed"
            assert row["error"] == "reverb_type must be one of [1, 2, 3, 4], got 9"
            continue
        assert row["status"] == "ok", row["error"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the level 1.5 clamp
            track = TrackObject(
                "source", load_audio(row["source"]), float(row["level"]),
                float(row["reverb_amount"]), float(row["azimuth"]),
                float(row["elevation"]),
            )
        cfg = MixConfig(subject_id="SYN1", sample_rate_hz=48000,
                        reverb_type=int(row["reverb_type"]))
        result = mix_tracks_binaural([track], cfg, ir_set, load_reverbs(data_root, 48000))
        direct = tmp_path / "direct.wav"
        write_wav(direct, 48000, result.audio.samples, "pcm24")
        assert direct.read_bytes() == (out / row["file"]).read_bytes(), row["file"]
        if row["reverb_amount"] == "0.0":
            # dry jobs keep their natural length: source plus HRIR tail only
            _, samples = read_wav(out / row["file"])
            n = load_audio(row["source"]).n_samples + ir_set.points[0].ir_length - 1
            assert len(samples) == n
        n_ok += 1
    assert n_ok == 24


def test_grid_job_count_property():
    grid = DatasetGrid(
        0,
        {name: (1, 2) if name in ("azimuth", "level") else (1,) for name in AXIS_ORDER},
        base_dir=None,
    )
    assert grid.job_count == 4


def test_repeated_grid_values_share_one_file(tmp_path, data_root, noise_wav, capsys):
    from binauralkit.cli import main

    axes = _grid_axes(source=[str(noise_wav)], azimuth=[30, 30, 62], mode=["auto", "auto"])
    grid_path = _write_grid(tmp_path / "grid.json", axes)
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["dataset", str(grid_path), "--data-root", str(data_root),
                   "--out", str(out), "--jobs", str(jobs)])
        assert rc == 0, capsys.readouterr().err
        outs.append(out)
    lines = (outs[0] / "manifest.tsv").read_text().splitlines()
    rows = [dict(zip(MANIFEST_COLUMNS, line.split("\t"))) for line in lines[2:]]
    assert [r["status"] for r in rows] == ["ok"] * 6
    files = {az: {r["file"] for r in rows if r["azimuth"] == az} for az in ("30", "62")}
    assert [len(f) for f in files.values()] == [1, 1]
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 3  # two WAVs and the manifest
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_nested_subjects_stay_inside_out_dir(tmp_path, noise_wav):
    # a subject holding a path separator still names one file in out_dir,
    # and one starting with a dot names no hidden file
    root = tmp_path / "data" / "root"
    subjects = ["SADIE/D1", ".hidden/SYN1"]
    for seed, subject in enumerate(subjects):
        save_ir_set(synthesize_ir_set("lebedev50", 48000, 64, seed, subject_id=subject),
                    root)
    before = set(tmp_path.rglob("*"))
    axes = _grid_axes(subject=subjects, source=[str(noise_wav)], azimuth=[30.0],
                      mode=["auto", "three_point"])
    outs = []
    for jobs in (1, 2):
        _, report, out = _run(tmp_path / f"jobs{jobs}", root, noise_wav, axes=axes,
                              jobs=jobs)
        assert [r["status"] for r in report.rows] == ["ok"] * 4
        for row in report.rows:
            assert (out / row["file"]).parent == out and (out / row["file"]).is_file()
        outs.append(out)
    made = set(tmp_path.rglob("*")) - before
    # each run's directory, its grid.json and out/, and files directly in out/
    assert all(p.parent in (tmp_path, *(o.parent for o in outs)) or
               (p.parent in outs and p.is_file()) for p in made)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 5 and not any(name.startswith(".") for name in names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_subjects_outside_the_data_root_fail_their_rows(tmp_path, noise_wav, lebedev_set):
    # a set waits where each bad subject leads, its header naming that
    # subject, yet only the SYN1 row renders
    root = tmp_path / "data" / "root"
    save_ir_set(lebedev_set, root)
    subjects = ["SYN1", "../escaped/SYN1", str(tmp_path / "abs" / "SYN1")]
    for subject, under in ((subjects[1], tmp_path / "data" / "escaped"),
                           (subjects[2], tmp_path / "abs")):
        mpath = save_ir_set(lebedev_set, under)
        mpath.write_text(mpath.read_text().replace("subject=SYN1", f"subject={subject}", 1))
    axes = _grid_axes(subject=subjects, source=[str(noise_wav)], azimuth=[30.0])
    _, report, out = _run(tmp_path / "run", root, noise_wav, axes=axes)
    assert [(r["status"], r["error"]) for r in report.rows] == [("ok", "")] + [
        ("failed", f"{root}: subject {s!r} must be a relative path with no '..' component")
        for s in subjects[1:]]
    assert [p.name for p in out.glob("*.wav")] == [report.rows[0]["file"]]


def test_job_filename_escapes_a_leading_dot():
    values = {"subject": ".hidden", "ir_type": "HRIR", "sample_rate": 48000,
              "layout": None, "mode": "auto", "azimuth": 30.0, "elevation": 0.0,
              "level": 1.0, "reverb_amount": 0.0, "reverb_type": 1, "source": "a.wav"}
    name = job_filename(values, 7)
    assert name.startswith("_hidden_HRIR_48000_none_auto_az030.0_el+00.0_")
    values["subject"] = "..x/SYN1"
    assert job_filename(values, 7).startswith("_.x_SYN1_HRIR_")


@pytest.mark.parametrize("setting,error,message", [
    ({"jobs": 1.5}, InvalidArgumentError, "jobs must be an integer, got 1.5"),
    ({"jobs": True}, InvalidArgumentError, "jobs must be an integer, got True"),
    ({"encoding": "pcm8"}, FormatError, "unknown encoding 'pcm8'"),
])
def test_run_dataset_checks_settings_before_touching_out_dir(tmp_path, data_root,
                                                            noise_wav, setting,
                                                            error, message):
    grid, _, out = _run(tmp_path, data_root, noise_wav)
    manifest = (out / "manifest.tsv").read_bytes()
    files = sorted(out.iterdir())
    with pytest.raises(error, match=message):
        run_dataset(grid, data_root, out, **setting)
    assert (out / "manifest.tsv").read_bytes() == manifest
    assert sorted(out.iterdir()) == files
    with pytest.raises(error, match=message):
        run_dataset(grid, data_root, tmp_path / "fresh", **setting)
    assert not (tmp_path / "fresh").exists()


def test_ragged_source_fails_its_row_alone(tmp_path, data_root, noise_wav, ragged_wav):
    ragged = ragged_wav(tmp_path / "ragged.wav", channels=1)
    axes = _grid_axes(source=[str(ragged), str(noise_wav)], azimuth=[0.0])
    grid, report, out = _run(tmp_path, data_root, noise_wav, axes=axes)
    assert [(r["status"], r["error"]) for r in report.rows] == [
        ("failed", f"{ragged}: data size is not a whole number of frames"),
        ("ok", ""),
    ]
    assert (out / "manifest.tsv").is_file()
    assert [p.name for p in out.glob("*.wav")] == [report.rows[1]["file"]]


def test_a_bad_ir_row_fails_only_the_jobs_that_blend_it(tmp_path, noise_wav):
    import os

    root = tmp_path / "data"
    mpath = save_ir_set(synthesize_ir_set("lebedev50", 48000, 64, seed=7), root)
    rows = [line.split("\t") for line in mpath.read_text().splitlines()[1:]]
    k = next(i for i, (az, el, _) in enumerate(rows) if (float(az), float(el)) == (90.0, 0.0))
    wav = os.path.realpath(mpath.parent / rows[k][2])
    os.unlink(wav)
    # each job snaps to its stored direction: the job at azimuth 90 alone reads row k
    grid, report, out = _run(tmp_path, root, noise_wav, jobs=1)
    assert [(r["azimuth"], r["status"]) for r in report.rows] == [("0.0", "ok"),
                                                                  ("90.0", "failed")]
    assert report.rows[1]["error"] == (
        f"{mpath}:{k + 2} ({wav}): cannot read {wav}: "
        f"[Errno 2] No such file or directory: '{wav}'")
