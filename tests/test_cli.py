import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from binauralkit.cli import main, parse_scene
from binauralkit.errors import BinauralKitError, FormatError
from binauralkit.ir_store import DEFAULT_IMPORT_PATTERN, load_ir_set
from binauralkit.mixer import MixConfig
from binauralkit.wavio import read_wav, write_wav

pytestmark = pytest.mark.filterwarnings("ignore:mix peak")


def _scene(tmp_path, noise_wav, config=None, tracks=None):
    cfg = {"subject": "SYN1", "sample_rate": 48000}
    cfg.update(config or {})
    scene = {
        "schema": 1,
        "config": cfg,
        "tracks": tracks
        or [
            {"name": "a", "file": str(noise_wav), "azimuth": 30.0},
            {"name": "b", "file": str(noise_wav), "azimuth": 300.0,
             "elevation": 40.0, "level": 0.5},
        ],
    }
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scene))
    return p


def test_mix_writes_wav_and_prints_plans(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(tmp_path, noise_wav)
    out = tmp_path / "mix.wav"
    rc = main(["mix", str(scene), "--data-root", str(data_root), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert out.is_file()
    rate, samples = read_wav(out)
    assert rate == 48000 and samples.shape[1] == 2
    assert "track 'a': mode=" in captured.out
    assert "track 'b': mode=" in captured.out
    assert "weight=" in captured.out
    assert f"wrote {out}" in captured.out
    assert "peak" in captured.out


def test_mix_normalize_override(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(tmp_path, noise_wav)
    out = tmp_path / "norm.wav"
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(out), "--normalize", "peak", "--float32"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "peak 1.0000" in captured.out
    _, samples = read_wav(out)
    assert float(np.max(np.abs(samples))) == pytest.approx(1.0, abs=1e-7)


def test_mix_unknown_layout_lists_names(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(tmp_path, noise_wav, config={"layout": "6.1"})
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "5.1, 5.1.2, 5.1.4, 7.1, 7.1.2, 7.1.4, 9.1, 9.1.2, 9.1.4" in captured.err


def test_mix_missing_track_file(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(
        tmp_path, noise_wav,
        tracks=[{"name": "a", "file": "gone.wav"}],
    )
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "gone.wav" in captured.err


def _nan_wav(path, channels):
    x = np.full((64, channels), 0.1)
    x[40, channels - 1] = np.nan
    write_wav(path, 48000, x, "float32")
    return path


@pytest.mark.parametrize("empty", [False, True])
def test_mix_error_names_unusable_track_file(tmp_path, data_root, noise_wav, capsys,
                                             empty_wav, empty):
    bad = tmp_path / "bad.wav"
    if empty:
        empty_wav(bad, channels=1)
        message = "audio buffer is empty"
    else:
        _nan_wav(bad, channels=1)
        message = "audio buffer contains non-finite samples"
    scene = _scene(tmp_path, noise_wav, tracks=[
        {"name": "a", "file": str(noise_wav)}, {"name": "b", "file": str(bad)},
    ])
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {bad}: {message}\n"


def test_render_surround_error_names_non_finite_input(tmp_path, data_root, capsys):
    src = _nan_wav(tmp_path / "six.wav", channels=6)
    rc = main([
        "render-surround", str(src),
        "--input-layout", "5.1", "--output-layout", "7.1.4",
        "--data-root", str(data_root), "--subject", "RING5",
        "--rate", "48000", "-o", str(tmp_path / "o.wav"),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {src}: audio buffer contains non-finite samples\n"


def test_mix_rejects_nan_track_level(tmp_path, data_root, noise_wav, capsys):
    # json reads NaN; the track fails instead of rendering at full level
    scene = _scene(tmp_path, noise_wav, tracks=[
        {"name": "a", "file": str(noise_wav), "level": float("nan")},
    ])
    assert "NaN" in scene.read_text()
    out = tmp_path / "x.wav"
    rc = main(["mix", str(scene), "--data-root", str(data_root), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "track 'a': level is NaN" in captured.err
    assert not out.exists()


def test_mix_rejects_unknown_scene_keys(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(tmp_path, noise_wav, config={"loudness": -14})
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown config keys: loudness" in captured.err


@pytest.mark.parametrize("scene,message", [
    ({"schema": 1, "config": [], "tracks": []}, "missing config object"),
    ({"schema": 1, "config": {"subject": "SYN1", "sample_rate": 48000}, "tracks": ["a.wav"]},
     "track 0 must be an object"),
])
def test_parse_scene_rejects_non_object_config_or_track(tmp_path, scene, message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    with pytest.raises(FormatError) as e:
        parse_scene(path)
    assert str(e.value) == f"{path}: {message}"


def test_mix_error_from_the_scene_names_the_scene(tmp_path, data_root, noise_wav, capsys):
    # three_point over 7.1.4, whose speakers cover no direction below the
    # horizon: the mix fails naming the scene file that asked for it
    scene = _scene(tmp_path, noise_wav, config={"mode": "three_point", "layout": "7.1.4"},
                   tracks=[{"name": "a", "file": str(noise_wav), "elevation": -60}])
    out = tmp_path / "x.wav"
    rc = main(["mix", str(scene), "--data-root", str(data_root), "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {scene}: no enclosing triangle for direction (0.0000, -60.0000) "
        "in any projection frame\n")
    assert not out.exists()


@pytest.mark.parametrize("config,tracks,message", [
    ({"sample_rate": "fast"}, None, "config sample_rate must be an integer, got 'fast'"),
    ({"reverb_type": "x"}, None, "config reverb_type must be an integer, got 'x'"),
    ({}, [{"name": "a", "level": "loud"}], "track 0 level must be a number, got 'loud'"),
    ({}, [{"name": "a"}, {"name": "b", "azimuth": None}],
     "track 1 azimuth must be a number, got None"),
    # int() would truncate these to Office and 48000
    ({"reverb_type": 2.9}, None, "config reverb_type must be an integer, got 2.9"),
    ({"sample_rate": 48000.5}, None,
     "config sample_rate must be an integer, got 48000.5"),
    ({"reverb_type": True}, None, "config reverb_type must be an integer, got True"),
    ({}, [{"name": "a", "level": False}], "track 0 level must be a number, got False"),
    ({"keep_tail": "false"}, None, "config keep_tail must be true or false, got 'false'"),
    ({"keep_tail": 0}, None, "config keep_tail must be true or false, got 0"),
    ({"normalize": 5}, None, "config normalize must be one of ('off', 'peak'), got 5"),
    ({"mode": "fastest"}, None, "config mode: unknown interpolation mode 'fastest'"),
    ({"layout": "22.2"}, None, "config layout: unsupported layout '22.2'"),
    ({"layout": 5}, None, "config layout: unsupported layout 5"),
    ({"ir_type": 5}, None, "config ir_type: unknown IR type 5; expected HRIR or BRIR"),
    ({"reverb_type": 7}, None, "config reverb_type must be one of [1, 2, 3, 4], got 7"),
])
def test_mix_bad_scene_value_names_file_and_key(tmp_path, data_root, noise_wav, capsys,
                                               config, tracks, message):
    tracks = [{**t, "file": str(noise_wav)} for t in tracks] if tracks else None
    scene = _scene(tmp_path, noise_wav, config=config, tracks=tracks)
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {scene}: {message}" in captured.err


# one bad value per mix setting: its scene key (also its grid axis, if any),
# its MixConfig field, the value, and whether a grid row can carry it
@pytest.mark.parametrize("key,field,value,in_grid", [
    ("sample_rate", "sample_rate_hz", "fast", True),
    ("ir_type", "ir_type", "hrtf", False),  # a row fails first in job_filename
    ("layout", "speaker_layout", "22.2", True),
    ("mode", "interpolation_mode", "fastest", True),
    ("reverb_type", "reverb_type", 7, True),
    ("keep_tail", "keep_tail", 0, False),
    ("normalize", "normalize", "loud", False),
])
def test_scene_grid_and_config_name_a_bad_setting_alike(tmp_path, data_root, noise_wav,
                                                       capsys, key, field, value,
                                                       in_grid):
    with pytest.raises(BinauralKitError) as e:
        MixConfig(**{"subject_id": "SYN1", "sample_rate_hz": 48000, field: value})
    body = str(e.value)
    assert body.startswith(key) and repr(value) in body

    scene = _scene(tmp_path, noise_wav, config={key: value})
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {scene}: config {body}\n"

    if in_grid:
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps({"schema": 1, "axes": {
            "subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
            "azimuth": [0.0], "elevation": [0.0], "source": [str(noise_wav)],
            key: [value]}}))
        rc = main(["dataset", str(gpath), "--data-root", str(data_root),
                   "--out", str(tmp_path / "ds")])
        assert rc == 1
        assert capsys.readouterr().err == f"job 0 failed: {body}\n"


@pytest.mark.parametrize("file", [5, None, ["a.wav"]])
def test_mix_track_file_must_be_a_string(tmp_path, data_root, noise_wav, capsys, file):
    scene = _scene(tmp_path, noise_wav, tracks=[
        {"name": "a", "file": str(noise_wav)}, {"name": "b", "file": file}])
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "x.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {scene}: track 1 file must be a string, got {file!r}" in captured.err


def test_dataset_bad_seed_names_grid(tmp_path, data_root, capsys):
    gpath = tmp_path / "grid.json"
    axes = {"subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
            "azimuth": [0.0], "elevation": [0.0], "source": ["s.wav"]}
    # int() would run 3.9 as seed 3
    for i, seed in enumerate(["abc", 3.9, True]):
        gpath.write_text(json.dumps({"schema": 1, "seed": seed, "axes": axes}))
        rc = main(["dataset", str(gpath), "--data-root", str(data_root),
                   "--out", str(tmp_path / f"ds{i}")])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error: {gpath}: seed must be an integer, got {seed!r}" in captured.err


def test_mix_integral_float_rate_and_keep_tail_false(tmp_path, data_root, noise_wav,
                                                     capsys):
    scene = _scene(tmp_path, noise_wav, config={"sample_rate": 48000.0,
                                                "reverb_type": 2.0,
                                                "keep_tail": False})
    out = tmp_path / "mix.wav"
    rc = main(["mix", str(scene), "--data-root", str(data_root), "-o", str(out)])
    assert rc == 0, capsys.readouterr().err
    rate, samples = read_wav(out)
    assert rate == 48000 and len(samples) == len(read_wav(noise_wav)[1])


@pytest.mark.parametrize("argv", [
    ["synth-irs", "--distribution", "ring_az_step", "--elevations", "0,x"],
    ["triangulate", "--az", "0", "--el", "0", "--distribution", "ring",
     "--elevations", "0,a"],
])
def test_bad_elevations_option_is_an_error_line(tmp_path, capsys, argv):
    if argv[0] == "synth-irs":
        argv = argv + ["--dest", str(tmp_path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    bad = argv[argv.index("--elevations") + 1].split(",")[1]
    assert f"error: --elevations value must be a number, got {bad!r}" in captured.err
    assert not (tmp_path / "SYN1").exists()


@pytest.mark.parametrize("field,message", [
    ("schema=x", "header schema must be an integer, got 'x'"),
    ("rate=abc", "header rate must be an integer, got 'abc'"),
    ("rate=12345", "unsupported sample rate 12345; expected one of (44100, 48000, 96000)"),
    ("rate=44100", "header rate 44100 does not match the set's rate 48000"),
    ("subject=OTHER", "header subject OTHER does not match the set's subject HDR"),
    ("ir_type=BRIR", "header ir_type BRIR does not match the set's ir_type HRIR"),
    ("ir_type=XYZ", "unknown IR type 'XYZ'; expected HRIR or BRIR"),
])
def test_bad_manifest_header_names_manifest(tmp_path, capsys, field, message):
    assert main(["synth-irs", "--dest", str(tmp_path), "--length", "32",
                 "--subject", "HDR"]) == 0
    mpath = tmp_path / "HDR" / "HRIR" / "48000" / "manifest.tsv"
    lines = mpath.read_text().splitlines()
    key = field.split("=")[0]
    lines[0] = "\t".join(field if part.startswith(key + "=") else part
                         for part in lines[0].split("\t"))
    mpath.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["triangulate", "--az", "0", "--el", "0", "--subject", "HDR",
               "--data-root", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {mpath}: {message}" in captured.err


def test_render_surround_channel_count_error(tmp_path, data_root, capsys):
    rng = np.random.default_rng(41)
    src = tmp_path / "six.wav"
    write_wav(src, 48000, 0.1 * rng.standard_normal((64, 6)), "float32")
    rc = main([
        "render-surround", str(src),
        "--input-layout", "7.1", "--output-layout", "7.1",
        "--data-root", str(data_root), "--subject", "RING5",
        "--rate", "48000", "-o", str(tmp_path / "o.wav"),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "expected 8, got 6" in captured.err


def test_render_surround_cross_layout(tmp_path, data_root, capsys):
    rng = np.random.default_rng(42)
    src = tmp_path / "six.wav"
    write_wav(src, 48000, 0.1 * rng.standard_normal((128, 6)), "float32")
    out = tmp_path / "bin.wav"
    rc = main([
        "render-surround", str(src),
        "--input-layout", "5.1", "--output-layout", "7.1.4",
        "--data-root", str(data_root), "--subject", "RING5",
        "--rate", "48000", "-o", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert out.is_file()
    for label in ("L", "R", "C", "Ls", "Rs"):
        assert f"channel {label}: mode=" in captured.out
    _, samples = read_wav(out)
    assert samples.shape[1] == 2


def test_dataset_roundtrip_and_failure_exit(tmp_path, data_root, noise_wav, capsys):
    grid = {
        "schema": 1,
        "seed": 7,
        "axes": {
            "subject": ["SYN1"],
            "ir_type": ["hrir"],
            "sample_rate": [48000],
            "azimuth": [0.0, 90.0],
            "elevation": [0.0],
            "source": [str(noise_wav)],
        },
    }
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid))
    out = tmp_path / "ds"
    rc = main(["dataset", str(gpath), "--data-root", str(data_root),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "grid expands to 2 jobs (seed 7)" in captured.out
    assert "wrote 2/2 files" in captured.out
    assert (out / "manifest.tsv").is_file()
    wavs = list(out.glob("*.wav"))
    assert len(wavs) == 2

    grid["axes"]["subject"] = ["SYN1", "GHOST"]
    gpath.write_text(json.dumps(grid))
    rc = main(["dataset", str(gpath), "--data-root", str(data_root),
               "--out", str(tmp_path / "ds2")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "failed" in captured.err
    assert "wrote 2/4 files" in captured.out


@pytest.mark.parametrize("layout", [None, "7.1.4"])
def test_one_track_mix_equals_its_dataset_row(tmp_path, layout):
    # a dry 2,400-sample source under 4,800-tap BRIRs: shorter than its IR
    data = tmp_path / "data"
    assert main(["synth-irs", "--dest", str(data), "--ir-type", "BRIR",
                 "--length", "4800", "--seed", "7"]) == 0
    src = tmp_path / "src.wav"
    write_wav(src, 48000, 0.1 * np.random.default_rng(3).standard_normal(2400), "float32")
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "schema": 1,
        "config": {"subject": "SYN1", "sample_rate": 48000, "ir_type": "BRIR",
                   "layout": layout},
        "tracks": [{"name": "a", "file": str(src), "level": 0.8,
                    "azimuth": 62, "elevation": 10}],
    }))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": 1, "seed": 0, "axes": {
        "subject": ["SYN1"], "ir_type": ["BRIR"], "sample_rate": [48000],
        "layout": [layout], "azimuth": [62], "elevation": [10], "level": [0.8],
        "source": [str(src)]}}))
    for enc in ([], ["--float32"]):
        ds = tmp_path / f"ds{len(enc)}"
        assert main(["mix", str(scene), "--data-root", str(data), "-o",
                     str(tmp_path / "mix.wav"), *enc]) == 0
        assert main(["dataset", str(grid), "--data-root", str(data), "--out",
                     str(ds), *enc]) == 0
        (row,) = ds.glob("*.wav")
        assert row.read_bytes() == (tmp_path / "mix.wav").read_bytes()


def test_triangulate_distribution_with_plot(tmp_path, capsys):
    svg = tmp_path / "tri.svg"
    rc = main(["triangulate", "--az", "101", "--el", "8",
               "--distribution", "lebedev50", "--plot", str(svg)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "source: lebedev50 (50 points" in captured.out
    assert "query: (101, 8)" in captured.out
    assert "weight sum: 1.000000000" in captured.out
    assert captured.out.count("  point ") == 3
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    classes = [e.get("class") for e in root.iter() if e.get("class")]
    assert "enclosing" in classes and "query" in classes


def test_triangulate_plots_the_rotated_frame_that_holds_the_query(tmp_path, capsys):
    svg = tmp_path / "p.svg"
    rc = main(["triangulate", "--az", "350", "--el", "20",
               "--distribution", "lebedev50", "--plot", str(svg)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "rotation: azimuth_180=True elevation_rotated=False\n" in captured.out
    (caption,) = (e.text for e in ET.fromstring(svg.read_text()).iter()
                  if e.get("class") == "caption")
    assert caption == "lebedev50 | query (350, 20) | frame az180=True elrot=False"


def test_triangulate_builds_the_triangulation_once(monkeypatch, capsys):
    import binauralkit.cli as cli
    import binauralkit.geometry as geometry

    calls = []
    real = geometry.build_triangulation

    def counting(dirs):
        calls.append(len(dirs))
        return real(dirs)

    # the CLI's own binding, and the one PointIndex looks up
    monkeypatch.setattr(cli, "build_triangulation", counting)
    monkeypatch.setattr(geometry, "build_triangulation", counting)
    rc = main(["triangulate", "--az", "101", "--el", "8", "--distribution", "lebedev50"])
    assert rc == 0, capsys.readouterr().err
    assert calls == [50]


def test_triangulate_layout_snaps_to_speaker(capsys):
    rc = main(["triangulate", "--az", "30", "--el", "0", "--layout", "7.1.4"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "[L]" in captured.out
    assert "weight=1.000000" in captured.out
    assert "mode=nearest" in captured.out


def test_triangulate_requires_one_source(capsys):
    rc = main(["triangulate", "--az", "0", "--el", "0",
               "--layout", "5.1", "--distribution", "lebedev50"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "choose exactly one" in captured.err


def test_triangulate_subject_needs_data_root(capsys):
    rc = main(["triangulate", "--az", "0", "--el", "0", "--subject", "SYN1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --subject needs --data-root\n"


def test_triangulate_uncovered_direction_fails(capsys):
    rc = main(["triangulate", "--az", "0", "--el", "-85", "--layout", "7.1.4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_layouts_table(capsys):
    rc = main(["layouts", "7.1"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "7.1 (8 channels)"
    assert len(lines) == 9
    assert lines[1].split("\t") == ["  0", "L", "30", "0"]
    lfe = [l for l in lines if "\tLFE\t" in l]
    assert lfe and lfe[0].split("\t")[2:] == ["", ""]

    rc = main(["layouts"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.count("channels)") == 9


def test_synth_irs_then_loadable(tmp_path, capsys):
    rc = main(["synth-irs", "--dest", str(tmp_path), "--seed", "3",
               "--length", "64", "--subject", "CLI1"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "synthesized 50 IRs ->" in captured.out
    ir_set = load_ir_set(tmp_path, "CLI1", "HRIR", 48000)
    assert len(ir_set.points) == 50


def test_synth_irs_refuses_a_subject_that_is_not_printable(tmp_path, capsys):
    dest = tmp_path / "data"
    rc = main(["synth-irs", "--dest", str(dest), "--length", "32", "--subject", "A\tB"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {dest}: subject 'A\\tB' must be printable\n"
    assert not dest.exists()


def test_synth_irs_ring_with_pole_then_loadable(tmp_path, capsys):
    rc = main(["synth-irs", "--dest", str(tmp_path), "--length", "64",
               "--distribution", "ring_az_step", "--step", "30",
               "--elevations", "0,45,90", "--subject", "POLE"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    ir_set = load_ir_set(tmp_path, "POLE", "HRIR", 48000)
    assert len(ir_set.points) == 25


def test_triangulate_pole_ring_names_distinct_points(capsys, recwarn):
    rc = main(["triangulate", "--az", "100", "--el", "20", "--distribution", "ring",
               "--step", "45", "--elevations=90,0,-45"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert not [w for w in recwarn if "merged" in str(w.message)]
    points = [line for line in captured.out.splitlines() if line.startswith("  point ")]
    assert len(points) == 3
    assert sum("el=90" in line for line in points) <= 1


def test_import_sadie_cli(tmp_path, capsys):
    src = tmp_path / "measured"
    src.mkdir()
    rng = np.random.default_rng(43)
    for az, el in ((0, 0), (90, 0), (180, 0), (270, 0), (0, 45)):
        write_wav(src / f"azi_{az}_ele_{el}.wav", 48000,
                  0.1 * rng.standard_normal((64, 2)), "float32")
    dest = tmp_path / "root"
    rc = main(["import-sadie", "--source", str(src), "--dest", str(dest),
               "--subject", "D1", "--rate", "48000"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "imported 5 IRs ->" in captured.out
    ir_set = load_ir_set(dest, "D1", "HRIR", 48000)
    assert len(ir_set.points) == 5

    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["import-sadie", "--source", str(empty), "--dest", str(dest),
               "--subject", "D2", "--rate", "48000"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        f"error: {empty}: an IR set needs at least 3 usable IR files, got 0 "
        f"(pattern {DEFAULT_IMPORT_PATTERN!r}, 0 skipped)\n")
    assert not (dest / "D2").exists()


@pytest.mark.parametrize("rows", [2, 0])
def test_mix_set_wide_load_error_names_manifest(tmp_path, noise_wav, capsys, rows):
    assert main(["synth-irs", "--dest", str(tmp_path), "--length", "32"]) == 0
    mpath = tmp_path / "SYN1" / "HRIR" / "48000" / "manifest.tsv"
    lines = mpath.read_text().splitlines()
    mpath.write_text("\n".join(lines[:1 + rows]) + "\n")
    capsys.readouterr()
    rc = main(["mix", str(_scene(tmp_path, noise_wav)), "--data-root", str(tmp_path),
               "-o", str(tmp_path / "out.wav")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        f"error: {mpath}: an IR set needs at least 3 points, got {rows}\n"
    )
    assert not (tmp_path / "out.wav").exists()


def _own_data_root(root):
    """A fresh SYN1 set under ``root``, safe to corrupt; returns its manifest."""
    assert main(["synth-irs", "--dest", str(root), "--length", "32"]) == 0
    return root / "SYN1" / "HRIR" / "48000" / "manifest.tsv"


def _reverb_manifest(root, rows="1\tr1.wav\n"):
    mpath = root / "reverb" / "manifest.tsv"
    mpath.parent.mkdir(parents=True, exist_ok=True)
    write_wav(mpath.parent / "r1.wav", 48000, np.linspace(0.5, 0.0, 64), "float32")
    mpath.write_text(rows)
    return mpath


def _one_error_line(captured, where):
    """The run ended in exactly one ``error:`` line naming ``where``."""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {where}")


@pytest.mark.parametrize("kind", ["scene", "grid", "ir_manifest", "reverb_manifest"])
def test_non_utf8_document_ends_in_one_error_line(tmp_path, noise_wav, capsys, kind):
    ir_manifest = _own_data_root(tmp_path)
    reverb_manifest = _reverb_manifest(tmp_path)
    scene = _scene(tmp_path, noise_wav)
    grid = tmp_path / "grid.json"
    bad = {"scene": scene, "grid": grid, "ir_manifest": ir_manifest,
           "reverb_manifest": reverb_manifest}[kind]
    bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b"{}"))
    runs = ([["dataset", str(grid), "--out", str(tmp_path / "ds")]] if kind == "grid"
            else [["mix", str(scene), "-o", str(tmp_path / "out.wav")]])
    if kind == "ir_manifest":
        runs.append(["triangulate", "--subject", "SYN1", "--az", "10", "--el", "0"])
    capsys.readouterr()
    for argv in runs:
        rc = main([*argv, "--data-root", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        _one_error_line(captured, f"{bad} is not UTF-8 text: invalid start byte at byte 0")


@pytest.mark.parametrize("kind", ["ir_manifest", "reverb_manifest"])
def test_dataset_non_utf8_manifest_fails_every_row(tmp_path, noise_wav, capsys, kind):
    ir_manifest = _own_data_root(tmp_path)
    bad = ir_manifest if kind == "ir_manifest" else _reverb_manifest(tmp_path)
    bad.write_bytes(b"\xff" + bad.read_bytes())
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": 1, "axes": {
        "subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
        "azimuth": [0.0, 90.0], "elevation": [0.0], "source": [str(noise_wav)]}}))
    out = tmp_path / "ds"
    rc = main(["dataset", str(grid), "--data-root", str(tmp_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    assert "wrote 0/2 files" in captured.out
    lines = (out / "manifest.tsv").read_text().splitlines()[2:]
    assert len(lines) == 2
    for line in lines:
        assert f"failed\t{bad} is not UTF-8 text: invalid start byte at byte 0" in line


def test_scene_integer_past_the_digit_limit_is_an_error_line(tmp_path, data_root, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text('{"schema": 1, "config": {"subject": "SYN1", "sample_rate": '
                     + "1" * 5000 + '}, "tracks": []}')
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "out.wav")])
    assert rc == 1
    _one_error_line(capsys.readouterr(), f"{scene}: invalid JSON: Exceeds the limit")


@pytest.mark.parametrize("command", ["mix", "dataset"])
def test_json_nested_past_the_recursion_limit_is_an_error_line(tmp_path, data_root, capsys,
                                                               command):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000)
    out = ["-o", str(tmp_path / "out.wav")] if command == "mix" else ["--out", str(tmp_path / "ds")]
    rc = main([command, str(doc), "--data-root", str(data_root), *out])
    assert rc == 1
    _one_error_line(capsys.readouterr(), f"{doc}: invalid JSON: maximum recursion depth")
    assert not (tmp_path / "out.wav").exists() and not (tmp_path / "ds").exists()


def test_mix_track_file_with_a_nul_byte(tmp_path, data_root, noise_wav, capsys):
    scene = _scene(tmp_path, noise_wav, tracks=[{"name": "a", "file": "a\0.wav"}])
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "out.wav")])
    assert rc == 1
    _one_error_line(capsys.readouterr(),
                    f"cannot read {tmp_path}/a\\x00.wav: embedded null byte")


@pytest.mark.parametrize("name,shown", [("a\x1b[31mred.wav", "a\\x1b[31mred.wav"),
                                        ("a\n.wav", "a\\n.wav")])
def test_mix_error_line_escapes_control_characters(tmp_path, data_root, noise_wav, capsys,
                                                   name, shown):
    scene = _scene(tmp_path, noise_wav, tracks=[{"name": "a", "file": name}])
    rc = main(["mix", str(scene), "--data-root", str(data_root),
               "-o", str(tmp_path / "out.wav")])
    assert rc == 1
    path = f"{tmp_path}/{shown}"
    assert capsys.readouterr().err == (
        f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_ir_manifest_path_with_a_nul_byte_names_the_line(tmp_path, noise_wav, capsys):
    mpath = _own_data_root(tmp_path)
    lines = mpath.read_text().splitlines()
    az, el = (float(x) for x in lines[3].split("\t")[:2])
    lines[3] = lines[3] + "\0"
    mpath.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    # the track blends that row alone; triangulate reads every row
    scene = _scene(tmp_path, noise_wav, tracks=[
        {"name": "a", "file": str(noise_wav), "azimuth": az, "elevation": el}])
    for argv in (["mix", str(scene), "-o", str(tmp_path / "o.wav")],
                 ["triangulate", "--subject", "SYN1", "--az", "10", "--el", "0"]):
        rc = main([*argv, "--data-root", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        _one_error_line(captured, f"{mpath}:4 (")
        assert captured.err.endswith(": embedded null byte\n")


def test_dataset_nul_source_fails_its_row_alone(tmp_path, data_root, noise_wav, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": 1, "axes": {
        "subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
        "azimuth": [0.0], "elevation": [0.0], "source": ["a\0.wav", str(noise_wav)]}}))
    out = tmp_path / "ds"
    rc = main(["dataset", str(grid), "--data-root", str(data_root), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.err
    assert "wrote 1/2 files" in captured.out
    rows = (out / "manifest.tsv").read_text().splitlines()[2:]
    error = f"cannot read {tmp_path}/a\\x00.wav: embedded null byte"
    assert rows[0].endswith(f"failed\t{error}\t")
    assert captured.err == f"job 0 failed: {error}\n"
    assert "\tok\t" in rows[1]
    assert len(list(out.glob("*.wav"))) == 1


def test_dataset_row_error_escapes_control_characters(tmp_path, data_root, noise_wav,
                                                      capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"schema": 1, "axes": {
        "subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
        "azimuth": [0.0], "elevation": [0.0],
        "source": [str(noise_wav), "a\x1b[31mred.wav"]}}))
    out = tmp_path / "ds"
    rc = main(["dataset", str(grid), "--data-root", str(data_root), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    path = f"{tmp_path}/a\\x1b[31mred.wav"
    error = f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
    assert captured.err == f"job 1 failed: {error}\n"
    row = (out / "manifest.tsv").read_text().splitlines()[3]
    assert row.split("\t")[-3:] == ["failed", error, ""]


# --- IR rows read when first blended -----------------------------------------


@pytest.mark.parametrize("layout", [None, "7.1.4"])
def test_a_bad_row_outside_every_plan_leaves_mix_bytes_unchanged(
        tmp_path, noise_wav, capsys, layout):
    mpath = _own_data_root(tmp_path)
    config = {} if layout is None else {"layout": layout}
    scene = _scene(tmp_path, noise_wav, config=config)
    clean, out = tmp_path / "clean.wav", tmp_path / "out.wav"
    assert main(["mix", str(scene), "--data-root", str(tmp_path), "-o", str(clean)]) == 0
    # the south pole: no track or speaker plan reaches it
    rows = [line.split("\t") for line in mpath.read_text().splitlines()[1:]]
    k = min(range(len(rows)), key=lambda i: float(rows[i][1]))
    assert float(rows[k][1]) == -90.0
    write_wav(mpath.parent / rows[k][2], 48000, np.full((32, 2), np.nan), "float32")
    assert main(["mix", str(scene), "--data-root", str(tmp_path), "-o", str(out)]) == 0
    assert out.read_bytes() == clean.read_bytes()
    capsys.readouterr()
    # a free-field track on that row blends it, and the mix fails naming it
    pole = _scene(tmp_path, noise_wav, tracks=[
        {"name": "a", "file": str(noise_wav), "azimuth": 0.0, "elevation": -90.0}])
    assert main(["mix", str(pole), "--data-root", str(tmp_path), "-o", str(out)]) == 1
    wav = f"{mpath.parent.resolve()}/{rows[k][2]}"
    assert capsys.readouterr().err == (
        f"error: {mpath}:{k + 2} ({wav}): IR buffers contain non-finite samples\n")


def test_a_bad_row_inside_a_plan_fails_the_mix_naming_it(tmp_path, noise_wav, capsys):
    mpath = _own_data_root(tmp_path)
    rows = [line.split("\t") for line in mpath.read_text().splitlines()[1:]]
    # the default scene's first track, at azimuth 30, blends rows at azimuths 0 and 45
    k = next(i for i, (az, el, _) in enumerate(rows) if (float(az), float(el)) == (45.0, 0.0))
    wav = mpath.parent / rows[k][2]
    wav.unlink()
    capsys.readouterr()
    rc = main(["mix", str(_scene(tmp_path, noise_wav)), "--data-root", str(tmp_path),
               "-o", str(tmp_path / "out.wav")])
    assert rc == 1
    real = f"{mpath.parent.resolve()}/{rows[k][2]}"
    assert capsys.readouterr().err == (
        f"error: {mpath}:{k + 2} ({real}): cannot read {real}: "
        f"[Errno 2] No such file or directory: '{real}'\n")


def test_cold_render_surround_reads_twelve_row_files(tmp_path, monkeypatch, capsys):
    """5.1 -> 7.1.4 over 5 degree rings from -75 to 75 degrees (792 rows),
    which hold every 7.1.4 speaker: the first row, and one row per speaker."""
    import os

    from binauralkit.ir_store import save_ir_set, synthesize_ir_set

    s = synthesize_ir_set("ring_az_step", 48000, 256, seed=3, step_deg=5.0,
                          elevations=range(-75, 76, 15), subject_id="RING5")
    mpath = save_ir_set(s, tmp_path / "data")
    program = tmp_path / "p51.wav"
    write_wav(program, 48000, 0.05 * np.random.default_rng(2).standard_normal((4800, 6)),
              "float32")
    real_open = os.open
    seen = []

    def counting_open(path, *args, **kwargs):
        seen.append(os.fspath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    rc = main(["render-surround", str(program), "--input-layout", "5.1",
               "--output-layout", "7.1.4", "--data-root", str(tmp_path / "data"),
               "--subject", "RING5", "--rate", "48000", "-o", str(tmp_path / "out.wav")])
    assert rc == 0, capsys.readouterr().err
    rows = [p for p in seen if p.startswith(str(mpath.parent.resolve()))]
    assert len(rows) == len(set(rows)) == 12
