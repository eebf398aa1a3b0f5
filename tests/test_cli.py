import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from binauralkit.cli import main
from binauralkit.ir_store import load_ir_set
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


@pytest.mark.parametrize("config,tracks,message", [
    ({"sample_rate": "fast"}, None, "config sample_rate must be an integer, got 'fast'"),
    ({"reverb_type": "x"}, None, "config reverb_type must be an integer, got 'x'"),
    ({}, [{"name": "a", "level": "loud"}], "track 0 level must be a number, got 'loud'"),
    ({}, [{"name": "a"}, {"name": "b", "azimuth": None}],
     "track 1 azimuth must be a number, got None"),
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


def test_dataset_bad_seed_names_grid(tmp_path, data_root, capsys):
    gpath = tmp_path / "grid.json"
    axes = {"subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
            "azimuth": [0.0], "elevation": [0.0], "source": ["s.wav"]}
    gpath.write_text(json.dumps({"schema": 1, "seed": "abc", "axes": axes}))
    rc = main(["dataset", str(gpath), "--data-root", str(data_root),
               "--out", str(tmp_path / "ds")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {gpath}: seed must be an integer, got 'abc'" in captured.err


@pytest.mark.parametrize("field,message", [
    ("schema=x", "header schema must be an integer, got 'x'"),
    ("rate=abc", "header rate must be an integer, got 'abc'"),
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
    assert "error:" in captured.err
