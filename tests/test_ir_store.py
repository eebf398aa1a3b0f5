import gc
import math
import os
import re
import shutil
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit.errors import (
    BinauralKitError,
    EmptyImportError,
    FormatError,
    InsufficientPointsError,
    InvalidArgumentError,
    NotFoundError,
)
from binauralkit import geometry, ir_store, wavio
from binauralkit.distributions import ring_grid_directions
from binauralkit.geometry import (
    MERGE_TOLERANCE_DEG,
    Direction,
    PointIndex,
    angular_distance,
    from_cartesian,
    normalize_direction,
    to_cartesian,
)
from binauralkit.ir_store import (
    IRManifest,
    IRPoint,
    IRSet,
    IRType,
    import_sadie,
    load_ir_set,
    manifest_path,
    nearest_point,
    read_manifest,
    save_ir_set,
    synthesize_ir_set,
    write_manifest,
)
from binauralkit.wavio import read_wav, write_wav


def _point(az, el, n=64, value=0.5):
    buf = np.zeros(n)
    buf[0] = value
    return IRPoint(Direction(az, el), buf, buf.copy())


# --- validation ------------------------------------------------------------


def test_ir_point_validation():
    with pytest.raises(InvalidArgumentError):
        IRPoint(Direction(0, 0), np.zeros(4), np.zeros(5))
    with pytest.raises(InvalidArgumentError):
        IRPoint(Direction(0, 0), np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(InvalidArgumentError):
        IRPoint(Direction(0, 0), np.array([]), np.array([]))
    with pytest.raises(InvalidArgumentError):
        IRPoint(Direction(0, 0), np.array([np.nan]), np.array([0.0]))


def test_ir_set_needs_three_points():
    with pytest.raises(InsufficientPointsError):
        IRSet("S", IRType.HRIR, 48000, (_point(0, 0), _point(90, 0)))


def test_ir_set_rejects_mixed_lengths_and_duplicates():
    with pytest.raises(FormatError):
        IRSet(
            "S", IRType.HRIR, 48000,
            (_point(0, 0), _point(90, 0), _point(0, 45, n=32)),
        )
    with pytest.raises(InvalidArgumentError):
        IRSet(
            "S", IRType.HRIR, 48000,
            (_point(0, 0), _point(0, 0.001), _point(0, 45)),
        )


def test_ir_set_rejects_bad_rate():
    with pytest.raises(InvalidArgumentError):
        IRSet("S", IRType.HRIR, 22050,
              (_point(0, 0), _point(90, 0), _point(0, 45)))


def test_ir_type_parse():
    assert IRType.parse("hrir") is IRType.HRIR
    assert IRType.parse("BRIR") is IRType.BRIR
    assert IRType.parse(IRType.HRIR) is IRType.HRIR
    with pytest.raises(InvalidArgumentError):
        IRType.parse("sofa")


# --- synthesis -------------------------------------------------------------


def test_synthesize_deterministic():
    a = synthesize_ir_set("lebedev50", 48000, 128, seed=7)
    b = synthesize_ir_set("lebedev50", 48000, 128, seed=7)
    assert len(a.points) == 50
    for pa, pb in zip(a.points, b.points):
        assert np.array_equal(pa.left, pb.left)
        assert np.array_equal(pa.right, pb.right)
    c = synthesize_ir_set("lebedev50", 48000, 128, seed=8)
    assert not np.array_equal(a.points[0].left, c.points[0].left)


def test_synthesize_itd_convention(lebedev_set):
    """Median-plane symmetry; left-side sources reach the left ear first."""
    def onset(buf):
        return int(np.argmax(np.abs(buf) > 0.1))

    for p in lebedev_set.points:
        az, el = p.direction.azimuth_deg, p.direction.elevation_deg
        lateral = math.sin(math.radians(az)) * math.cos(math.radians(el))
        if abs(lateral) < 1e-9:
            assert onset(p.left) == onset(p.right)
        elif lateral > 0:  # listener's left
            assert onset(p.left) < onset(p.right)
        else:
            assert onset(p.left) > onset(p.right)


def test_synthesize_validation():
    with pytest.raises(InvalidArgumentError):
        synthesize_ir_set("fibonacci", 48000, 128)
    with pytest.raises(InvalidArgumentError):
        synthesize_ir_set("lebedev50", 48000, 16)
    with pytest.raises(InvalidArgumentError):
        synthesize_ir_set("ring_az_step", 48000, 128)  # missing step/elevations


def test_synthesize_custom_directions():
    dirs = [Direction(0, 0), Direction(120, 10), Direction(240, -10)]
    s = synthesize_ir_set(dirs, 44100, 64, seed=1)
    assert [p.direction for p in s.points] == dirs


# --- manifest and round trips ------------------------------------------------


def test_manifest_path_layout(tmp_path):
    p = manifest_path(tmp_path, "D1", "hrir", 48000)
    assert p == tmp_path / "D1" / "HRIR" / "48000" / "manifest.tsv"


@pytest.mark.parametrize("subject", ["../escaped/SYN1", "..", "a/../../b", "{tmp}/abs/SYN1"])
def test_manifest_path_keeps_the_subject_under_its_root(tmp_path, lebedev_set, subject):
    root, subject = tmp_path / "root", subject.format(tmp=tmp_path)
    message = f"{root}: subject {subject!r} must be a relative path with no '..' component"
    with pytest.raises(InvalidArgumentError) as e:
        manifest_path(root, subject, "HRIR", 48000)
    assert str(e.value) == message
    ir_set = IRSet(subject, "HRIR", 48000, lebedev_set.points)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        save_ir_set(ir_set, root)
    assert list(tmp_path.rglob("*")) == []
    # nor is a set loaded from where ../escaped/SYN1 or the absolute subject lead
    save_ir_set(IRSet("escaped/SYN1", "HRIR", 48000, lebedev_set.points), tmp_path)
    save_ir_set(IRSet("SYN1", "HRIR", 48000, lebedev_set.points), tmp_path / "abs")
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        load_ir_set(root, subject, "HRIR", 48000)


@pytest.mark.parametrize("subject", ["A\tB", "A\nB", "A\x85B", "A\x1b[31mB", "../A\tB"])
def test_a_subject_that_is_not_printable_is_refused(tmp_path, lebedev_set, subject):
    # the manifest header holds the subject: a tab or a line break would
    # split it, so no writer writes such a set and no reader looks for one
    root = tmp_path / "root"
    message = f"{root}: subject {subject!r} must be printable"
    with pytest.raises(InvalidArgumentError) as e:
        manifest_path(root, subject, "HRIR", 48000)
    assert str(e.value) == message
    with pytest.raises(InvalidArgumentError) as e:
        save_ir_set(IRSet(subject, "HRIR", 48000, lebedev_set.points), root)
    assert str(e.value) == message
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(root, subject, "HRIR", 48000)
    assert str(e.value) == message
    _write_import_fixture(tmp_path / "raw", [f"azi_{az}_ele_0.wav" for az in (0, 90, 180)])
    with pytest.raises(InvalidArgumentError) as e:
        import_sadie(tmp_path / "raw", root, subject, "HRIR", 48000)
    assert str(e.value) == message
    assert not root.exists()


@pytest.mark.parametrize("subject", ["SADIE/D1", "./D1", "..D1/x"])
def test_nested_subjects_load(tmp_path, lebedev_set, subject):
    ir_set = IRSet(subject, "HRIR", 48000, lebedev_set.points)
    mpath = save_ir_set(ir_set, tmp_path)
    assert mpath == tmp_path / subject / "HRIR" / "48000" / "manifest.tsv"
    _assert_same_set(load_ir_set(tmp_path, subject, "HRIR", 48000), ir_set)


def test_manifest_round_trip(tmp_path):
    m = IRManifest(1, "D1", IRType.BRIR, 96000,
                   ((0.0, 0.0, "a.wav"), (17.548449304277629, -3.25, "b.wav")))
    path = tmp_path / "manifest.tsv"
    write_manifest(m, path)
    back = read_manifest(path)
    assert back == m


def test_save_load_round_trip_sample_exact(tmp_path, lebedev_set):
    save_ir_set(lebedev_set, tmp_path)
    loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert len(loaded.points) == 50
    for a, b in zip(lebedev_set.points, loaded.points):
        assert a.direction == b.direction
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)


def test_load_errors(tmp_path, lebedev_set):
    with pytest.raises(NotFoundError, match="SYN1"):
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = os.path.join(os.path.realpath(mpath.parent), "ir_00003.wav")
    # corrupt one referenced file: wrong channel count, then wrong rate
    for rate, samples, got in [(48000, np.zeros(16), "1 at 48000"),
                               (44100, np.zeros((16, 2)), "2 at 44100")]:
        write_wav(wav, rate, samples, "float32")
        with pytest.raises(FormatError, match="ir_00003") as e:
            load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
        assert str(e.value) == (f"{mpath}:5 ({wav}): {wav}: expected 2 channel(s) "
                                f"at sample rate 48000, got {got}")


def test_read_manifest_rejects_bad_header(tmp_path):
    p = tmp_path / "manifest.tsv"
    p.write_text("schema=2\tsubject=S\tir_type=HRIR\trate=48000\n")
    with pytest.raises(FormatError):
        read_manifest(p)
    p.write_text("subject=S\n")
    with pytest.raises(FormatError):
        read_manifest(p)


def test_dense_manifest_loads():
    """A dense golden-angle spiral (full-resolution measurement scale) stays loadable."""
    n = 8802
    golden = 180.0 * (3.0 - math.sqrt(5.0))
    z = (2 * np.arange(n) + 1) / n - 1.0
    el = np.degrees(np.arcsin(z))
    az = (golden * np.arange(n)) % 360.0
    dirs = [Direction(float(a), float(e)) for a, e in zip(az, el)]
    points = tuple(
        IRPoint(d, np.array([1.0, 0.1]), np.array([0.9, 0.2])) for d in dirs
    )
    s = IRSet("DENSE", IRType.HRIR, 48000, points)
    assert len(s.points) == n
    idx, dist = nearest_point(s, dirs[4321])
    assert idx == 4321 and dist < 1e-9


# --- nearest point -----------------------------------------------------------


def test_nearest_point_exact_and_oracle(lebedev_set):
    rng = np.random.default_rng(12)
    for i in (0, 13, 49):
        idx, dist = nearest_point(lebedev_set, lebedev_set.points[i].direction)
        assert idx == i and dist < 1e-9
    carts = np.array([to_cartesian(p.direction) for p in lebedev_set.points])
    for _ in range(300):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        from binauralkit.geometry import from_cartesian

        q = from_cartesian(v)
        idx, dist = nearest_point(lebedev_set, q)
        dists = [angular_distance(q, p.direction) for p in lebedev_set.points]
        assert idx == int(np.argmin(dists))
        assert dist == pytest.approx(min(dists), abs=1e-9)


def test_nearest_point_tie_breaks_low_index():
    s = synthesize_ir_set(
        [Direction(10, 0), Direction(350, 0), Direction(0, 45)], 48000, 64
    )
    idx, dist = nearest_point(s, Direction(0, 0))
    assert idx == 0
    assert dist == pytest.approx(10.0, abs=1e-9)


# --- import ------------------------------------------------------------------


def _write_import_fixture(src, names, rate=48000, channels=2, n=32):
    src.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(1)
    for name in names:
        data = 0.1 * rng.standard_normal((n, channels))
        write_wav(src / name, rate, data if channels > 1 else data[:, 0], "float32")


def test_import_sadie_basic(tmp_path):
    src = tmp_path / "raw"
    names = [f"azi_{az}_ele_{el}.wav" for az in (0, 45, 90) for el in (-30, 0, 30)]
    _write_import_fixture(src, names)
    manifest = import_sadie(src, tmp_path / "root", "H3", "BRIR", 48000)
    assert len(manifest.entries) == 9
    loaded = load_ir_set(tmp_path / "root", "H3", "BRIR", 48000)
    assert len(loaded.points) == 9
    dirset = {(p.direction.azimuth_deg, p.direction.elevation_deg)
              for p in loaded.points}
    assert (45.0, -30.0) in dirset


def test_import_sadie_comma_decimals_and_inclination(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(
        src, ["azi_7,5_ele_100.wav", "azi_90_ele_90.wav", "azi_180_ele_45.wav"])
    manifest = import_sadie(
        src, tmp_path / "root", "H4", "BRIR", 48000, inclination=True
    )
    # elevation = 90 - inclination; file names sort azi_180, azi_7,5, azi_90
    assert [e[:2] for e in manifest.entries] == [(180.0, 45.0), (7.5, -10.0), (90.0, 0.0)]


def test_import_sadie_skips_unparsable_with_warning(tmp_path):
    src = tmp_path / "raw"
    names = [f"azi_{az * 10}_ele_0.wav" for az in range(9)] + ["notes.wav"]
    _write_import_fixture(src, names)
    with pytest.warns(UserWarning, match="notes.wav"):
        manifest = import_sadie(src, tmp_path / "root", "H5", "HRIR", 48000)
    assert len(manifest.entries) == 9


def test_import_sadie_skips_non_numeric_captures(tmp_path):
    src = tmp_path / "raw"
    names = [f"azi_{az}_ele_0.wav" for az in (0, 90, 180)]
    _write_import_fixture(src, names + ["azi_45_ele_.wav", "azi_45_ele_up.wav",
                                        "azi_45_ele_nan.wav"])
    pattern = r"azi_(?P<azimuth>[\d,.]+)_ele_(?P<elevation>[^.]*)\.wav"
    with pytest.warns(UserWarning) as caught:
        manifest = import_sadie(src, tmp_path / "root", "H10", "HRIR", 48000, pattern)
    assert len(manifest.entries) == 3
    skipped = sorted(str(w.message) for w in caught)
    assert skipped == [
        "import: skipped azi_45_ele_.wav: angles '45', '' are not finite numbers",
        "import: skipped azi_45_ele_nan.wav: angles '45', 'nan' are not finite numbers",
        "import: skipped azi_45_ele_up.wav: angles '45', 'up' are not finite numbers",
    ]


@pytest.mark.parametrize("dest", ["link", "deep/a/b"])
def test_import_without_copying_into_a_symlinked_dest_loads(tmp_path, dest):
    # rows are relative to the resolved set directory, which load_ir_set
    # joins them to, however deep the symlink leads
    src = tmp_path / "raw"
    names = ["azi_0_ele_0.wav", "azi_90_ele_0.wav", "azi_0_ele_45.wav"]
    _write_import_fixture(src, names)
    (tmp_path / "deep" / "a" / "b").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "deep" / "a" / "b")
    manifest = import_sadie(src, tmp_path / dest, "S", "HRIR", 48000, copy_files=False)
    assert [rel for _, _, rel in manifest.entries] == [f"../../../../../../raw/{n}"
                                                       for n in sorted(names)]
    loaded = load_ir_set(tmp_path / dest, "S", "HRIR", 48000)
    for name, point in zip(sorted(names), loaded.points):
        _, samples = read_wav(src / name)
        assert np.array_equal(point.left, samples[:, 0])
        assert np.array_equal(point.right, samples[:, 1])
    assert sorted(p.name for p in (tmp_path / "deep").rglob("*") if p.is_file()) == [
        "manifest.tsv"]


def test_import_sadie_rejects_a_bad_pattern(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(src, ["azi_0_ele_0.wav"])
    with pytest.raises(re.error) as reason:
        re.compile("(")
    with pytest.raises(InvalidArgumentError) as e:
        import_sadie(src, tmp_path / "root", "H", "HRIR", 48000, "(")
    assert str(e.value) == f"bad filename pattern: {reason.value}"
    with pytest.raises(InvalidArgumentError) as e:
        import_sadie(src, tmp_path / "root", "H", "HRIR", 48000, r"azi_(\d+)")
    assert str(e.value) == "filename pattern needs named groups 'azimuth' and 'elevation'"
    assert not (tmp_path / "root").exists()


def test_import_sadie_skips_wrong_shape_files(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(src, ["azi_0_ele_0.wav", "azi_90_ele_0.wav", "azi_0_ele_45.wav"])
    _write_import_fixture(src, ["azi_180_ele_0.wav"], channels=1)
    _write_import_fixture(src, ["azi_270_ele_0.wav"], rate=44100)
    with pytest.warns(UserWarning) as caught:
        manifest = import_sadie(src, tmp_path / "root", "H6", "HRIR", 48000)
    assert len(manifest.entries) == 3
    assert [str(w.message) for w in caught] == [
        f"import: skipped azi_180_ele_0.wav: {src / 'azi_180_ele_0.wav'}: "
        "expected 2 channel(s) at sample rate 48000, got 1 at 48000",
        f"import: skipped azi_270_ele_0.wav: {src / 'azi_270_ele_0.wav'}: "
        "expected 2 channel(s) at sample rate 48000, got 2 at 44100",
    ]


def test_import_sadie_duplicate_first_wins(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(
        src, ["azi_10_ele_0.wav", "azi_10,0_ele_0.wav", "azi_20_ele_0.wav",
              "azi_0_ele_45.wav"]
    )
    with pytest.warns(UserWarning, match="duplicate"):
        manifest = import_sadie(src, tmp_path / "root", "H7", "HRIR", 48000)
    assert len(manifest.entries) == 3


def test_import_sadie_empty_errors(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(src, ["readme.wav"])
    with pytest.warns(UserWarning):
        with pytest.raises(EmptyImportError):
            import_sadie(src, tmp_path / "root", "H8", "HRIR", 48000)
    with pytest.raises(NotFoundError):
        import_sadie(tmp_path / "missing", tmp_path / "root", "H9", "HRIR", 48000)


def test_import_sadie_no_copy_references_source(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(
        src, ["azi_0_ele_0.wav", "azi_90_ele_0.wav", "azi_0_ele_45.wav"]
    )
    import_sadie(
        src, tmp_path / "root", "H10", "HRIR", 48000, copy_files=False
    )
    mdir = (tmp_path / "root" / "H10" / "HRIR" / "48000")
    assert not any(p.suffix == ".wav" for p in mdir.iterdir())
    loaded = load_ir_set(tmp_path / "root", "H10", "HRIR", 48000)
    assert len(loaded.points) == 3


def _angles(dirs):
    return sorted((d.azimuth_deg, d.elevation_deg) for d in dirs)


def test_import_dense_ring_directory_then_load(tmp_path):
    grid = ring_grid_directions(2.5, range(-80, 81, 10))
    names = [f"azi_{d.azimuth_deg!r}_ele_{d.elevation_deg!r}.wav" for d in grid]
    _write_import_fixture(tmp_path / "raw", names)
    manifest = import_sadie(tmp_path / "raw", tmp_path / "root", "D1", "HRIR", 48000,
                            copy_files=False)
    loaded = load_ir_set(tmp_path / "root", "D1", "HRIR", 48000)
    assert len(grid) == len(manifest.entries) == 2448
    assert _angles(loaded.directions) == _angles(grid)


def test_import_keeps_what_load_accepts_at_the_tolerance(tmp_path):
    """Pairs 0.01 deg +- up to 6e-11 deg apart along a ring. Import keeps
    the rows the per-row loop keeps, in file order, so the manifest it
    writes loads."""
    names = []
    for i in range(48):
        az, el = 7.5 * i + 1.25, (-60.0, -20.0, 20.0, 60.0)[i % 4]
        sep = math.radians(MERGE_TOLERANCE_DEG + (i % 25 - 12) * 5e-12)
        partner = az + math.degrees(
            2.0 * math.asin(math.sin(sep / 2) / math.cos(math.radians(el))))
        names += [f"azi_{az!r}_ele_{el!r}.wav", f"azi_{partner!r}_ele_{el!r}.wav"]
    cos_tol = math.cos(math.radians(MERGE_TOLERANCE_DEG))
    kept = []
    for name in sorted(names):
        az, el = (float(x) for x in name[4:-4].split("_ele_"))
        d = normalize_direction(az, el)
        carts = np.array([to_cartesian(k) for k in kept])
        if not kept or float(np.max(carts @ to_cartesian(d))) <= cos_tol:
            kept.append(d)
    assert 48 < len(kept) < 96
    _write_import_fixture(tmp_path / "raw", names)
    with pytest.warns(UserWarning, match="duplicate direction") as record:
        manifest = import_sadie(tmp_path / "raw", tmp_path / "root", "D2", "HRIR", 48000,
                                copy_files=False)
    assert len(record) == 96 - len(kept)
    assert [e[:2] for e in manifest.entries] == [
        (d.azimuth_deg, d.elevation_deg) for d in kept]
    loaded = load_ir_set(tmp_path / "root", "D2", "HRIR", 48000)
    assert loaded.directions == tuple(kept)


def _noise(frames, channels=2):
    return 0.1 * np.random.default_rng(frames * channels).standard_normal((frames, channels))


def _nan_noise(path):
    x = _noise(256)
    x[5, 1] = np.nan
    write_wav(path, 48000, x, "float32")


# one file added to three good 256-frame stereo files, by what is wrong with it
_ORACLE_ADDS = {
    "mono": lambda src, **_: write_wav(src / "azi_180_ele_0.wav", 48000, _noise(256, 1)),
    "44.1 kHz": lambda src, **_: write_wav(src / "azi_180_ele_0.wav", 44100, _noise(256)),
    "ragged": lambda src, ragged_wav, **_: ragged_wav(src / "azi_180_ele_0.wav", 2, 256),
    "128 frames": lambda src, **_: write_wav(src / "azi_180_ele_0.wav", 48000, _noise(128)),
    "NaN": lambda src, **_: _nan_noise(src / "azi_180_ele_0.wav"),
    "zero frames": lambda src, empty_wav, **_: empty_wav(src / "azi_180_ele_0.wav", 2),
    "tab": lambda src, **_: write_wav(src / "azi_180_ele_0\t.wav", 48000, _noise(256)),
    "newline": lambda src, **_: write_wav(src / "azi_180_ele_0\n.wav", 48000, _noise(256)),
    "NEL": lambda src, **_: write_wav(src / "azi_180_ele_0\x85.wav", 48000, _noise(256)),
    "duplicate": lambda src, **_: write_wav(src / "azi_0,0_ele_0.wav", 48000, _noise(256)),
    "two good": lambda src, **_: (src / "azi_0_ele_45.wav").unlink(),
}


@pytest.mark.parametrize("copy_files", [True, False], ids=["copy", "no-copy"])
@pytest.mark.parametrize("case", sorted(_ORACLE_ADDS))
def test_import_writes_only_sets_that_load(tmp_path, empty_wav, ragged_wav, case, copy_files):
    """Either the import fails and writes no manifest and copies no WAV, or
    the set it wrote loads with exactly the manifest's rows."""
    src, dest = tmp_path / "raw", tmp_path / "root"
    src.mkdir()
    for name in ("azi_0_ele_0.wav", "azi_90_ele_0.wav", "azi_0_ele_45.wav"):
        write_wav(src / name, 48000, _noise(256), "float32")
    _ORACLE_ADDS[case](src, empty_wav=empty_wav, ragged_wav=ragged_wav)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            manifest = import_sadie(src, dest, "S", "HRIR", 48000, copy_files=copy_files)
        except BinauralKitError:
            assert case == "two good"
            assert not [p for p in dest.rglob("*") if p.is_file()]
            return
    assert len(manifest.entries) == 3
    loaded = load_ir_set(dest, "S", "HRIR", 48000)
    assert loaded.directions == tuple(normalize_direction(az, el)
                                      for az, el, _ in manifest.entries)
    mdir = manifest_path(dest, "S", "HRIR", 48000).parent
    for irs, (_, _, rel) in zip(loaded.irs, manifest.entries):
        assert np.array_equal(irs, read_wav(mdir / rel)[1])


@pytest.mark.parametrize("char, spelled", [("\x1b", "\\x1b"), ("\n", "\\n")])
def test_import_skip_warning_spells_out_control_characters(tmp_path, char, spelled):
    bad = f"azi_180_ele_0{char}[31m.wav"
    _write_import_fixture(tmp_path / "raw", ["azi_0_ele_0.wav", "azi_90_ele_0.wav",
                                             "azi_0_ele_45.wav", bad])
    with pytest.warns(UserWarning) as caught:
        import_sadie(tmp_path / "raw", tmp_path / "root", "S", "HRIR", 48000)
    shown = bad.replace(char, spelled)
    assert [str(w.message) for w in caught] == [
        f"import: skipped {shown}: manifest path '{shown}' is not printable"]


# --- load equivalence ------------------------------------------------------


def _pcm16_grid_set():
    """A set whose samples pcm16, pcm24 and float32 all store exactly: on
    the 16-bit grid, inside [-1, 1), and without -0.0, which PCM reads back
    as +0.0."""
    s = synthesize_ir_set("lebedev50", 48000, 64, seed=21)

    def grid(x):
        return np.round(x * 0.5 * 32768) / 32768 + 0.0

    points = tuple(IRPoint(p.direction, grid(p.left), grid(p.right)) for p in s.points)
    return IRSet(s.subject_id, s.ir_type, s.sample_rate_hz, points)


def _assert_same_set(loaded, expected):
    assert loaded.subject_id == expected.subject_id
    assert loaded.directions == expected.directions
    for a, b in zip(loaded.points, expected.points):
        assert a.left.tobytes() == b.left.tobytes()
        assert a.right.tobytes() == b.right.tobytes()


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
def test_load_matches_in_memory_set(tmp_path, encoding):
    s = _pcm16_grid_set()
    save_ir_set(s, tmp_path, encoding=encoding)
    _assert_same_set(load_ir_set(tmp_path, "SYN1", "HRIR", 48000), s)


def test_load_through_symlinked_root(tmp_path):
    s = _pcm16_grid_set()
    save_ir_set(s, tmp_path / "real")
    (tmp_path / "link").symlink_to(tmp_path / "real", target_is_directory=True)
    _assert_same_set(load_ir_set(tmp_path / "link", "SYN1", "HRIR", 48000), s)


def _import_rows_with_dotdot(tmp_path, dest_root):
    src = tmp_path / "raw"
    names = [f"azi_{az}_ele_{el}.wav" for az in (0, 90, 180) for el in (-30, 30)]
    _write_import_fixture(src, names)
    manifest = import_sadie(src, dest_root, "H11", "HRIR", 48000, copy_files=False)
    assert all(rel.startswith("..") for _, _, rel in manifest.entries)
    return manifest


def _resolved_source_set(dest_root, manifest):
    """The set as read through Path.resolve() on each manifest row."""
    base = manifest_path(dest_root, "H11", "HRIR", 48000).parent
    points = []
    for az, el, rel in manifest.entries:
        _, samples = read_wav((base / rel).resolve())
        points.append(IRPoint(Direction(az, el), samples[:, 0], samples[:, 1]))
    return IRSet("H11", IRType.HRIR, 48000, tuple(points))


def test_load_import_rows_with_dotdot(tmp_path):
    manifest = _import_rows_with_dotdot(tmp_path, tmp_path / "root")
    loaded = load_ir_set(tmp_path / "root", "H11", "HRIR", 48000)
    _assert_same_set(loaded, _resolved_source_set(tmp_path / "root", manifest))


def test_load_dotdot_rows_under_symlinked_root(tmp_path):
    """``..`` in a row steps up from the real manifest directory, as the
    operating system and Path.resolve() both read it."""
    (tmp_path / "store" / "deep").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "store" / "deep",
                                   target_is_directory=True)
    # rows written for a real directory as deep as the link step out of
    # the link's target into tmp_path/store, where the sources must then be
    # found (an import into the link writes rows for its target)
    manifest = _import_rows_with_dotdot(tmp_path, tmp_path / "root")
    write_manifest(manifest, manifest_path(tmp_path / "link", "H11", "HRIR", 48000))
    (tmp_path / "raw").rename(tmp_path / "store" / "raw")
    loaded = load_ir_set(tmp_path / "link", "H11", "HRIR", 48000)
    _assert_same_set(loaded, _resolved_source_set(tmp_path / "link", manifest))


def test_load_reads_each_row_once(tmp_path, monkeypatch):
    save_ir_set(_pcm16_grid_set(), tmp_path)
    real_open = os.open
    seen = []

    def counting_open(path, *args, **kwargs):
        seen.append(os.fspath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert len(seen) == len(loaded.points) == 50
    assert len(set(seen)) == 50


def test_load_normalizes_each_direction_once(tmp_path, monkeypatch):
    s = _pcm16_grid_set()
    save_ir_set(s, tmp_path)
    seen = []

    def counting(az, el):
        seen.append((az, el))
        return normalize_direction(az, el)

    monkeypatch.setattr(geometry, "normalize_direction", counting)
    monkeypatch.setattr(ir_store, "normalize_direction", counting)
    loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    # building the index's facts normalizes nothing again
    loaded.index.cartesians, loaded.index.rings, loaded.index.columns
    assert len(seen) == len(loaded.points) == 50
    # the index holds the very directions of the points, as PointIndex makes them
    assert [repr(d) for d in loaded.index.directions] == [
        repr(d) for d in PointIndex(s.directions).directions]
    assert loaded.index.directions == loaded.directions


# --- load error messages ---------------------------------------------------


def test_load_error_names_row_for_non_finite_samples(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = mpath.parent / "ir_00003.wav"
    write_wav(wav, 48000, np.full((128, 2), np.nan), "float32")
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({os.path.realpath(wav)}): IR buffers contain non-finite samples"
    )


def test_load_error_names_row_for_length_mismatch(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = mpath.parent / "ir_00003.wav"
    write_wav(wav, 48000, np.zeros((32, 2)), "float32")
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({os.path.realpath(wav)}): "
        "IR length mismatch in set SYN1: 32 != 128"
    )


def test_load_error_names_both_rows_for_duplicates(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    lines = mpath.read_text().splitlines()
    a = lebedev_set.points[3].direction
    # row 4 repeats row 3's direction, after a blank line that shifts it
    cols = lines[5].split("\t")
    lines[5] = "\t".join([repr(a.azimuth_deg), repr(a.elevation_deg), cols[2]])
    lines.insert(5, "")
    mpath.write_text("\n".join(lines) + "\n")
    real = os.path.realpath(mpath.parent)
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({real}/ir_00003.wav) and {mpath}:7 ({real}/ir_00004.wav): "
        f"points 3 ({a.azimuth_deg}, {a.elevation_deg}) and "
        f"4 ({a.azimuth_deg}, {a.elevation_deg}) are within 0.01 degrees"
    )


def test_load_error_names_row_for_unreadable_file(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = mpath.parent / "ir_00010.wav"
    wav.unlink()
    row = f"{mpath}:12 ({os.path.realpath(wav)}): cannot read "
    with pytest.raises(FormatError, match=re.escape(row)):
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)


@pytest.mark.parametrize("k", [0, 3])
def test_load_error_names_row_for_empty_data_chunk(tmp_path, lebedev_set, empty_wav, k):
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = empty_wav(mpath.parent / f"ir_{k:05d}.wav", channels=2)
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:{k + 2} ({os.path.realpath(wav)}): "
        "IR buffers must share a nonzero length, got 0 and 0"
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_error_names_last_row_for_one_bad_right_sample(tmp_path, lebedev_set, bad):
    mpath = save_ir_set(lebedev_set, tmp_path)
    last = lebedev_set.points[-1]
    right = last.right.copy()
    right[-1] = bad
    wav = mpath.parent / "ir_00049.wav"
    write_wav(wav, 48000, np.column_stack([last.left, right]), "float32")
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:51 ({os.path.realpath(wav)}): IR buffers contain non-finite samples"
    )


def test_load_error_names_first_of_two_non_finite_rows(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    for k in (40, 12):
        p = lebedev_set.points[k]
        left = p.left.copy()
        left[5] = np.inf
        write_wav(mpath.parent / f"ir_{k:05d}.wav", 48000,
                  np.column_stack([left, p.right]), "float32")
    real = os.path.realpath(mpath.parent)
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:14 ({real}/ir_00012.wav): IR buffers contain non-finite samples"
    )


def test_load_error_names_second_row_when_first_is_odd_length(tmp_path, lebedev_set):
    # the first row sets the set's length, so the row after it is named
    mpath = save_ir_set(lebedev_set, tmp_path)
    write_wav(mpath.parent / "ir_00000.wav", 48000, np.zeros((32, 2)), "float32")
    real = os.path.realpath(mpath.parent)
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:3 ({real}/ir_00001.wav): IR length mismatch in set SYN1: 128 != 32"
    )


def test_load_error_names_row_for_each_bad_fmt_chunk(tmp_path, lebedev_set, bad_fmt_wav):
    # row 3 fails the header row 0 passed, so it is parsed on its own
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = os.path.realpath(mpath.parent / "ir_00003.wav")
    message = bad_fmt_wav(Path(wav))
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == f"{mpath}:5 ({wav}): {message}"


def test_load_error_names_row_for_a_directory(tmp_path, lebedev_set):
    mpath = save_ir_set(lebedev_set, tmp_path)
    wav = os.path.realpath(mpath.parent / "ir_00003.wav")
    os.unlink(wav)
    os.mkdir(wav)
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({wav}): cannot read {wav}: [Errno 21] Is a directory: '{wav}'"
    )


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_load_error_names_row_for_non_finite_angle(tmp_path, lebedev_set, column, angle):
    mpath = save_ir_set(lebedev_set, tmp_path)
    lines = mpath.read_text().splitlines()
    cols = lines[4].split("\t")  # row 3
    cols[column] = angle
    lines[4] = "\t".join(cols)
    mpath.write_text("\n".join(lines) + "\n")
    az, el = float(cols[0]), float(cols[1])
    with pytest.raises(InvalidArgumentError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({os.path.realpath(mpath.parent)}/ir_00003.wav): "
        f"direction ({az}, {el}) is not finite"
    )


# --- stacked load ----------------------------------------------------------


def _riff(chunks: bytes) -> bytes:
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


_PCM_GUID = struct.pack("<IHH", 1, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
# a trailing LIST chunk of 5 bytes and its pad byte, and one of 6 bytes at the
# same length, whose size field alone differs
_LIST_ODD = b"LIST" + struct.pack("<I", 5) + b"INFOa\x00"
_LIST_EVEN = b"LIST" + struct.pack("<I", 6) + b"INFOa\x00"


def _write_row(path, variant: str, samples: np.ndarray) -> None:
    """A stereo WAV of ``samples`` in one of the encodings and layouts a
    loader meets: plain float32, pcm16 or pcm24 as write_wav writes them,
    pcm24 in the extensible wrapper, float32 with a trailing LIST chunk, or
    pcm16 behind a junk chunk that brings it to pcm24's length."""
    encoding = {"extensible": "pcm24", "list_odd": "float32", "list_even": "float32",
                "junk": "pcm16"}.get(variant, variant)
    write_wav(path, 48000, samples, encoding)
    raw = path.read_bytes()
    if variant == "extensible":
        data = raw[44:]  # after write_wav's RIFF, fmt and data headers
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 2, 48000, 48000 * 6, 6, 24,
                          22, 24, 3) + _PCM_GUID
        path.write_bytes(_riff(b"fmt " + struct.pack("<I", len(fmt)) + fmt
                               + b"data" + struct.pack("<I", len(data)) + data))
    elif variant == "junk":
        junk = samples.size - 8  # pcm24 holds one byte more per sample
        path.write_bytes(_riff(raw[12:36] + b"junk" + struct.pack("<I", junk)
                               + bytes(junk) + raw[36:]))
    elif variant.startswith("list"):
        path.write_bytes(_riff(raw[12:] + (_LIST_ODD if variant == "list_odd"
                                            else _LIST_EVEN)))


_VARIANTS = ("float32", "pcm16", "pcm24", "extensible", "list_odd", "list_even", "junk")


def _write_rows(root, variants, seed=0, taps=32) -> list[str]:
    """A set SYN1 of one row per variant on the horizon; returns the real
    path of each row's WAV."""
    mpath = manifest_path(root, "SYN1", "HRIR", 48000)
    mpath.parent.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    entries = []
    for k, variant in enumerate(variants):
        _write_row(mpath.parent / f"{k}.wav", variant, 0.5 * rng.standard_normal((taps, 2)))
        entries.append((360.0 * k / len(variants), 0.0, f"{k}.wav"))
    write_manifest(IRManifest(1, "SYN1", IRType.HRIR, 48000, tuple(entries)), mpath)
    return [os.path.realpath(mpath.parent / rel) for _, _, rel in entries]


@settings(max_examples=100, deadline=None)
@given(variants=st.lists(st.sampled_from(_VARIANTS), min_size=6, max_size=16),
       block=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_shared_header_load_matches_per_row_reads(tmp_path_factory, variants, block, seed):
    """Rows whose header bytes equal row 0's share its parse and every other
    row is parsed on its own; either way the stack is what read_wav gives
    row by row, bit for bit. Blocks of ``block`` rows put rows that differ
    on both sides of block boundaries and in a last, partial block."""
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        paths = _write_rows(root, variants, seed)
        with mock.patch.object(wavio, "parse_header", wraps=wavio.parse_header) as parse, \
                mock.patch.object(ir_store, "_BLOCK_BYTES", block * os.path.getsize(paths[0])):
            loaded = load_ir_set(root, "SYN1", "HRIR", 48000)
        want = np.stack([read_wav(p)[1] for p in paths])
        assert loaded.irs.tobytes() == want.tobytes()
        # write_wav writes the same header for the same encoding and length
        parsed = [c.args[1] for c in parse.call_args_list]
        assert parsed == [p for p, v in zip(paths, variants) if p == paths[0] or v != variants[0]]
    finally:
        shutil.rmtree(root)


def test_row_with_one_more_byte_is_parsed_on_its_own(tmp_path):
    paths = _write_rows(tmp_path, ["list_odd"] * 5)
    with open(paths[3], "ab") as f:
        f.write(b"\x00")
    with mock.patch.object(wavio, "parse_header", wraps=wavio.parse_header) as parse:
        loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert [c.args[1] for c in parse.call_args_list] == [paths[0], paths[3]]
    want = np.stack([read_wav(p)[1] for p in paths])
    assert loaded.points[0].left.base.tobytes() == want.tobytes()


def test_load_error_names_row_with_one_more_byte_after_its_data(tmp_path):
    # row 3 starts and ends as row 0 does, but its LIST chunk moved a byte on
    paths = _write_rows(tmp_path, ["list_odd"] * 5)
    raw = Path(paths[3]).read_bytes()
    Path(paths[3]).write_bytes(raw[:-len(_LIST_ODD)] + b"\x00" + _LIST_ODD)
    with pytest.raises(FormatError) as want:
        read_wav(paths[3])
    assert "declares" in str(want.value)
    mpath = manifest_path(tmp_path, "SYN1", "HRIR", 48000)
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == f"{mpath}:5 ({paths[3]}): {want.value}"


def test_load_error_names_row_with_a_truncated_trailing_chunk(tmp_path):
    paths = _write_rows(tmp_path, ["list_odd"] * 5)
    with open(paths[3], "r+b") as f:
        f.truncate(os.path.getsize(paths[3]) - 2)  # the pad byte and one of LIST
    mpath = manifest_path(tmp_path, "SYN1", "HRIR", 48000)
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == (
        f"{mpath}:5 ({paths[3]}): {paths[3]}: chunk b'LIST' declares 5 bytes "
        "but only 4 remain (truncated file?)"
    )


def _blocked_set(tmp_path):
    """A lebedev50 set of 2,048-tap float32 rows, a few to a load block;
    returns its manifest path and the number of rows in a block."""
    mpath = save_ir_set(synthesize_ir_set("lebedev50", 48000, 2048, seed=3), tmp_path)
    per = ir_store._BLOCK_BYTES // os.path.getsize(mpath.parent / "ir_00000.wav")
    assert 1 < per < 16
    return mpath, per


def _truncate_fmt(wav) -> str:
    """Rewrites ``wav`` with a 14-byte fmt chunk; returns read_wav's error."""
    fmt = struct.pack("<HHIIHH", 3, 2, 48000, 384000, 8, 32)[:14]
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 2048) + bytes(2048))
    Path(wav).write_bytes(_riff(body))
    return f"{wav} has a truncated fmt chunk"


@pytest.mark.parametrize("next_block", [False, True])
@pytest.mark.parametrize("unreadable_first", [False, True])
def test_load_error_names_the_first_of_two_bad_rows(tmp_path, next_block, unreadable_first):
    # rows 1..per form the first block after row 0
    mpath, per = _blocked_set(tmp_path)
    a, b = (per, per + 1) if next_block else (1, per)
    unreadable, odd = (a, b) if unreadable_first else (b, a)
    wavs = {k: os.path.realpath(mpath.parent / f"ir_{k:05d}.wav") for k in (a, b)}
    os.unlink(wavs[unreadable])
    messages = {unreadable: f"cannot read {wavs[unreadable]}: [Errno 2] No such file or "
                            f"directory: '{wavs[unreadable]}'",
                odd: _truncate_fmt(wavs[odd])}
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == f"{mpath}:{a + 2} ({wavs[a]}): {messages[a]}"


def test_load_names_a_non_finite_row_only_after_every_row_is_read(tmp_path):
    mpath, per = _blocked_set(tmp_path)
    write_wav(mpath.parent / "ir_00001.wav", 48000, np.full((2048, 2), np.nan), "float32")
    wav = os.path.realpath(mpath.parent / f"ir_{2 * per + 1:05d}.wav")
    os.unlink(wav)
    with pytest.raises(FormatError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value).startswith(f"{mpath}:{2 * per + 3} ({wav}): cannot read ")


def _traced(f):
    """f's result, the bytes traced as allocated by f and still live after
    it, and the most that were live at once."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - base, peak - base


def test_row_reads_free_no_temporary_past_the_mmap_threshold(tmp_path):
    """Beyond the stack and directions it returns, reading 792 rows has less
    than 128 KiB live at once: a freed temporary of glibc's mmap threshold
    (128 KiB) or more raises the threshold for the rest of the process.
    numpy reports its buffers to tracemalloc."""
    s = synthesize_ir_set("ring_az_step", 48000, 256, seed=3, step_deg=5.0,
                          elevations=range(-75, 76, 15))
    mpath = save_ir_set(s, tmp_path)
    manifest, _ = ir_store._read_manifest(mpath)
    paths = [os.path.join(os.path.realpath(mpath.parent), rel)
             for _, _, rel in manifest.entries]
    ir_store._read_rows(paths, manifest, 48000)  # what a first read sets up
    (_, irs), kept, peak = _traced(lambda: ir_store._read_rows(paths, manifest, 48000))
    assert irs.tobytes() == s.irs.tobytes()
    assert peak - kept < 128 * 1024


def test_loaded_buffers_are_read_only_views_of_one_stack(tmp_path, lebedev_set):
    save_ir_set(lebedev_set, tmp_path)
    loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    stack = loaded.points[0].left.base
    assert stack.shape == (50, 128, 2) and stack.dtype == np.float64
    assert not stack.flags.writeable
    for k, p in enumerate(loaded.points):
        assert np.shares_memory(p.left, stack[k, :, 0])
        assert np.shares_memory(p.right, stack[k, :, 1])
        assert not (p.left.flags.writeable or p.right.flags.writeable)
    with pytest.raises(ValueError, match="read-only"):
        loaded.points[-1].right[0] = 1.0


def test_in_memory_points_keep_their_validation():
    # only the loader's views skip the checks; the constructor keeps them
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        IRPoint(Direction(0, 0), np.array([0.0, np.inf]), np.zeros(2))
    buf = np.ones(4)
    IRPoint(Direction(0, 0), buf, np.ones(4))
    assert not buf.flags.writeable


# --- distinctness check ----------------------------------------------------


def _reference_check_distinct(points):
    """The per-row distinctness loop IRSet used before the blocked screen,
    verbatim but for ``self``."""
    carts = PointIndex(tuple(p.direction for p in points)).cartesians
    cos_tol = math.cos(math.radians(MERGE_TOLERANCE_DEG))
    for i in range(1, len(carts)):
        dots = carts[:i] @ carts[i]
        j = int(np.argmax(dots))
        if float(dots[j]) > cos_tol:
            a = points[j].direction
            b = points[i].direction
            raise InvalidArgumentError(
                f"points {j} ({a.azimuth_deg}, {a.elevation_deg}) and "
                f"{i} ({b.azimuth_deg}, {b.elevation_deg}) are within "
                f"{MERGE_TOLERANCE_DEG} degrees"
            )


def _distinct_outcomes(dirs):
    """(reference message, IRSet message); None where a check accepts."""
    buf = np.array([1.0, 0.5])
    points = tuple(IRPoint(d, buf, buf) for d in dirs)
    outcomes = []
    for check in (_reference_check_distinct,
                  lambda pts: IRSet("S", IRType.HRIR, 48000, pts)):
        try:
            check(points)
            outcomes.append(None)
        except InvalidArgumentError as e:
            outcomes.append(str(e))
    return tuple(outcomes)


def _partner(draw, d):
    """A direction (0.01 + k * 1e-9) degrees from d, k in -1, 0, 1: along
    the meridian, or rotated about a drawn axis perpendicular to d."""
    sep = MERGE_TOLERANCE_DEG + draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
    if abs(d.elevation_deg) < 80.0 and draw(st.booleans()):
        return normalize_direction(d.azimuth_deg, d.elevation_deg + sep)
    v = to_cartesian(d)
    w = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    u = w - (w @ v) * v
    if np.linalg.norm(u) < 1e-3:
        u = np.cross(v, [0.0, 0.0, 1.0] if abs(v[2]) < 0.9 else [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    t = math.radians(sep)
    return from_cartesian(math.cos(t) * v + math.sin(t) * u)


@st.composite
def _distinctness_sets(draw):
    dirs = [normalize_direction(az, el) for az, el in draw(st.lists(
        st.tuples(st.floats(0.0, 360.0), st.floats(-90.0, 90.0)),
        min_size=3, max_size=40,
    ))]
    kind = draw(st.sampled_from(["random", "threshold", "duplicate", "several"]))
    extra = {"random": 0, "threshold": 1, "duplicate": 1, "several": 4}[kind]
    for _ in range(extra):
        base = draw(st.sampled_from(dirs))
        if kind == "duplicate" or (kind == "several" and draw(st.booleans())):
            new = base
        else:
            new = _partner(draw, base)
        dirs.insert(draw(st.integers(0, len(dirs))), new)
    return dirs


@settings(max_examples=300, deadline=None)
@given(_distinctness_sets())
def test_distinctness_matches_per_row_reference(dirs):
    expected, got = _distinct_outcomes(dirs)
    assert got == expected


def test_distinctness_at_set_scale_matches_reference():
    """The 8,802-point spiral with duplicates late in the set: first pair
    reported as before."""
    n = 8802
    golden = 180.0 * (3.0 - math.sqrt(5.0))
    z = (2 * np.arange(n) + 1) / n - 1.0
    dirs = [normalize_direction(float(a), float(e)) for a, e in
            zip((golden * np.arange(n)) % 360.0, np.degrees(np.arcsin(z)))]
    assert _distinct_outcomes(dirs) == (None, None)
    dirs.insert(8000, dirs[5000])
    dirs.insert(7000, dirs[6500])
    expected, got = _distinct_outcomes(dirs)
    assert expected is not None and got == expected
    assert got.startswith("points 6500 (")


@pytest.mark.parametrize("rows", [2, 0])
def test_set_wide_load_error_names_manifest(tmp_path, lebedev_set, rows):
    from binauralkit.errors import InsufficientPointsError

    mpath = save_ir_set(lebedev_set, tmp_path)
    lines = mpath.read_text().splitlines()
    mpath.write_text("\n".join(lines[:1 + rows]) + "\n")
    with pytest.raises(InsufficientPointsError) as e:
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert str(e.value) == f"{mpath}: an IR set needs at least 3 points, got {rows}"


def test_import_sadie_skips_ragged_files(tmp_path, ragged_wav):
    src = tmp_path / "raw"
    _write_import_fixture(src, [f"azi_{az}_ele_0.wav" for az in (0, 90, 180)])
    ragged = ragged_wav(src / "azi_270_ele_0.wav", channels=2)
    with pytest.warns(UserWarning, match=re.escape(
            f"{ragged}: data size is not a whole number of frames")):
        manifest = import_sadie(src, tmp_path / "root", "H11", "HRIR", 48000)
    assert sorted(e[0] for e in manifest.entries) == [0.0, 90.0, 180.0]
