import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit.errors import (
    EmptyImportError,
    FormatError,
    InsufficientPointsError,
    InvalidArgumentError,
    NotFoundError,
)
from binauralkit import wavio
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
    # corrupt one referenced file: wrong channel count
    write_wav(mpath.parent / "ir_00003.wav", 48000, np.zeros(16), "float32")
    with pytest.raises(FormatError, match="ir_00003"):
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    # wrong rate
    write_wav(mpath.parent / "ir_00003.wav", 44100, np.zeros((16, 2)), "float32")
    with pytest.raises(FormatError, match="ir_00003"):
        load_ir_set(tmp_path, "SYN1", "HRIR", 48000)


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
    _write_import_fixture(src, ["azi_7,5_ele_100.wav"])
    manifest = import_sadie(
        src, tmp_path / "root", "H4", "BRIR", 48000, inclination=True
    )
    assert manifest.entries[0][0] == 7.5
    assert manifest.entries[0][1] == -10.0  # 90 - 100


def test_import_sadie_skips_unparsable_with_warning(tmp_path):
    src = tmp_path / "raw"
    names = [f"azi_{az * 10}_ele_0.wav" for az in range(9)] + ["notes.wav"]
    _write_import_fixture(src, names)
    with pytest.warns(UserWarning, match="notes.wav"):
        manifest = import_sadie(src, tmp_path / "root", "H5", "HRIR", 48000)
    assert len(manifest.entries) == 9


def test_import_sadie_skips_wrong_shape_files(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(src, ["azi_0_ele_0.wav", "azi_90_ele_0.wav"])
    _write_import_fixture(src, ["azi_180_ele_0.wav"], channels=1)
    _write_import_fixture(src, ["azi_270_ele_0.wav"], rate=44100)
    with pytest.warns(UserWarning):
        manifest = import_sadie(src, tmp_path / "root", "H6", "HRIR", 48000)
    assert len(manifest.entries) == 2


def test_import_sadie_duplicate_first_wins(tmp_path):
    src = tmp_path / "raw"
    _write_import_fixture(
        src, ["azi_10_ele_0.wav", "azi_10,0_ele_0.wav", "azi_20_ele_0.wav"]
    )
    with pytest.warns(UserWarning, match="duplicate"):
        manifest = import_sadie(src, tmp_path / "root", "H7", "HRIR", 48000)
    assert len(manifest.entries) == 2


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
    # the rows are written relative to the link, so they step out of it
    # into tmp_path/store, where the sources must then be found
    manifest = _import_rows_with_dotdot(tmp_path, tmp_path / "link")
    (tmp_path / "raw").rename(tmp_path / "store" / "raw")
    loaded = load_ir_set(tmp_path / "link", "H11", "HRIR", 48000)
    _assert_same_set(loaded, _resolved_source_set(tmp_path / "link", manifest))


def test_load_reads_each_row_once(tmp_path, monkeypatch):
    save_ir_set(_pcm16_grid_set(), tmp_path)
    read = wavio.read_wav
    seen = []

    def counting_read(path):
        seen.append(os.fspath(path))
        return read(path)

    monkeypatch.setattr(wavio, "read_wav", counting_read)
    loaded = load_ir_set(tmp_path, "SYN1", "HRIR", 48000)
    assert len(seen) == len(loaded.points) == 50
    assert len(set(seen)) == 50


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
