import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit import geometry
from binauralkit.distributions import lebedev50_directions, ring_grid_directions
from binauralkit.errors import (
    InsufficientPointsError,
    InvalidArgumentError,
    NoEnclosingTriangleError,
)
from binauralkit.geometry import (
    MERGE_TOLERANCE_DEG,
    Direction,
    PointIndex,
    _rowdots,
    angular_distance,
    apply_frame,
    build_triangulation,
    circumcircle,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    rotated_frame,
    to_cartesian,
)
from binauralkit.layouts import LAYOUT_NAMES, get_layout


def _raw_cartesian(az_deg, el_deg):
    az, el = math.radians(az_deg), math.radians(el_deg)
    return np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )


def _sphere_directions(rng, n):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [from_cartesian(x) for x in v]


def test_normalize_anchor_cases():
    assert normalize_direction(-90, 0) == Direction(270.0, 0.0)
    assert normalize_direction(360, 0) == Direction(0.0, 0.0)
    assert normalize_direction(0, 100) == Direction(180.0, 80.0)
    assert normalize_direction(45.5, -30) == Direction(45.5, -30.0)
    # -1e-20 % 360.0 rounds to 360.0, which is azimuth 0
    assert normalize_direction(-1e-20, 0) == Direction(0.0, 0.0)


def test_normalize_pole_collapse():
    assert normalize_direction(123, 90) == Direction(0.0, 90.0)
    assert normalize_direction(5, -90) == Direction(0.0, -90.0)
    assert normalize_direction(0, 270) == Direction(0.0, -90.0)


def test_normalize_idempotent_and_preserves_point():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        az = rng.uniform(-720, 720)
        el = rng.uniform(-270, 270)
        d = normalize_direction(az, el)
        assert 0.0 <= d.azimuth_deg < 360.0
        assert -90.0 <= d.elevation_deg <= 90.0
        again = normalize_direction(d.azimuth_deg, d.elevation_deg)
        assert again == d
        assert np.allclose(to_cartesian(d), _raw_cartesian(az, el), atol=1e-12)


def test_normalize_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        normalize_direction(float("nan"), 0)
    with pytest.raises(InvalidArgumentError):
        normalize_direction(0, float("inf"))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_FINITE, _FINITE)
def test_normalize_idempotent_for_any_finite_input(az, el):
    d = normalize_direction(az, el)
    assert 0.0 <= d.azimuth_deg < 360.0
    assert -90.0 <= d.elevation_deg <= 90.0
    assert normalize_direction(d.azimuth_deg, d.elevation_deg) == d


# the azimuth seam, either side of it, and the poles, where normalization
# moves the azimuth or the elevation
_SEAM_OR_POLE = st.sampled_from(
    [0.0, -0.0, 360.0, -1e-300, 359.99999999999994, 1e-300, 90.0, -90.0, 180.0, 450.0]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(_SEAM_OR_POLE, _FINITE),
                          st.one_of(_SEAM_OR_POLE, _FINITE)), min_size=1, max_size=30))
def test_point_index_cartesians_are_bytes_of_to_cartesian(pairs):
    index = PointIndex(Direction(az, el) for az, el in pairs)
    want = np.array([to_cartesian(d) for d in index.directions])
    got = index.cartesians
    assert got.shape == want.shape == (len(pairs), 3)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_to_cartesian_anchors():
    assert np.allclose(to_cartesian(Direction(0, 0)), [1, 0, 0], atol=1e-15)
    assert np.allclose(to_cartesian(Direction(90, 0)), [0, 1, 0], atol=1e-15)
    assert np.allclose(to_cartesian(Direction(0, 90)), [0, 0, 1], atol=1e-15)
    assert np.allclose(to_cartesian(Direction(270, 0)), [0, -1, 0], atol=1e-15)


def test_cartesian_round_trip():
    rng = np.random.default_rng(3)
    for d in _sphere_directions(rng, 500):
        back = from_cartesian(to_cartesian(d))
        assert np.allclose(to_cartesian(back), to_cartesian(d), atol=1e-12)


@pytest.mark.parametrize("v,text", [((0.0, 0.0, 0.0), "0.0, 0.0, 0.0"),
                                     ((float("nan"), 0.0, 1.0), "nan, 0.0, 1.0")])
def test_from_cartesian_rejects_a_zero_or_nan_vector(v, text):
    with pytest.raises(InvalidArgumentError) as e:
        from_cartesian(v)
    assert str(e.value) == f"cannot normalize vector ({text})"


def test_angular_distance_anchors():
    assert angular_distance(Direction(0, 0), Direction(90, 0)) == pytest.approx(90.0)
    assert angular_distance(Direction(0, 90), Direction(0, 90)) == 0.0
    # both inputs collapse to the same pole
    a = normalize_direction(0, 90)
    b = normalize_direction(180, 90)
    assert angular_distance(a, b) == 0.0
    assert angular_distance(Direction(0, 0), Direction(180, 0)) == pytest.approx(180.0)


def test_angular_distance_matches_dot_oracle():
    rng = np.random.default_rng(4)
    dirs = _sphere_directions(rng, 200)
    for a, b in zip(dirs[::2], dirs[1::2]):
        dot = float(np.dot(to_cartesian(a), to_cartesian(b)))
        expect = math.degrees(math.acos(max(-1.0, min(1.0, dot))))
        assert angular_distance(a, b) == pytest.approx(expect, abs=1e-9)


def test_apply_frame_identity_and_distance_preserving():
    rng = np.random.default_rng(5)
    dirs = _sphere_directions(rng, 100)
    for d in dirs:
        assert apply_frame(d, False, False) == normalize_direction(
            d.azimuth_deg, d.elevation_deg
        )
    for raz, rel in [(True, False), (False, True), (True, True)]:
        for a, b in zip(dirs[::2], dirs[1::2]):
            da = angular_distance(a, b)
            db = angular_distance(apply_frame(a, raz, rel), apply_frame(b, raz, rel))
            assert da == pytest.approx(db, abs=1e-9)


# --- triangulation ---------------------------------------------------------


def _brute_delaunay_ok(tri, tol=1e-9):
    """No vertex strictly inside any triangle's circumcircle."""
    pts = [(d.azimuth_deg, d.elevation_deg) for d in tri.vertices]
    for (i, j, k) in tri.triangles:
        cx, cy, r2 = circumcircle(*pts[i], *pts[j], *pts[k])
        if not math.isfinite(r2):
            return False
        for v, (x, y) in enumerate(pts):
            if v in (i, j, k):
                continue
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            if d2 < r2 * (1.0 - tol) - tol:
                return False
    return True


def test_square_gives_two_triangles():
    pts = [Direction(0, 0), Direction(90, 0), Direction(0, 45), Direction(90, 45)]
    tri = build_triangulation(pts)
    assert len(tri.triangles) == 2
    assert len(tri.vertices) == 4
    assert _brute_delaunay_ok(tri)


def test_three_points_one_triangle():
    tri = build_triangulation([Direction(0, 0), Direction(40, 10), Direction(10, 50)])
    assert tri.triangles == ((0, 1, 2),)


def test_insufficient_or_collinear_points_raise():
    with pytest.raises(InsufficientPointsError):
        build_triangulation([Direction(0, 0), Direction(10, 0)])
    with pytest.raises(InsufficientPointsError):
        build_triangulation([Direction(0, 0), Direction(10, 0), Direction(20, 0)])


def test_duplicate_points_merged_with_warning():
    pts = [Direction(0, 0), Direction(0, 0.005), Direction(40, 10), Direction(10, 50)]
    with pytest.warns(UserWarning, match="merged 1 duplicate point") as record:
        tri = build_triangulation(pts)
    assert len(tri.vertices) == 3
    # the warning names the line that asked for the triangulation
    assert record[0].filename == __file__


# --- near-duplicate search against the per-row merge loop -------------------


def _merge_duplicates(dirs: list[Direction]) -> list[Direction]:
    """Drop directions within MERGE_TOLERANCE_DEG of an earlier one."""
    kept: list[Direction] = []
    carts = np.empty((len(dirs), 3))
    cos_tol = math.cos(math.radians(MERGE_TOLERANCE_DEG))
    dropped = 0
    for d in dirs:
        v = to_cartesian(d)
        m = len(kept)
        if m and float(np.max(carts[:m] @ v)) > cos_tol:
            dropped += 1
            continue
        carts[m] = v
        kept.append(d)
    if dropped:
        warnings.warn(
            f"merged {dropped} duplicate point(s) within "
            f"{MERGE_TOLERANCE_DEG} degrees",
            stacklevel=3,
        )
    return kept


def _assert_kept_like_merge_loop(dirs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = _merge_duplicates(dirs)
    index = PointIndex(dirs)
    assert [index.directions[i] for i in index.vertex_indices] == expected


def _away(d, sep_deg, toward):
    """The direction sep_deg from d on the great circle toward a vector."""
    v = to_cartesian(d)
    u = toward - (toward @ v) * v
    if np.linalg.norm(u) < 1e-3:
        u = np.cross(v, [0.0, 0.0, 1.0] if abs(v[2]) < 0.9 else [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    t = math.radians(sep_deg)
    return from_cartesian(math.cos(t) * v + math.sin(t) * u)


@st.composite
def _merge_sets(draw):
    """Random directions, each extra one inserted after the point it is
    near: an exact duplicate, a partner at the tolerance +-1e-9 deg, or a
    chain A~B~C in which only greedy "earlier kept" merging keeps C."""
    dirs = [normalize_direction(az, el) for az, el in draw(st.lists(
        st.tuples(st.floats(0.0, 360.0), st.floats(-90.0, 90.0)),
        min_size=1, max_size=30,
    ))]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(dirs) - 1))
        toward = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        kind = draw(st.sampled_from(["duplicate", "threshold", "chain"]))
        if kind == "duplicate":
            new = [dirs[k]]
        elif kind == "threshold":
            sep = MERGE_TOLERANCE_DEG + draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
            new = [_away(dirs[k], sep, toward)]
        else:
            new = [_away(dirs[k], 0.6 * MERGE_TOLERANCE_DEG, toward),
                   _away(dirs[k], 1.2 * MERGE_TOLERANCE_DEG, toward)]
        at = draw(st.integers(k + 1, len(dirs)))
        dirs[at:at] = new
    return dirs


@settings(max_examples=300, deadline=None)
@given(_merge_sets())
def test_vertex_indices_match_merge_loop(dirs):
    _assert_kept_like_merge_loop(dirs)


def test_vertex_indices_keep_a_chain_end_past_a_merged_middle():
    a = Direction(10.0, 0.0)
    chain = [a, Direction(10.006, 0.0), Direction(10.012, 0.0), Direction(200.0, 30.0)]
    assert PointIndex(chain).vertex_indices == (0, 2, 3)
    _assert_kept_like_merge_loop(chain)


def test_vertex_indices_match_merge_loop_at_set_scale():
    """The 8,802-point spiral, then with duplicates, threshold partners and
    a chain inserted late in the set."""
    n = 8802
    golden = 180.0 * (3.0 - math.sqrt(5.0))
    z = (2 * np.arange(n) + 1) / n - 1.0
    dirs = [normalize_direction(float(a), float(e)) for a, e in
            zip((golden * np.arange(n)) % 360.0, np.degrees(np.arcsin(z)))]
    assert PointIndex(dirs).vertex_indices == tuple(range(n))
    toward = np.array([0.3, -0.5, 0.8])
    dirs.insert(8000, dirs[5000])
    dirs.insert(7000, _away(dirs[6500], MERGE_TOLERANCE_DEG - 1e-9, toward))
    dirs.insert(6000, _away(dirs[4000], MERGE_TOLERANCE_DEG + 1e-9, toward))
    dirs[3001:3001] = [_away(dirs[3000], f * MERGE_TOLERANCE_DEG, toward)
                       for f in (0.6, 1.2)]
    _assert_kept_like_merge_loop(dirs)
    assert len(PointIndex(dirs).vertex_indices) == n + 2


def test_lebedev_triangulation_brute_force():
    tri = build_triangulation(lebedev50_directions())
    assert len(tri.vertices) == 50
    used = {v for t in tri.triangles for v in t}
    assert used == set(range(50))
    assert _brute_delaunay_ok(tri)


def test_random_triangulations_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 45))
        dirs = _sphere_directions(rng, n)
        try:
            tri = build_triangulation(dirs)
        except InsufficientPointsError:
            continue  # merged below 3 points or collinear
        assert _brute_delaunay_ok(tri)


def test_triangulation_deterministic():
    rng = np.random.default_rng(7)
    dirs = _sphere_directions(rng, 60)
    a = build_triangulation(dirs)
    b = build_triangulation(list(dirs))
    assert a.triangles == b.triangles


# --- filtered predicates against the exact-only triangulation -------------


def _exact_triangulate_plane(coords):
    """_triangulate_plane as it was before its float filter: every
    prefilter candidate goes through the exact in-circle test, and the
    prefilter scans every triangle ever made. The reference the filtered
    version must match triangle for triangle."""
    n = len(coords)
    if n < 3:
        raise InsufficientPointsError(f"need at least 3 points, got {n}")
    x0, y0 = coords[0]
    x1, y1 = coords[1]
    if all(
        geometry._orient_sign(x0, y0, x1, y1, coords[k][0], coords[k][1]) == 0
        for k in range(2, n)
    ):
        raise InsufficientPointsError(
            f"all {n} points are collinear in the projection plane"
        )

    pts = np.vstack([coords, np.array(geometry._SUPER)])
    cap = 256
    tris: list[tuple[int, int, int]] = [(0, 0, 0)] * cap
    ccx = np.empty(cap)
    ccy = np.empty(cap)
    rr2 = np.empty(cap)
    alive = np.zeros(cap, dtype=bool)
    count = 0

    def add_triangle(i: int, j: int, k: int) -> None:
        nonlocal cap, tris, ccx, ccy, rr2, alive, count
        if count == cap:
            cap *= 2
            tris = tris + [(0, 0, 0)] * (cap - count)
            ccx = np.resize(ccx, cap)
            ccy = np.resize(ccy, cap)
            rr2 = np.resize(rr2, cap)
            grown = np.zeros(cap, dtype=bool)
            grown[:count] = alive[:count]
            alive = grown
        ux, uy, r2 = circumcircle(
            pts[i][0], pts[i][1], pts[j][0], pts[j][1], pts[k][0], pts[k][1]
        )
        tris[count] = (i, j, k)
        ccx[count] = ux
        ccy[count] = uy
        rr2[count] = r2
        alive[count] = True
        count += 1

    add_triangle(n, n + 1, n + 2)

    for p in range(n):
        px, py = float(pts[p][0]), float(pts[p][1])
        d2 = (ccx[:count] - px) ** 2 + (ccy[:count] - py) ** 2
        # generous float prefilter; exact predicate confirms each candidate
        candidates = np.nonzero(alive[:count] & (d2 <= rr2[:count] * 1.0001 + 1e-4))[0]
        bad: list[int] = []
        for t in candidates:
            i, j, k = tris[t]
            if geometry._incircle_strict(
                pts[i][0], pts[i][1],
                pts[j][0], pts[j][1],
                pts[k][0], pts[k][1],
                px, py,
            ):
                bad.append(int(t))
        if not bad:
            raise RuntimeError(
                f"no triangle circumcircle contains point {p}; "
                "super-triangle too small or duplicate input"
            )
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            i, j, k = tris[t]
            for u, v in ((i, j), (j, k), (k, i)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
            alive[t] = False
        for u, v in sorted(e for e, c in edge_count.items() if c == 1):
            add_triangle(p, u, v)

    result = sorted(
        tuple(sorted(tris[t]))
        for t in range(count)
        if alive[t] and max(tris[t]) < n
    )
    return result


def _frame_plane(dirs, raz, rel):
    return np.array([
        [f.azimuth_deg, f.elevation_deg]
        for f in (apply_frame(d, raz, rel) for d in dirs)
    ])


def _outcome(triangulate, coords):
    try:
        return triangulate(coords)
    except (InsufficientPointsError, RuntimeError) as e:
        return type(e)


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts calls of the exact in-circle test, filtered or reference."""
    calls = [0]
    exact = geometry._incircle_strict

    def counting(*args):
        calls[0] += 1
        return exact(*args)

    monkeypatch.setattr(geometry, "_incircle_strict", counting)
    return calls


@pytest.mark.parametrize("name", ["lebedev50", "5.1", "7.1.4", "9.1.2"])
def test_filtered_triangles_match_exact_reference(name):
    if name == "lebedev50":
        dirs = lebedev50_directions()
    else:
        dirs = get_layout(name).speaker_directions()
    dirs = [normalize_direction(d.azimuth_deg, d.elevation_deg) for d in dirs]
    for raz, rel in geometry._FRAME_ORDER:
        coords = _frame_plane(dirs, raz, rel)
        assert _outcome(geometry._triangulate_plane, coords) == _outcome(
            _exact_triangulate_plane, coords
        )


def test_filtered_triangles_match_exact_reference_on_ring_grid(exact_calls):
    # the 792-point 5 degree grid: 11 rings, heavily cocircular
    tri = build_triangulation(ring_grid_directions(5.0, range(-75, 76, 15)))
    assert len(tri.vertices) == 792
    for raz, rel in ((False, False), (False, True)):
        coords = _frame_plane(tri.vertices, raz, rel)
        exact_calls[0] = 0
        expect = _exact_triangulate_plane(coords)
        tests = exact_calls[0]
        exact_calls[0] = 0
        assert geometry._triangulate_plane(coords) == expect
        assert 0 < exact_calls[0] < 0.1 * tests
        assert rotated_frame(tri, raz, rel).triangles == tuple(expect)


def test_triangles_keep_their_recorded_digest():
    # every frame of the 792-point 5 degree grid, lebedev50 and the 15 degree
    # grid from -45 to 45 degrees; exact predicates make these the same on
    # every platform
    listed = []
    for dirs in (ring_grid_directions(5.0, range(-75, 76, 15)),
                 lebedev50_directions(),
                 ring_grid_directions(15.0, range(-45, 46, 15))):
        tri = build_triangulation(dirs)
        listed += [rotated_frame(tri, raz, rel).triangles for raz, rel in geometry._FRAME_ORDER]
    assert hashlib.sha256(repr(listed).encode()).hexdigest() == (
        "ec70a9a8695e1bd889ea65066fd698b15a29d15f154a69b31bd079ef7513ed2f"
    )


def test_cocircular_lattice_takes_the_exact_path(exact_calls):
    coords = np.array([[15.0 * i, 15.0 * j] for i in range(5) for j in range(5)])
    expect = _exact_triangulate_plane(coords)
    exact_calls[0] = 0
    assert geometry._triangulate_plane(coords) == expect
    assert exact_calls[0] > 0


def _with_super(values):
    coords = np.array([[v, v] for v in values])
    return np.vstack([coords, np.array(geometry._SUPER)])


def test_float_filter_guard_edges():
    safe = geometry._float_filter_safe
    assert safe(_with_super([0.0]))
    for v in (2.0 ** -100, -(2.0 ** -100), 2.0 ** 200, -(2.0 ** 200)):
        assert safe(_with_super([0.0, 1.0, v]))
    tiny = math.ulp(0.0)  # the smallest subnormal
    for v in (2.0 ** -101, 2.0 ** 201, -(2.0 ** 201), tiny, 1e-310, math.inf, math.nan):
        assert not safe(_with_super([0.0, 1.0, v]))


def test_float_filter_guard_keeps_tiny_sets_exact(monkeypatch):
    # (0,0), (3,1), (9,1), (12,0) are cocircular; at this scale the
    # in-circle products fall below the normal range, so float rounding
    # gives the quadruple a nonzero determinant and a zero error bound
    coords = np.array([[0.0, 0.0], [3.0, 1.0], [9.0, 1.0], [12.0, 0.0]]) * 2.0 ** -270
    expect = _exact_triangulate_plane(coords)
    assert geometry._triangulate_plane(coords) == expect
    monkeypatch.setattr(geometry, "_float_filter_safe", lambda pts: True)
    assert geometry._triangulate_plane(coords) != expect


_LATTICE = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=3, max_size=25, unique=True,
)


@st.composite
def _plane_sets(draw):
    """Distinct planar point sets: random, lattice subsets (exactly
    cocircular), lattice points nudged by one ulp (in-circle determinants
    near the float bound) and tiny or subnormal lattices."""
    kind = draw(st.sampled_from(["random", "lattice", "nudged", "tiny"]))
    if kind == "random":
        pts = draw(st.lists(
            st.tuples(st.floats(-180.0, 360.0), st.floats(-90.0, 90.0)),
            min_size=3, max_size=30, unique=True,
        ))
        return np.array(pts)
    lattice = np.array(draw(_LATTICE), dtype=float)
    if kind == "lattice":
        return lattice * draw(st.sampled_from([1.0, 15.0, 0.5, 7.5]))
    if kind == "nudged":
        coords = lattice * draw(st.sampled_from([1.0, 15.0, 7.5]))
        steps = draw(st.lists(st.sampled_from([-1, 0, 1]),
                              min_size=coords.size, max_size=coords.size))
        flat = [math.nextafter(v, v + s) if s else v
                for v, s in zip(coords.ravel().tolist(), steps)]
        return np.array(flat).reshape(coords.shape)
    return lattice * draw(st.sampled_from([2.0 ** -1000, 2.0 ** -1060, 2.0 ** -1070, 1e-300]))


@settings(max_examples=200, deadline=None)
@given(_plane_sets())
def test_filtered_triangulation_matches_exact_reference_property(coords):
    assert _outcome(geometry._triangulate_plane, coords) == _outcome(
        _exact_triangulate_plane, coords
    )


def _near_collinear_sets():
    """Planar sets on or one ulp off a line, each with a point off it."""
    line = [(7.5 * i, 3.75 * i) for i in range(12)]
    nudged = [(x, math.nextafter(y, math.inf if i % 2 else -math.inf))
              for i, (x, y) in enumerate(line)]
    yield np.array(line + [(40.0, 30.0)])
    yield np.array(nudged + [(40.0, 30.0)])
    yield np.array(nudged)
    yield np.array([(float(x), 0.0) for x in range(20)] + [(9.5, 1e-9), (3.0, -1e-12)])


def test_bowyer_watson_creates_no_zero_area_triangle(monkeypatch):
    # every inserted point lies strictly inside each cavity triangle's
    # circumcircle, so no cavity boundary edge is collinear with it and each
    # triangle made from one, super-triangle ones too, is exactly
    # counter-clockwise as passed to circumcircle: over cocircular ring
    # grids, lebedev50 and every layout in all four frames, random sphere
    # sets, near-collinear planar sets and sets below 2**-100 that take the
    # exact path
    made = []

    def recording(*corners):
        made.append(geometry._orient_sign(*corners))
        return circumcircle(*corners)

    monkeypatch.setattr(geometry, "circumcircle", recording)
    rng = np.random.default_rng(11)
    sphere_sets = [ring_grid_directions(5.0, range(-75, 76, 15)),
                   ring_grid_directions(15.0, [-90, -60, -30, 0, 30, 60, 90]),
                   ring_grid_directions(10.0, [-45, 0, 45]),
                   lebedev50_directions(),
                   *(get_layout(name).speaker_directions() for name in LAYOUT_NAMES),
                   *(_sphere_directions(rng, n) for n in (5, 40, 300))]
    planes = [_frame_plane([normalize_direction(d.azimuth_deg, d.elevation_deg)
                            for d in dirs], raz, rel)
              for dirs in sphere_sets for raz, rel in geometry._FRAME_ORDER]
    tiny = np.array([[i, j] for i in range(6) for j in range(6)], dtype=float) * 2.0 ** -110
    assert not geometry._float_filter_safe(tiny)
    # at 2**-1000 the float circumcircle underflows to its degenerate
    # return, though no triangle there has zero area
    assert circumcircle(0.0, 0.0, 2.0 ** -1000, 0.0, 0.0, 2.0 ** -1000)[2] == math.inf
    planes += [*_near_collinear_sets(), tiny, tiny * 2.0 ** -890,
               rng.uniform(-180.0, 360.0, (200, 2))]
    built = 0
    for coords in planes:
        try:
            geometry._triangulate_plane(coords)
        except InsufficientPointsError:
            continue  # a bed-only layout is collinear in the first two frames
        built += 1
    assert built == len(planes) - 6  # 5.1, 7.1 and 9.1
    assert len(made) > 80_000
    assert set(made) == {1}


def test_fewer_than_three_rows_are_collinear():
    for rows in ([], [[0.0, 0.0]], [[0.0, 0.0], [10.0, 5.0]]):
        coords = np.array(rows).reshape(-1, 2)
        with pytest.raises(InsufficientPointsError) as e:
            geometry._triangulate_plane(coords)
        assert str(e.value) == f"all {len(rows)} points are collinear in the projection plane"
    # a caller-made triangulation of two points and no triangles: no frame
    # holds the query, and no rotated frame can be built
    dirs = [Direction(180.0, -60.0), Direction(180.0, 0.0)]
    tri = geometry.Triangulation(dirs, [], _frame_plane(dirs, False, False))
    assert tri._locate(180.0, -30.0) is None
    for raz, rel in geometry._FRAME_ORDER[1:]:
        assert rotated_frame(tri, raz, rel) is None
    with pytest.raises(NoEnclosingTriangleError) as e:
        find_enclosing_triangle(tri, Direction(180.0, -30.0))
    assert str(e.value) == ("no enclosing triangle for direction (180.0000, -30.0000) "
                            "in any projection frame")


# --- enclosing triangle ----------------------------------------------------


def _bary(tri, idxs, q, raz, rel):
    """Barycentric coords of q in the triangle after applying the recorded
    rotations to both the query and the triangle's vertices."""
    fq = apply_frame(q, raz, rel)
    (x1, y1), (x2, y2), (x3, y3) = (
        (f.azimuth_deg, f.elevation_deg)
        for f in (apply_frame(tri.vertices[i], raz, rel) for i in idxs)
    )
    det = (y2 - y3) * (x1 - x3) + (x3 - x2) * (y1 - y3)
    l1 = ((y2 - y3) * (fq.azimuth_deg - x3) + (x3 - x2) * (fq.elevation_deg - y3)) / det
    l2 = ((y3 - y1) * (fq.azimuth_deg - x3) + (x1 - x3) * (fq.elevation_deg - y3)) / det
    return l1, l2, 1.0 - l1 - l2


def test_enclosing_triangle_at_vertex_and_centroid():
    tri = build_triangulation(lebedev50_directions())
    q = tri.vertices[7]
    enc = find_enclosing_triangle(tri, q)
    assert 7 in enc.vertex_indices
    assert (enc.rotated_azimuth, enc.rotated_elevation) == (False, False)

    i, j, k = tri.triangles[10]
    cx = (
        tri.vertices[i].azimuth_deg
        + tri.vertices[j].azimuth_deg
        + tri.vertices[k].azimuth_deg
    ) / 3.0
    cy = (
        tri.vertices[i].elevation_deg
        + tri.vertices[j].elevation_deg
        + tri.vertices[k].elevation_deg
    ) / 3.0
    enc = find_enclosing_triangle(tri, Direction(cx, cy))
    assert enc.vertex_indices == tri.triangles[10]


def test_enclosing_triangle_random_queries_contain():
    tri = build_triangulation(lebedev50_directions())
    rng = np.random.default_rng(8)
    for q in _sphere_directions(rng, 800):
        enc = find_enclosing_triangle(tri, q)
        coords = _bary(tri, enc.vertex_indices, q, enc.rotated_azimuth,
                       enc.rotated_elevation)
        assert min(coords) >= -1e-9


def test_azimuth_seam_resolved_by_rotation():
    dirs = ring_grid_directions(5.0, [-30, 0, 30])
    tri = build_triangulation(dirs)
    enc = find_enclosing_triangle(tri, Direction(359.5, 0))
    assert enc.rotated_azimuth is True


def test_hemisphere_cap_set_raises():
    tri = build_triangulation(get_layout("7.1.4").speaker_directions())
    with pytest.raises(NoEnclosingTriangleError):
        find_enclosing_triangle(tri, Direction(0, -85))


def test_degenerate_rotated_frames_are_skipped():
    # a meridian with both poles: the azimuth-shifted frames are collinear,
    # and the elevation-rotated frame, nearly collinear, keeps no triangle
    # clear of the super triangle; all three are cached as None
    dirs = [Direction(180, -60), Direction(180, 0), Direction(180, 60),
            Direction(0, 90), Direction(0, -90)]
    tri = build_triangulation(dirs)
    assert tri.triangles == ((0, 1, 4), (1, 2, 3), (1, 3, 4))
    coords = geometry._frame_coords(tri.vertices, False, True)
    assert np.ptp(coords[:, 1]) < 1e-14
    assert geometry._triangulate_plane(coords) == []
    assert rotated_frame(tri, True, False) is None
    assert rotated_frame(tri, True, True) is None
    assert rotated_frame(tri, False, True) is None
    assert tri._frames == {(False, False): tri, (True, False): None,
                           (False, True): None, (True, True): None}
    with pytest.raises(NoEnclosingTriangleError) as e:
        find_enclosing_triangle(tri, Direction(270, 0))
    assert str(e.value) == ("no enclosing triangle for direction (270.0000, 0.0000) "
                            "in any projection frame")


def test_columns_join_across_the_azimuth_seam():
    index = PointIndex([Direction(359.995, 10), Direction(0.0, 20), Direction(90, 0),
                        Direction(0.004, -30)])
    assert index.columns == ((359.995, (3, 0, 1)),)


def test_rotated_frame_preserves_vertex_count_and_is_cached():
    tri = build_triangulation(lebedev50_directions())
    f1 = rotated_frame(tri, True, False)
    f2 = rotated_frame(tri, True, False)
    assert f1 is f2
    assert len(f1.vertices) == len(tri.vertices)
    assert rotated_frame(tri, False, False) is tri


# --- cell-indexed _locate against the full scan ---------------------------


def _scan_locate(self, az, el):
    """Triangulation._locate as it was before its cell index: the barycentric
    test over every triangle, first hit in canonical order. The reference
    the cell index must match triangle for triangle."""
    if not self.triangles:
        return None
    tri = np.array(self.triangles)
    a = self.frame_coords[tri[:, 0]]
    b = self.frame_coords[tri[:, 1]]
    c = self.frame_coords[tri[:, 2]]
    m00 = b[:, 0] - a[:, 0]
    m01 = c[:, 0] - a[:, 0]
    m10 = b[:, 1] - a[:, 1]
    m11 = c[:, 1] - a[:, 1]
    det = m00 * m11 - m01 * m10
    rx = az - a[:, 0]
    ry = el - a[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-area triangles
        u = (m11 * rx - m01 * ry) / det
        v = (-m10 * rx + m00 * ry) / det
        inside = (u >= -geometry._BARY_SLACK) & (v >= -geometry._BARY_SLACK) & (
            u + v <= 1.0 + geometry._BARY_SLACK
        )
    hits = np.nonzero(inside)[0]
    return int(hits[0]) if hits.size else None


def _assert_locate_matches_scan(frame, rng, n_random):
    """Vertices, edge midpoints and random points of the frame's plane."""
    fc = frame.frame_coords
    queries = fc.tolist()
    for i, j, k in frame.triangles:
        queries += [((fc[i] + fc[j]) / 2).tolist(), ((fc[j] + fc[k]) / 2).tolist(),
                    ((fc[k] + fc[i]) / 2).tolist()]
    queries += rng.uniform([0.0, -90.0], [360.0, 90.0], (n_random, 2)).tolist()
    for az, el in queries:
        assert frame._locate(az, el) == _scan_locate(frame, az, el), (az, el)


def _all_frames(tri):
    frames = [rotated_frame(tri, raz, rel) for raz, rel in geometry._FRAME_ORDER]
    return [f for f in frames if f is not None]


@pytest.mark.parametrize("name", ["lebedev50", "ring_poles", "random", "7.1.4"])
def test_locate_matches_full_scan(name):
    rng = np.random.default_rng(31)
    dirs = {
        "lebedev50": lebedev50_directions,
        "ring_poles": lambda: ring_grid_directions(10.0, [-90, -45, 0, 45, 90]),
        "random": lambda: _sphere_directions(rng, 120),
        "7.1.4": lambda: get_layout("7.1.4").speaker_directions(),
    }[name]()
    for frame in _all_frames(build_triangulation(dirs)):
        _assert_locate_matches_scan(frame, rng, 400)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(_FINITE, _FINITE), min_size=3, max_size=40),
    st.tuples(st.sampled_from([15, 30, 45, 90]),
              st.lists(st.integers(-90, 90), min_size=2, max_size=5, unique=True)),
), st.integers(0, 2**32 - 1))
def test_locate_matches_full_scan_property(spec, seed):
    if isinstance(spec, list):
        dirs = [normalize_direction(az, el) for az, el in spec]
    else:
        step, els = spec
        dirs = [Direction(float(az), float(el)) for el in els for az in range(0, 360, step)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tri = build_triangulation(dirs)
    except InsufficientPointsError:
        return
    for frame in _all_frames(tri):
        _assert_locate_matches_scan(frame, np.random.default_rng(seed), 50)


def test_locate_cells_cover_slivers_and_skip_flat_triangles():
    # a sliver too thin for a bounded margin sits in every cell; a zero-area
    # triangle, which the barycentric test never accepts, in none
    coords = np.array([[0.0, 0.0], [100.0, 1e-13], [200.0, 0.0], [300.0, 0.0],
                       [0.0, 80.0], [350.0, -80.0]])
    dirs = [Direction(x, y) for x, y in coords.tolist()]
    frame = geometry.Triangulation(dirs, [(0, 1, 2), (0, 2, 3), (0, 1, 4), (2, 3, 5)],
                                   coords)
    _, _, _, _, _, _, cells = frame._build_cells()
    assert all(cell[0][0] == 0 for cell in cells)
    assert all(entry[0] != 1 for cell in cells for entry in cell)
    _assert_locate_matches_scan(frame, np.random.default_rng(32), 400)
    for az, el in ((100.0, 0.0), (100.0, 5e-14), (150.0, 0.0), (250.0, 0.0)):
        assert frame._locate(az, el) == _scan_locate(frame, az, el)


def test_locate_widens_boxes_past_the_slack():
    # the cell boundary at x = 0 is triangle 0's box edge; a query 1e-13
    # left of it is inside triangle 1, and triangle 0 accepts it within the
    # slack, so the scan answers 0
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [-10.0, 5.0]])
    dirs = [Direction(x, y) for x, y in coords.tolist()]
    frame = geometry.Triangulation(dirs, [(0, 1, 2), (0, 2, 3)], coords)
    for el in (1.0, 5.0, 9.0):
        assert _scan_locate(frame, -1e-13, el) == 0
        assert frame._locate(-1e-13, el) == 0


def test_locate_cells_built_on_first_lookup():
    tri = build_triangulation(lebedev50_directions())
    frame = rotated_frame(tri, True, False)
    assert tri._cells is None and frame._cells is None
    find_enclosing_triangle(tri, Direction(77.0, 33.0))
    assert tri._cells is not None and frame._cells is None


# --- scipy as an oracle of the Delaunay property ---------------------------


def _empty_circumcircles(coords, triangles, tol=0.0):
    """No point inside a triangle's circumcircle by more than ``tol`` of its
    squared radius; with tol 0 the exact in-circle test decides every point
    the float distance to the centre does not clearly put outside."""
    xs, ys = coords[:, 0].tolist(), coords[:, 1].tolist()
    for t in triangles:
        ux, uy, r2 = circumcircle(*coords[t[0]], *coords[t[1]], *coords[t[2]])
        d2 = (coords[:, 0] - ux) ** 2 + (coords[:, 1] - uy) ** 2
        d2[list(t)] = math.inf
        for p in np.flatnonzero(d2 < r2 * (1.0 + 1e-6)).tolist():
            if tol:
                if d2[p] < r2 * (1.0 - tol):
                    return False
            elif geometry._incircle_strict(xs[t[0]], ys[t[0]], xs[t[1]], ys[t[1]],
                                           xs[t[2]], ys[t[2]], xs[p], ys[p]):
                return False
    return True


def _area(coords, triangles):
    a, b, c = (coords[[t[n] for t in triangles]] for n in range(3))
    u, v = b - a, c - a
    return float(np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]).sum()) / 2.0


@pytest.mark.parametrize("step,elevations", [
    (30.0, [-60, 0, 60]),
    (15.0, [-75, -50, -25, 0, 25, 50, 75]),
    (10.0, [-90, -45, 0, 45, 90]),
])
def test_ring_grid_delaunay_property_against_scipy(step, elevations):
    # ring grids are cocircular, so their Delaunay triangles are not unique:
    # scipy (Qhull, float arithmetic) is held to the empty-circumcircle
    # property within rounding, ours exactly, and both tile the same hull
    spatial = pytest.importorskip("scipy.spatial")
    tri = build_triangulation(ring_grid_directions(step, elevations))
    for frame in _all_frames(tri):
        coords = frame.frame_coords
        simplices = [tuple(t) for t in spatial.Delaunay(coords).simplices.tolist()]
        assert sorted({i for t in simplices for i in t}) == list(range(len(coords)))
        assert _empty_circumcircles(coords, simplices, tol=1e-9)
        assert _empty_circumcircles(coords, frame.triangles)
        assert len(frame.triangles) == len(simplices)
        assert _area(coords, frame.triangles) == pytest.approx(_area(coords, simplices),
                                                               rel=1e-12)


_LEBEDEV_TRI = build_triangulation(lebedev50_directions())


@settings(max_examples=200, deadline=None)
@given(_FINITE, _FINITE)
def test_enclosing_triangle_total_on_lebedev(az, el):
    q = normalize_direction(az, el)
    enc = find_enclosing_triangle(_LEBEDEV_TRI, q)
    coords = _bary(_LEBEDEV_TRI, enc.vertex_indices, q, enc.rotated_azimuth,
                   enc.rotated_elevation)
    assert min(coords) >= -1e-9


@settings(max_examples=200, deadline=None)
@given(_FINITE, _FINITE)
def test_enclosing_triangle_total_on_ring_set(ring_set, az, el):
    tri = ring_set.index.triangulation
    q = normalize_direction(az, el)
    enc = find_enclosing_triangle(tri, q)
    coords = _bary(tri, enc.vertex_indices, q, enc.rotated_azimuth,
                   enc.rotated_elevation)
    assert min(coords) >= -1e-9


def test_rowdots_match_per_row_dot_bit_for_bit():
    """The batched dot the planner takes its chords and errors from gives
    ndarray.dot's bits row for row, at magnitudes from 1e-9 to 1."""
    rng = np.random.default_rng(32)
    for k in (1, 3, 8, 5000):
        a, b = (rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-9.0, 0.0, (k, 1))
                for _ in range(2))
        q = b[0]
        for got, want in ((_rowdots(a, b), [x.dot(y) for x, y in zip(a, b)]),
                          (_rowdots(a, a), [x.dot(x) for x in a]),
                          (_rowdots(a, q), [np.dot(q, x) for x in a])):
            assert got.shape == (k,)
            assert got.tobytes() == np.array(want).tobytes()
