import math

import numpy as np
import pytest

from binauralkit.distributions import lebedev50_directions, ring_grid_directions
from binauralkit.errors import (
    InsufficientPointsError,
    InvalidArgumentError,
    NoEnclosingTriangleError,
)
from binauralkit.geometry import (
    Direction,
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
    with pytest.warns(UserWarning, match="merged"):
        tri = build_triangulation(pts)
    assert len(tri.vertices) == 3


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
    from binauralkit.layouts import get_layout

    tri = build_triangulation(get_layout("7.1.4").speaker_directions())
    with pytest.raises(NoEnclosingTriangleError):
        find_enclosing_triangle(tri, Direction(0, -85))


def test_rotated_frame_preserves_vertex_count_and_is_cached():
    tri = build_triangulation(lebedev50_directions())
    f1 = rotated_frame(tri, True, False)
    f2 = rotated_frame(tri, True, False)
    assert f1 is f2
    assert len(f1.vertices) == len(tri.vertices)
    assert rotated_frame(tri, False, False) is tri
