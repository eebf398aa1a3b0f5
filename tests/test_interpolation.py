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
    build_triangulation,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
)
from binauralkit.interpolation import (
    InterpolationMode,
    blend,
    plan,
    plan_over_directions,
)
from binauralkit.ir_store import synthesize_ir_set
from binauralkit.layouts import get_layout

ALL_MODES = [
    InterpolationMode.NEAREST,
    InterpolationMode.PLANAR,
    InterpolationMode.TWO_POINT,
    InterpolationMode.THREE_POINT,
    InterpolationMode.AUTO,
]


def _sphere_directions(rng, n):
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [from_cartesian(x) for x in v]


def test_mode_parse():
    assert InterpolationMode.parse("Three_Point") is InterpolationMode.THREE_POINT
    assert InterpolationMode.parse("auto") is InterpolationMode.AUTO
    assert InterpolationMode.parse(InterpolationMode.PLANAR) is InterpolationMode.PLANAR
    with pytest.raises(InvalidArgumentError):
        InterpolationMode.parse("bilinear")


def test_exact_point_any_mode(lebedev_set):
    d = lebedev_set.points[23].direction
    for mode in ALL_MODES:
        p = plan(lebedev_set, d, mode)
        assert p.entries == ((23, 1.0),)
        assert p.achieved_error_deg == 0.0
        assert p.mode_used is InterpolationMode.NEAREST


def test_snap_rule_all_modes(ring_set):
    base = ring_set.points[40].direction
    q = Direction(base.azimuth_deg + 1.4, base.elevation_deg - 0.9)
    for mode in ALL_MODES:
        p = plan(ring_set, q, mode)
        assert len(p.entries) == 1
        assert p.entries[0][1] == 1.0
        assert p.mode_used is InterpolationMode.NEAREST
    # snapping is tunable
    p = plan(ring_set, q, "three_point", snap_threshold_deg=0.5)
    assert len(p.entries) == 3


def test_weights_sum_and_bounds(lebedev_set, ring_set):
    rng = np.random.default_rng(21)
    for ir_set in (lebedev_set, ring_set):
        for q in _sphere_directions(rng, 150):
            for mode in ALL_MODES:
                p = plan(ir_set, q, mode)
                ws = [w for _, w in p.entries]
                assert sum(ws) == pytest.approx(1.0, abs=1e-9)
                assert all(0.0 <= w <= 1.0 for w in ws)
                assert 1 <= len(p.entries) <= 3
                idxs = [i for i, _ in p.entries]
                assert len(idxs) == len(set(idxs))
                assert p.mode_used is not InterpolationMode.AUTO
                assert p.achieved_error_deg == pytest.approx(
                    angular_distance(q, p.achieved_direction), abs=1e-9
                )


def test_two_point_ring_midpoint_is_half_half(ring_set):
    # ring at elevation 0, azimuths every 15 degrees: query the midpoint
    q = Direction(7.5, 0.0)
    p = plan(ring_set, q, "two_point")
    assert len(p.entries) == 2
    ws = sorted(w for _, w in p.entries)
    assert ws[0] == pytest.approx(0.5, abs=1e-9)
    els = {ring_set.points[i].direction.elevation_deg for i, _ in p.entries}
    assert els == {0.0}


def test_planar_uses_single_elevation_ring(ring_set):
    q = Direction(100.0, 20.0)  # between rings at 25 and 15... nearest is 25
    p = plan(ring_set, q, "planar")
    assert p.mode_used is InterpolationMode.PLANAR
    assert len(p.entries) == 2
    els = {ring_set.points[i].direction.elevation_deg for i, _ in p.entries}
    assert len(els) == 1
    azs = sorted(ring_set.points[i].direction.azimuth_deg for i, _ in p.entries)
    assert azs == [90.0, 105.0]


def test_two_point_considers_elevation_column(ring_set):
    # directly between two ring elevations on a stored azimuth column
    q = Direction(90.0, 12.0)
    p = plan(ring_set, q, "two_point")
    assert len(p.entries) == 2
    azs = {ring_set.points[i].direction.azimuth_deg for i, _ in p.entries}
    assert azs == {90.0}


def test_three_point_uses_enclosing_triangle(lebedev_set):
    q = Direction(77, 33)
    p = plan(lebedev_set, q, "three_point")
    assert p.mode_used is InterpolationMode.THREE_POINT
    assert len(p.entries) == 3
    tri_sets = [set(t) for t in lebedev_set.triangulation.triangles]
    assert {i for i, _ in p.entries} in tri_sets


def test_auto_dominates_concrete_modes(lebedev_set):
    rng = np.random.default_rng(22)
    concrete = ALL_MODES[:4]
    for q in _sphere_directions(rng, 200):
        best = plan(lebedev_set, q, "auto")
        for mode in concrete:
            p = plan(lebedev_set, q, mode)
            assert best.achieved_error_deg <= p.achieved_error_deg + 1e-12


def test_auto_prefers_fewer_entries_on_ties(lebedev_set):
    # at a stored point every mode collapses to the same answer; auto
    # must report the snapped single-entry plan
    d = lebedev_set.points[5].direction
    p = plan(lebedev_set, d, "auto", snap_threshold_deg=0.0)
    assert len(p.entries) == 1


def test_planar_fallback_on_degenerate_set_warns():
    # a spiral has no two points sharing an elevation ring
    rng = np.random.default_rng(24)
    dirs = [
        Direction(float(az), float(el))
        for az, el in zip(rng.uniform(0, 360, 40), np.linspace(-60, 60, 40))
    ]
    ir_set = synthesize_ir_set(dirs, 48000, 64, seed=3)
    q = Direction(200, 5)
    with pytest.warns(UserWarning, match="planar") as record:
        p = plan(ir_set, q, "planar")
    assert p.mode_used is InterpolationMode.THREE_POINT
    with pytest.warns(UserWarning, match="planar") as more:
        plan_over_directions(dirs, q, "planar")
    with pytest.warns(UserWarning, match="two_point") as two:
        plan_over_directions(dirs[::4], q, "two_point")
    # each warning names the line here that asked for the plan
    assert [w.filename for w in [*record, *more, *two]] == [__file__] * 3


def test_three_point_names_input_points_past_a_merged_duplicate():
    dirs = lebedev50_directions()
    copy = Direction(dirs[0].azimuth_deg + 0.001, dirs[0].elevation_deg)
    dirs.insert(1, copy)
    rng = np.random.default_rng(25)
    queries = [Direction(77.0, 33.0)] + _sphere_directions(rng, 40)
    with pytest.warns(UserWarning, match="merged 1 duplicate"):
        tri = build_triangulation(dirs)
        plans = [plan_over_directions(dirs, q, "three_point", 0.0) for q in queries]
    for q, p in zip(queries, plans):
        assert p == plan_over_directions(dirs, q, "three_point", 0.0, triangulation=tri)
        enc = find_enclosing_triangle(tri, q)
        planned = {
            normalize_direction(dirs[i].azimuth_deg, dirs[i].elevation_deg)
            for i, _ in p.entries
        }
        assert planned == {tri.vertices[k] for k in enc.vertex_indices}
    assert plans[0].achieved_error_deg < 5.0


def test_plans_build_clusters_and_triangulation_once(monkeypatch):
    import binauralkit.geometry as geometry

    calls = {"cluster": 0, "triangulate": 0}
    real_cluster, real_triangulate = geometry._cluster, geometry.build_triangulation

    def cluster(*args, **kwargs):
        calls["cluster"] += 1
        return real_cluster(*args, **kwargs)

    def triangulate(*args, **kwargs):
        calls["triangulate"] += 1
        return real_triangulate(*args, **kwargs)

    monkeypatch.setattr(geometry, "_cluster", cluster)
    monkeypatch.setattr(geometry, "build_triangulation", triangulate)
    ir_set = synthesize_ir_set("lebedev50", 48000, 64, seed=4)
    rng = np.random.default_rng(26)
    for q in _sphere_directions(rng, 20):
        for mode in ALL_MODES:
            plan(ir_set, q, mode, snap_threshold_deg=0.0)
    # one elevation clustering (rings), one azimuth clustering (columns)
    assert calls == {"cluster": 2, "triangulate": 1}


def test_three_point_propagates_missing_triangle():
    dirs = get_layout("7.1.4").speaker_directions()
    with pytest.raises(NoEnclosingTriangleError):
        plan_over_directions(dirs, Direction(0, -85), "three_point")


def test_auto_skips_failed_modes():
    dirs = get_layout("7.1.4").speaker_directions()
    p = plan_over_directions(dirs, Direction(0, -85), "auto")
    assert p.mode_used is not InterpolationMode.THREE_POINT
    assert sum(w for _, w in p.entries) == pytest.approx(1.0, abs=1e-9)


def test_auto_propagates_internal_errors(monkeypatch):
    # auto skips modes that fail with a package error; a bug is not one
    import binauralkit.interpolation as interpolation

    def broken(*args, **kwargs):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(interpolation, "find_enclosing_triangle", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        plan_over_directions(lebedev50_directions(), Direction(77.0, 33.0), "auto")


def test_plan_determinism(lebedev_set):
    rng = np.random.default_rng(25)
    qs = _sphere_directions(rng, 50)
    for mode in ALL_MODES:
        a = [plan(lebedev_set, q, mode) for q in qs]
        b = [plan(lebedev_set, q, mode) for q in qs]
        assert a == b


def test_blend_single_and_linear(lebedev_set):
    d = lebedev_set.points[11].direction
    p = plan(lebedev_set, d, "nearest")
    out = blend(lebedev_set, p)
    assert np.array_equal(out.left, lebedev_set.points[11].left)
    assert np.array_equal(out.right, lebedev_set.points[11].right)

    q = Direction(7.5, 0.0)
    ring = synthesize_ir_set("ring_az_step", 48000, 64, seed=2,
                             step_deg=15.0, elevations=[0.0, 45.0])
    p = plan(ring, q, "two_point")
    out = blend(ring, p)
    manual_l = sum(w * ring.points[i].left for i, w in p.entries)
    assert np.allclose(out.left, manual_l, atol=1e-12)
    assert out.direction == p.achieved_direction


def test_blend_convex_bound(lebedev_set):
    rng = np.random.default_rng(26)
    for q in _sphere_directions(rng, 40):
        p = plan(lebedev_set, q, "auto")
        out = blend(lebedev_set, p)
        stack_l = np.stack([lebedev_set.points[i].left for i, _ in p.entries])
        assert np.all(out.left <= stack_l.max(axis=0) + 1e-12)
        assert np.all(out.left >= stack_l.min(axis=0) - 1e-12)


def test_blend_validates_indices(lebedev_set):
    from binauralkit.interpolation import InterpolationPlan

    bogus = InterpolationPlan(
        InterpolationMode.NEAREST, ((99, 1.0),), Direction(0, 0), 0.0
    )
    with pytest.raises(InvalidArgumentError):
        blend(lebedev_set, bogus)


def test_plan_on_degenerate_collinear_set_auto_works():
    # all points on the equator: no triangulation exists, auto still plans
    dirs = [Direction(az, 0.0) for az in range(0, 360, 30)]
    ir_set = synthesize_ir_set(dirs, 48000, 64, seed=4)
    p = plan(ir_set, Direction(17, 0), "auto")
    assert sum(w for _, w in p.entries) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InsufficientPointsError):
        plan(ir_set, Direction(17, 0), "three_point")
