import math
import warnings
from typing import Sequence
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binauralkit.interpolation as interpolation
from binauralkit.distributions import lebedev50_directions, ring_grid_directions
from binauralkit.errors import (
    BinauralKitError,
    InsufficientPointsError,
    InvalidArgumentError,
    NoEnclosingTriangleError,
)
from binauralkit.geometry import (
    Direction,
    PointIndex,
    angular_distance,
    build_triangulation,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    to_cartesian,
)
from binauralkit.interpolation import (
    InterpolationMode,
    InterpolationPlan,
    _nearest_key,
    _plan,
    blend,
    plan,
    plan_over_directions,
)
from binauralkit.dsp import resolve_speaker_ir_set
from binauralkit.ir_store import IRPoint, IRSet, load_ir_set, save_ir_set, synthesize_ir_set
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
    for m in InterpolationMode:
        for text in (m.value, m.value.upper(), m.value.title()):
            assert InterpolationMode.parse(text) is InterpolationMode(m.value)
    for bad in ("bilinear", "", None, 3, "auto "):
        with pytest.raises(InvalidArgumentError, match="unknown interpolation mode"):
            InterpolationMode.parse(bad)


def test_exact_point_any_mode(lebedev_set):
    d = lebedev_set.points[23].direction
    for mode in ALL_MODES:
        p = plan(lebedev_set, d, mode)
        assert p.entries == ((23, 1.0),)
        assert p.achieved_error_deg == 0.0
        assert p.mode_used is InterpolationMode.NEAREST


def test_snap_rule_all_modes(ring_set, monkeypatch):
    base = ring_set.points[40].direction
    q = Direction(base.azimuth_deg + 1.4, base.elevation_deg - 0.9)
    for mode in ALL_MODES:
        p = plan(ring_set, q, mode)
        assert len(p.entries) == 1
        assert p.entries[0][1] == 1.0
        assert p.mode_used is InterpolationMode.NEAREST
    # the snap follows the module constant
    monkeypatch.setattr(interpolation, "SNAP_THRESHOLD_DEG", 0.5)
    p = plan(ring_set, q, "three_point")
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


def test_auto_prefers_fewer_entries_on_ties(lebedev_set, monkeypatch):
    # at a stored point every mode collapses to the same answer; auto
    # must report the snapped single-entry plan
    monkeypatch.setattr(interpolation, "SNAP_THRESHOLD_DEG", 0.0)
    d = lebedev_set.points[5].direction
    p = plan(lebedev_set, d, "auto")
    assert len(p.entries) == 1


def _spiral():
    # no two points share an elevation ring or an azimuth column
    rng = np.random.default_rng(24)
    return [
        Direction(float(az), float(el))
        for az, el in zip(rng.uniform(0, 360, 40), np.linspace(-60, 60, 40))
    ]


def test_planar_fallback_on_degenerate_set_warns():
    dirs = _spiral()
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


def test_auto_without_rings_or_columns_does_not_warn():
    # auto reports no fallback it does not use; it plans three_point here
    dirs = _spiral()
    ir_set = synthesize_ir_set(dirs, 48000, 64, seed=3)
    q = Direction(200, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = plan(ir_set, q, "auto")
        assert plan_over_directions(dirs, q, "auto") == p
    assert p.mode_used is InterpolationMode.THREE_POINT
    assert p == plan(ir_set, q, "three_point")


def test_three_point_names_input_points_past_a_merged_duplicate(monkeypatch):
    dirs = lebedev50_directions()
    copy = Direction(dirs[0].azimuth_deg + 0.001, dirs[0].elevation_deg)
    dirs.insert(1, copy)
    rng = np.random.default_rng(25)
    queries = [Direction(77.0, 33.0)] + _sphere_directions(rng, 40)
    monkeypatch.setattr(interpolation, "SNAP_THRESHOLD_DEG", 0.0)
    with pytest.warns(UserWarning, match="merged 1 duplicate"):
        tri = build_triangulation(dirs)
        plans = [plan_over_directions(dirs, q, "three_point") for q in queries]
    for q, p in zip(queries, plans):
        assert p == plan_over_directions(dirs, q, "three_point", triangulation=tri)
        enc = find_enclosing_triangle(tri, q)
        planned = {
            normalize_direction(dirs[i].azimuth_deg, dirs[i].elevation_deg)
            for i, _ in p.entries
        }
        assert planned == {tri.vertices[k] for k in enc.vertex_indices}
    assert plans[0].achieved_error_deg < 5.0


def test_raw_angles_plan_like_their_normalized_list(monkeypatch):
    # a ring given with azimuths -30 and 400 (330 and 40), and points given
    # past the pole at elevation 100 (80 on the far side)
    raw = [Direction(az, 0.0) for az in (-30.0, 0.0, 30.0, 400.0)] + [Direction(0.0, 60.0)]
    raw += [Direction(az, 100.0) for az in (0.0, 90.0, 180.0, 270.0)]
    normalized = [normalize_direction(d.azimuth_deg, d.elevation_deg) for d in raw]
    rng = np.random.default_rng(28)
    queries = [Direction(345.0, 0.0), Direction(200.0, 85.0)] + _integer_queries(rng, 40)
    for q in queries:
        for snap in (0.0, 2.0):
            for mode in ALL_MODES:
                assert _outcome(plan_over_directions, raw, q, mode, snap) == _outcome(
                    plan_over_directions, normalized, q, mode, snap
                ), (q, mode, snap)
    # 345 lies between the ring's 330 and 0, on the ring
    monkeypatch.setattr(interpolation, "SNAP_THRESHOLD_DEG", 0.0)
    for mode in ("planar", "two_point", "auto"):
        p = plan_over_directions(raw, Direction(345.0, 0.0), mode)
        assert sorted(i for i, _ in p.entries) == [0, 1]
        assert p.achieved_error_deg < 1e-9


def test_plans_build_clusters_and_triangulation_once(monkeypatch):
    from functools import cached_property

    import binauralkit.geometry as geometry

    calls = {"cluster": 0, "triangulate": 0, "vertex_indices": 0}
    real_cluster, real_triangulate = geometry._cluster, geometry.build_triangulation
    real_vertex_indices = geometry.PointIndex.vertex_indices.func

    def cluster(*args, **kwargs):
        calls["cluster"] += 1
        return real_cluster(*args, **kwargs)

    def triangulate(*args, **kwargs):
        calls["triangulate"] += 1
        return real_triangulate(*args, **kwargs)

    def vertex_indices(index):
        calls["vertex_indices"] += 1
        return real_vertex_indices(index)

    counted = cached_property(vertex_indices)
    counted.__set_name__(geometry.PointIndex, "vertex_indices")
    monkeypatch.setattr(geometry, "_cluster", cluster)
    monkeypatch.setattr(geometry, "build_triangulation", triangulate)
    monkeypatch.setattr(geometry.PointIndex, "vertex_indices", counted)
    monkeypatch.setattr(interpolation, "SNAP_THRESHOLD_DEG", 0.0)
    ir_set = synthesize_ir_set("lebedev50", 48000, 64, seed=4)
    rng = np.random.default_rng(26)
    for q in _sphere_directions(rng, 20):
        for mode in ALL_MODES:
            plan(ir_set, q, mode)
    # one elevation clustering (rings), one azimuth clustering (columns);
    # the triangulation reuses the set's index and its near-duplicate search
    assert calls == {"cluster": 2, "triangulate": 1, "vertex_indices": 1}


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
    for entries in (((99, 1.0),), ((-1, 1.0),), ((0, 0.5), (50, 0.5))):
        bogus = InterpolationPlan(
            InterpolationMode.NEAREST, entries, Direction(0, 0), 0.0
        )
        with pytest.raises(InvalidArgumentError, match="out of range 0..49"):
            blend(lebedev_set, bogus)


def _signed_zero_set():
    """A synthetic set with every other point negated, so its buffers hold
    -0.0 before each onset, built from separate points."""
    base = synthesize_ir_set("lebedev50", 48000, 64, seed=4)
    points = [IRPoint(p.direction, -p.left, -p.right) if i % 2 else p
              for i, p in enumerate(base.points)]
    return IRSet("SGN", "HRIR", 48000, points)


@pytest.mark.parametrize("kind", ["points", "loaded", "synthesized", "7.1.4"])
def test_blend_is_the_per_entry_sum_bit_for_bit(kind, tmp_path):
    """Each blend equals zeros plus w * buffer entry by entry, -0.0 included,
    and leaves the set's stacked array read-only and unchanged."""
    ir_set = _signed_zero_set()
    if kind == "loaded":
        save_ir_set(ir_set, tmp_path)
        ir_set = load_ir_set(tmp_path, "SGN", "HRIR", 48000)
    elif kind == "synthesized":
        ir_set = synthesize_ir_set("lebedev50", 48000, 64, seed=5)
    elif kind == "7.1.4":
        ir_set = resolve_speaker_ir_set(ir_set, get_layout("7.1.4"), "auto")
    negative_zeros = sum(int((np.signbit(p.left) & (p.left == 0.0)).sum()) for p in ir_set.points)
    assert (negative_zeros > 0) == (kind in ("points", "loaded"))
    irs = ir_set.irs
    assert irs.shape == (len(ir_set.points), ir_set.ir_length, 2)
    before = irs.copy()
    n = len(ir_set.points)
    rng = np.random.default_rng(33)
    plans = []
    for q in _sphere_directions(rng, 20):
        for mode in ALL_MODES:
            try:  # three_point finds no triangle below the 7.1.4 speakers
                plans.append(plan(ir_set, q, mode))
            except NoEnclosingTriangleError:
                assert kind == "7.1.4"
    # hand-built: negative and zero weights, a repeated entry, a -0.0 product
    plans += [InterpolationPlan(InterpolationMode.PLANAR, entries, Direction(1.0, 2.0), 0.0)
              for entries in (((1, -1.0),), ((1, 0.0), (0, -0.0)),
                              ((n - 1, 0.25), (0, -1.5), (n - 1, 0.25)))]
    for p in plans:
        left = np.zeros(ir_set.ir_length)
        right = np.zeros(ir_set.ir_length)
        for i, w in p.entries:
            left += w * ir_set.points[i].left
            right += w * ir_set.points[i].right
        out = blend(ir_set, p)
        assert out.direction == p.achieved_direction
        assert out.left.tobytes() == left.tobytes() and out.right.tobytes() == right.tobytes()
        assert not (out.left.flags.writeable or out.right.flags.writeable)
    assert not irs.flags.writeable
    with pytest.raises(ValueError):
        irs[0, 0, 0] = 1.0
    assert ir_set.irs is irs and irs.tobytes() == before.tobytes()
    for i, p in enumerate(ir_set.points):
        assert p.left.tobytes() == irs[i, :, 0].tobytes()
        assert p.right.tobytes() == irs[i, :, 1].tobytes()


@pytest.mark.parametrize("entries", [((16, 1e308), (16, 1e308)), ((3, math.nan),),
                                     ((3, math.inf),)])
def test_blend_rejects_a_non_finite_sum(lebedev_set, entries):
    """Finite weights whose sum overflows, and non-finite weights."""
    assert lebedev_set.irs[16].max() >= 1.0
    bogus = InterpolationPlan(InterpolationMode.TWO_POINT, entries, Direction(0, 0), 0.0)
    # numpy's own overflow and invalid-value warnings are not under test
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidArgumentError, match="non-finite"):
        blend(lebedev_set, bogus)



def test_plan_on_degenerate_collinear_set_auto_works():
    # all points on the equator: no triangulation exists, auto still plans
    dirs = [Direction(az, 0.0) for az in range(0, 360, 30)]
    ir_set = synthesize_ir_set(dirs, 48000, 64, seed=4)
    p = plan(ir_set, Direction(17, 0), "auto")
    assert sum(w for _, w in p.entries) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InsufficientPointsError):
        plan(ir_set, Direction(17, 0), "three_point")


# --- the planner before indexed lookups, kept as the reference ----------
#
# _plan, _ring_pair, _column_pair and their helpers as they were when every
# query scanned all rings and columns and auto ran each concrete mode in
# full (planar included). The indexed planner must return the same plan,
# bit for bit, or raise the same error.

_REF_COINCIDENT_CHORD = 1e-9

# Tie-break order between concrete modes in auto selection.
_REF_MODE_RANK = {
    InterpolationMode.NEAREST: 0,
    InterpolationMode.TWO_POINT: 1,
    InterpolationMode.PLANAR: 2,
    InterpolationMode.THREE_POINT: 3,
}


def _ref_finish(mode: InterpolationMode, indices: Sequence[int], weights: Sequence[float],
                index: PointIndex, requested: Direction) -> InterpolationPlan:
    """Assemble a plan: normalize weights, derive achieved direction/error."""
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    centroid = np.zeros(3)
    for i, w in zip(indices, weights):
        centroid += w * index.cartesians[i]
    norm = float(np.linalg.norm(centroid))
    if norm < 1e-12:
        # antipodal degenerate blend; fall back to the heaviest point
        achieved = index.directions[indices[int(np.argmax(weights))]]
    else:
        achieved = from_cartesian(centroid)
    err = angular_distance(requested, achieved)
    entries = tuple((int(i), float(w)) for i, w in zip(indices, weights))
    return InterpolationPlan(mode, entries, achieved, err)


def _ref_weighted(mode: InterpolationMode, indices: Sequence[int],
                  index: PointIndex, requested: Direction) -> InterpolationPlan:
    """Inverse-chord-distance weights for the given stored points."""
    q = to_cartesian(requested)
    chords = [float(np.linalg.norm(index.cartesians[i] - q)) for i in indices]
    for i, c in zip(indices, chords):
        if c < _REF_COINCIDENT_CHORD:
            return _ref_finish(mode, [i], [1.0], index, requested)
    return _ref_finish(mode, indices, [1.0 / c for c in chords], index, requested)


def _ref_circular_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _ref_ring_pair(index: PointIndex, requested: Direction) -> list[int] | None:
    """Azimuth-bracketing pair on the usable ring nearest in elevation."""
    if not index.rings:
        return None
    el, members = min(
        index.rings, key=lambda r: (abs(r[0] - requested.elevation_deg), r[0])
    )
    azs = [index.directions[i].azimuth_deg for i in members]
    qaz = requested.azimuth_deg
    # cyclic bracket: consecutive pair whose azimuth interval holds qaz
    for k in range(len(members)):
        lo = azs[k]
        hi = azs[(k + 1) % len(members)]
        inside = lo <= qaz < hi if lo < hi else (qaz >= lo or qaz < hi)
        if inside:
            return [members[k], members[(k + 1) % len(members)]]
    return [members[-1], members[0]]


def _ref_column_pair(index: PointIndex, requested: Direction) -> list[int] | None:
    """Elevation-bracketing pair on the usable column nearest in azimuth."""
    if not index.columns:
        return None
    az, members = min(
        index.columns,
        key=lambda c: (_ref_circular_diff(c[0], requested.azimuth_deg), c[0]),
    )
    els = [index.directions[i].elevation_deg for i in members]
    qel = requested.elevation_deg
    for k in range(len(members) - 1):
        if els[k] <= qel <= els[k + 1]:
            return [members[k], members[k + 1]]
    # outside the column's span: nearest end pair
    if qel < els[0]:
        return [members[0], members[1]]
    return [members[-2], members[-1]]


def _ref_plan(index: PointIndex, requested: Direction, mode,
              snap_threshold_deg: float) -> InterpolationPlan:
    mode = InterpolationMode.parse(mode)
    requested = normalize_direction(requested.azimuth_deg, requested.elevation_deg)
    if snap_threshold_deg < 0.0:
        raise InvalidArgumentError(
            f"snap threshold must be >= 0, got {snap_threshold_deg}"
        )

    nearest, nearest_dist = index.nearest(requested)
    if nearest_dist <= snap_threshold_deg:
        return _ref_finish(InterpolationMode.NEAREST, [nearest], [1.0], index, requested)

    # fallback warnings skip run, _ref_plan and plan / plan_over_directions
    def run(concrete: InterpolationMode) -> InterpolationPlan:
        if concrete is InterpolationMode.NEAREST:
            return _ref_finish(concrete, [nearest], [1.0], index, requested)
        if concrete is InterpolationMode.TWO_POINT:
            candidates = []
            for pair in (_ref_ring_pair(index, requested), _ref_column_pair(index, requested)):
                if pair is not None:
                    candidates.append(_ref_weighted(concrete, pair, index, requested))
            if not candidates:
                warnings.warn(
                    "two_point: no usable ring or column; falling back to "
                    "three_point",
                    stacklevel=4,
                )
                return run(InterpolationMode.THREE_POINT)
            return min(candidates, key=lambda p: p.achieved_error_deg)
        if concrete is InterpolationMode.PLANAR:
            pair = _ref_ring_pair(index, requested)
            if pair is None:
                warnings.warn(
                    "planar: no elevation ring with two points; falling back "
                    "to three_point",
                    stacklevel=4,
                )
                return run(InterpolationMode.THREE_POINT)
            return _ref_weighted(concrete, pair, index, requested)
        # three_point
        enc = find_enclosing_triangle(index.triangulation, requested)
        vertices = [index.vertex_indices[i] for i in enc.vertex_indices]
        return _ref_weighted(concrete, vertices, index, requested)

    if mode is not InterpolationMode.AUTO:
        return run(mode)

    candidates = []
    for concrete in (
        InterpolationMode.NEAREST,
        InterpolationMode.TWO_POINT,
        InterpolationMode.PLANAR,
        InterpolationMode.THREE_POINT,
    ):
        try:
            candidates.append((concrete, run(concrete)))
        except BinauralKitError:
            continue
    best = min(
        candidates,
        key=lambda cp: (
            cp[1].achieved_error_deg,
            len(cp[1].entries),
            _REF_MODE_RANK[cp[0]],
        ),
    )
    return best[1]


def _outcome(planner, index, q, mode, snap):
    """The plan's repr, or the package error raised, under snap threshold
    ``snap``: passed to the reference planner, set as the library's
    constant for the others."""
    args = (snap,) if planner is _ref_plan else ()
    with warnings.catch_warnings(), patch.object(interpolation, "SNAP_THRESHOLD_DEG", snap):
        warnings.simplefilter("ignore")
        try:
            return repr(planner(index, q, mode, *args))
        except BinauralKitError as e:
            return f"{type(e).__name__}: {e}"


def _assert_plans_match_reference(dirs, queries):
    index = PointIndex(dirs)
    for q in queries:
        for snap in (0.0, 2.0):
            for mode in ALL_MODES:
                assert _outcome(_plan, index, q, mode, snap) == _outcome(
                    _ref_plan, index, q, mode, snap
                ), (q, mode, snap)


def _integer_queries(rng, n):
    return [Direction(float(az), float(el))
            for az, el in zip(rng.integers(0, 360, n), rng.integers(-90, 91, n))]


def _tie_queries(rng, dirs, n):
    """Queries on and midway between stored elevations and azimuths, where
    ring and column choices and bracket ends tie."""
    els = sorted({d.elevation_deg for d in dirs})
    azs = sorted({d.azimuth_deg for d in dirs})
    els += [(a + b) / 2 for a, b in zip(els, els[1:])]
    azs += [(a + b) / 2 for a, b in zip(azs, azs[1:])] + [(azs[-1] + azs[0] + 360.0) / 2]
    return [Direction(float(rng.choice(azs)), float(rng.choice(els))) for _ in range(n)]


@pytest.mark.parametrize("name", ["lebedev50", "ring15", "spiral", "7.1.4", "antipodal"])
def test_plans_match_reference_planner(name):
    dirs = {
        "lebedev50": lebedev50_directions,
        "ring15": lambda: ring_grid_directions(15.0, [-75, -50, -25, 0, 25, 50, 75]),
        "spiral": _spiral,
        "7.1.4": lambda: get_layout("7.1.4").speaker_directions(),
        # ring and column pairs of opposite points blend to a zero centroid,
        # which falls back to a stored direction, here given unnormalized
        "antipodal": lambda: [Direction(-360.0, 0.0), Direction(-180.0, 0.0),
                              Direction(90.0, 60.0), Direction(90.0, -60.0),
                              Direction(270.0, 30.0)],
    }[name]()
    rng = np.random.default_rng(27)
    queries = _sphere_directions(rng, 100) + _integer_queries(rng, 100)
    queries += _tie_queries(rng, dirs, 100)
    queries += [Direction(d.azimuth_deg + 0.5, d.elevation_deg) for d in dirs]
    _assert_plans_match_reference(dirs, queries)


def test_plans_match_reference_planner_on_the_dense_ring_grid():
    """5 degree rings every 15 degrees from -75 to 75 (792 points), queried
    at cell centres, ring and column edge midpoints, across the 0/360 seam
    and at both poles."""
    els = range(-75, 76, 15)
    dirs = ring_grid_directions(5.0, els)
    queries = [Direction(az + 2.5, el + de) for az in range(0, 360, 5) for el in els
               for de in (0.0, 7.5) if el + de <= 75.0]
    queries += [Direction(float(az), el + 7.5) for az in range(0, 360, 5) for el in els[:-1]]
    queries += [Direction(az, el) for az in (0.0, 1e-9, 359.9999999, 360.0, -2.5)
                for el in (-80.0, -75.0, -7.5, 0.0, 3.0, 75.0, 82.5)]
    queries += [Direction(az, el) for az in (0.0, 137.0) for el in (-90.0, 90.0)]
    _assert_plans_match_reference(dirs, queries)


_AZ = st.floats(0.0, 360.0, exclude_max=True)
_EL = st.floats(-90.0, 90.0)


@st.composite
def _direction_sets(draw):
    """Bare direction lists: random; integer-degree lattices (ties between
    rings, columns and bracket ends), with the poles, with a second copy of
    some points 0.004 deg up (equal azimuths within one ring, 2-member rings
    of equal azimuths), with near-duplicates 0.001 deg away, or with
    azimuths given outside [0, 360)."""
    kind = draw(st.sampled_from(
        ["random", "lattice", "poles", "equal_azimuths", "near_duplicates", "raw"]
    ))
    if kind == "random":
        pts = draw(st.lists(st.tuples(_AZ, _EL), min_size=3, max_size=30))
        return [normalize_direction(az, el) for az, el in pts]
    step = draw(st.sampled_from([15, 30, 45, 60, 90, 120]))
    els = draw(st.lists(st.integers(-85, 85), min_size=1, max_size=4, unique=True))
    dirs = [Direction(float(az), float(el)) for el in els for az in range(0, 360, step)]
    keep = draw(st.lists(st.booleans(), min_size=len(dirs), max_size=len(dirs)))
    dirs = [d for d, k in zip(dirs, keep) if k] or dirs
    extra = draw(st.lists(st.sampled_from(dirs), max_size=6))
    if kind == "poles":
        dirs += [Direction(0.0, 90.0), Direction(0.0, -90.0)]
    elif kind == "equal_azimuths":
        dirs += [Direction(d.azimuth_deg, d.elevation_deg + 0.004) for d in extra]
    elif kind == "near_duplicates":
        dirs += [Direction(d.azimuth_deg + 0.001, d.elevation_deg - 0.001) for d in extra]
    elif kind == "raw":
        # whole columns move by a turn, so they stay columns
        turns = {az: draw(st.sampled_from([-1, 0, 1]))
                 for az in sorted({d.azimuth_deg for d in dirs})}
        dirs = [Direction(d.azimuth_deg + 360.0 * turns[d.azimuth_deg], d.elevation_deg)
                for d in dirs]
    order = draw(st.permutations(range(len(dirs))))
    return [dirs[i] for i in order]


_QUERY = st.one_of(
    st.builds(Direction, _AZ, _EL),
    st.builds(Direction, st.integers(0, 359).map(float), st.integers(-90, 90).map(float)),
)


@settings(max_examples=150, deadline=None)
@given(_direction_sets(), st.lists(_QUERY, min_size=1, max_size=3), st.data())
def test_plans_match_reference_planner_property(dirs, queries, data):
    stored = data.draw(st.lists(st.sampled_from(dirs), max_size=2))
    offset = data.draw(st.sampled_from([0.0, 0.5, 2.0, 7.5]))
    queries += [Direction(d.azimuth_deg + offset, d.elevation_deg) for d in stored]
    queries += _tie_queries(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                            dirs, 3)
    _assert_plans_match_reference(dirs, queries)


@example([-2.0 ** 56, -2.0 ** 56 + 8.0], 7.9)  # both round to distance 2**56
@example([10.0, 20.0], 15.0)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
       st.floats(-90.0, 90.0))
def test_nearest_key_matches_scan(keys, x):
    keys = sorted(keys)
    scan = min(range(len(keys)), key=lambda i: (abs(keys[i] - x), keys[i]))
    assert _nearest_key(keys, x) == scan
    for a, b in zip(keys, keys[1:]):
        mid = a / 2 + b / 2
        scan = min(range(len(keys)), key=lambda i: (abs(keys[i] - mid), keys[i]))
        assert _nearest_key(keys, mid) == scan


# --- plans keep their bits ---------------------------------------------------


def _plan_sets_and_queries():
    """The 792-row 5 degree ring set and lebedev50, each with 300 seeded
    queries, every 7th stored point, points just inside and outside the
    snap, and raw angles past the poles and the azimuth range."""
    sets = [synthesize_ir_set("ring_az_step", 48000, 32, step_deg=5.0,
                              elevations=[float(e) for e in range(-75, 76, 15)]),
            synthesize_ir_set("lebedev50", 48000, 32)]
    v = np.random.default_rng(28).standard_normal((300, 3))
    queries = [normalize_direction(float(a), float(e)) for a, e in zip(
        np.degrees(np.arctan2(v[:, 1], v[:, 0])),
        np.degrees(np.arcsin(v[:, 2] / np.linalg.norm(v, axis=1))))]
    for s in sets:
        stored = [s.directions[k] for k in range(0, len(s.directions), 7)]
        near = [Direction(d.azimuth_deg + dx, d.elevation_deg) for d in stored[:40]
                for dx in (1.9, 2.1, -0.5)]
        raw = [Direction(-30, 100), Direction(400, -95), Direction(0, 90),
               Direction(-0.0, -90)]
        yield s, queries + stored + near + raw


def _plans(s, queries, mode, cold=False):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for q in queries:
            if cold:  # forget every lone point's achieved direction
                s.index.__dict__.pop("_achieved_alone", None)
            out.append(plan(s, q, mode))
    return out


# sha256 over repr((mode_used.value, entries, achieved_direction,
# achieved_error_deg)) of every plan of _plan_sets_and_queries, set by set
# and mode by mode in ALL_MODES' value order below, as the planner gave them
# before it kept each lone point's achieved direction, under numpy 2.4.6 on
# x86_64. Another numpy build may round a dot product differently.
_PLANS_SHA256 = ("2.4.6", "x86_64",
                 "af075ecc3b57408a722588c80910c55f35f262370a16f604112d722c3f1d9558")


def test_plans_keep_their_recorded_bits():
    import hashlib
    import platform

    if (np.__version__, platform.machine()) != _PLANS_SHA256[:2]:
        pytest.skip(f"plans recorded under numpy {_PLANS_SHA256[0]} on {_PLANS_SHA256[1]}")
    h = hashlib.sha256()
    for s, queries in _plan_sets_and_queries():
        for mode in ("nearest", "two_point", "planar", "three_point", "auto"):
            for p in _plans(s, queries, mode):
                h.update(repr((p.mode_used.value, p.entries, p.achieved_direction,
                               p.achieved_error_deg)).encode())
    assert h.hexdigest() == _PLANS_SHA256[2]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_kept_achieved_directions_plan_as_fresh_ones(mode):
    for s, queries in _plan_sets_and_queries():
        cold = _plans(s, queries, mode, cold=True)
        _plans(s, queries, mode)
        assert s.index._achieved_alone  # the warm pass below starts from these
        warm = _plans(s, queries, mode)
        assert [repr(p) for p in warm] == [repr(p) for p in cold]
