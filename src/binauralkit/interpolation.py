"""Interpolation planning over an IR point set.

A plan names which stored points contribute to a requested direction and
with what weights. Weights are inverse cartesian (chord) distance,
normalized. Requests within the snap threshold of a stored point collapse
to that single point regardless of the requested mode.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BinauralKitError, InsufficientPointsError, InvalidArgumentError
from .geometry import (
    Direction,
    Triangulation,
    angular_distance,
    apply_frame,
    build_triangulation,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    rotated_frame,
    to_cartesian,
)

SNAP_THRESHOLD_DEG = 2.0

# Two stored angles within this tolerance belong to the same ring or column.
_PLANE_TOLERANCE_DEG = 0.01

# Below this chord distance the request coincides with a stored point.
_COINCIDENT_CHORD = 1e-9


class InterpolationMode(enum.Enum):
    NEAREST = "nearest"
    TWO_POINT = "two_point"
    PLANAR = "planar"
    THREE_POINT = "three_point"
    AUTO = "auto"

    @classmethod
    def parse(cls, value) -> "InterpolationMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise InvalidArgumentError(
                f"unknown interpolation mode {value!r}; expected one of: {valid}"
            ) from None


# Tie-break order between concrete modes in auto selection.
_MODE_RANK = {
    InterpolationMode.NEAREST: 0,
    InterpolationMode.TWO_POINT: 1,
    InterpolationMode.PLANAR: 2,
    InterpolationMode.THREE_POINT: 3,
}


@dataclass(frozen=True)
class InterpolationPlan:
    """Selected points and weights for one requested direction."""

    mode_used: InterpolationMode
    entries: tuple[tuple[int, float], ...]
    achieved_direction: Direction
    achieved_error_deg: float


def _finish(mode: InterpolationMode, indices: Sequence[int], weights: Sequence[float],
            dirs: Sequence[Direction], requested: Direction) -> InterpolationPlan:
    """Assemble a plan: normalize weights, derive achieved direction/error."""
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    centroid = np.zeros(3)
    for i, w in zip(indices, weights):
        centroid += w * to_cartesian(dirs[i])
    norm = float(np.linalg.norm(centroid))
    if norm < 1e-12:
        # antipodal degenerate blend; fall back to the heaviest point
        achieved = dirs[indices[int(np.argmax(weights))]]
    else:
        achieved = from_cartesian(centroid)
    err = angular_distance(requested, achieved)
    entries = tuple((int(i), float(w)) for i, w in zip(indices, weights))
    return InterpolationPlan(mode, entries, achieved, err)


def _weighted(mode: InterpolationMode, indices: Sequence[int],
              dirs: Sequence[Direction], requested: Direction) -> InterpolationPlan:
    """Inverse-chord-distance weights for the given stored points."""
    q = to_cartesian(requested)
    chords = [float(np.linalg.norm(to_cartesian(dirs[i]) - q)) for i in indices]
    for i, c in zip(indices, chords):
        if c < _COINCIDENT_CHORD:
            return _finish(mode, [i], [1.0], dirs, requested)
    return _finish(mode, indices, [1.0 / c for c in chords], dirs, requested)


def _cluster(values: Sequence[float], circular: bool) -> list[tuple[float, list[int]]]:
    """Group indices whose value matches within _PLANE_TOLERANCE_DEG.

    Returns (representative value, member indices) pairs. With ``circular``
    the values wrap at 360.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    groups: list[tuple[float, list[int]]] = []
    for i in order:
        v = values[i]
        if groups and abs(v - groups[-1][0]) <= _PLANE_TOLERANCE_DEG:
            groups[-1][1].append(i)
            continue
        groups.append((v, [i]))
    if circular and len(groups) > 1:
        first_v, first_members = groups[0]
        last_v, _ = groups[-1]
        if (360.0 - last_v) + first_v <= _PLANE_TOLERANCE_DEG:
            groups[-1][1].extend(first_members)
            groups.pop(0)
    return groups


def _circular_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _ring_pair(dirs: Sequence[Direction], requested: Direction) -> list[int] | None:
    """Azimuth-bracketing pair on the usable ring nearest in elevation."""
    rings = [
        (el, members)
        for el, members in _cluster([d.elevation_deg for d in dirs], circular=False)
        if len(members) >= 2
    ]
    if not rings:
        return None
    el, members = min(
        rings, key=lambda r: (abs(r[0] - requested.elevation_deg), r[0])
    )
    members = sorted(members, key=lambda i: dirs[i].azimuth_deg)
    azs = [dirs[i].azimuth_deg for i in members]
    qaz = requested.azimuth_deg
    # cyclic bracket: consecutive pair whose azimuth interval holds qaz
    for k in range(len(members)):
        lo = azs[k]
        hi = azs[(k + 1) % len(members)]
        inside = lo <= qaz < hi if lo < hi else (qaz >= lo or qaz < hi)
        if inside:
            return [members[k], members[(k + 1) % len(members)]]
    return [members[-1], members[0]]


def _column_pair(dirs: Sequence[Direction], requested: Direction) -> list[int] | None:
    """Elevation-bracketing pair on the usable column nearest in azimuth."""
    columns = [
        (az, members)
        for az, members in _cluster([d.azimuth_deg for d in dirs], circular=True)
        if len(members) >= 2
    ]
    if not columns:
        return None
    az, members = min(
        columns,
        key=lambda c: (_circular_diff(c[0], requested.azimuth_deg), c[0]),
    )
    members = sorted(members, key=lambda i: dirs[i].elevation_deg)
    qel = requested.elevation_deg
    for k in range(len(members) - 1):
        if dirs[members[k]].elevation_deg <= qel <= dirs[members[k + 1]].elevation_deg:
            return [members[k], members[k + 1]]
    # outside the column's span: nearest end pair
    if qel < dirs[members[0]].elevation_deg:
        return [members[0], members[1]]
    return [members[-2], members[-1]]


def plan_over_directions(
    dirs: Sequence[Direction],
    requested: Direction,
    mode,
    snap_threshold_deg: float = SNAP_THRESHOLD_DEG,
    *,
    triangulation: Triangulation | None = None,
    barycentric: bool = False,
) -> InterpolationPlan:
    """Plan an interpolation over bare directions (no IR buffers needed)."""
    mode = InterpolationMode.parse(mode)
    requested = normalize_direction(requested.azimuth_deg, requested.elevation_deg)
    if snap_threshold_deg < 0.0:
        raise InvalidArgumentError(
            f"snap threshold must be >= 0, got {snap_threshold_deg}"
        )

    carts = np.array([to_cartesian(d) for d in dirs])
    dots = carts @ to_cartesian(requested)
    nearest = int(np.argmax(dots))
    nearest_dist = math.degrees(math.acos(max(-1.0, min(1.0, float(dots[nearest])))))
    if nearest_dist <= snap_threshold_deg:
        return _finish(InterpolationMode.NEAREST, [nearest], [1.0], dirs, requested)

    def run(concrete: InterpolationMode) -> InterpolationPlan:
        if concrete is InterpolationMode.NEAREST:
            return _finish(concrete, [nearest], [1.0], dirs, requested)
        if concrete is InterpolationMode.TWO_POINT:
            candidates = []
            for pair in (_ring_pair(dirs, requested), _column_pair(dirs, requested)):
                if pair is not None:
                    candidates.append(_weighted(concrete, pair, dirs, requested))
            if not candidates:
                warnings.warn(
                    "two_point: no usable ring or column; falling back to "
                    "three_point",
                    stacklevel=3,
                )
                return run(InterpolationMode.THREE_POINT)
            return min(candidates, key=lambda p: p.achieved_error_deg)
        if concrete is InterpolationMode.PLANAR:
            pair = _ring_pair(dirs, requested)
            if pair is None:
                warnings.warn(
                    "planar: no elevation ring with two points; falling back "
                    "to three_point",
                    stacklevel=3,
                )
                return run(InterpolationMode.THREE_POINT)
            return _weighted(concrete, pair, dirs, requested)
        # three_point
        tri = triangulation if triangulation is not None else build_triangulation(dirs)
        enc = find_enclosing_triangle(tri, requested)
        if barycentric:
            return _barycentric_plan(tri, enc, dirs, requested)
        return _weighted(concrete, list(enc.vertex_indices), dirs, requested)

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
            _MODE_RANK[cp[0]],
        ),
    )
    return best[1]


def _barycentric_plan(tri: Triangulation, enc, dirs, requested) -> InterpolationPlan:
    """Optional weight law: planar barycentric coordinates in the frame used."""
    frame = rotated_frame(tri, enc.rotated_azimuth, enc.rotated_elevation)
    q = apply_frame(requested, enc.rotated_azimuth, enc.rotated_elevation)
    i, j, k = enc.vertex_indices
    a, b, c = (frame.frame_coords[n] for n in (i, j, k))
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    u = ((q.azimuth_deg - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (q.elevation_deg - a[1])) / det
    v = ((b[0] - a[0]) * (q.elevation_deg - a[1]) - (q.azimuth_deg - a[0]) * (b[1] - a[1])) / det
    w = np.clip([1.0 - u - v, u, v], 0.0, None)
    return _finish(InterpolationMode.THREE_POINT, [i, j, k], w, dirs, requested)


def plan(
    ir_set,
    requested: Direction,
    mode,
    snap_threshold_deg: float = SNAP_THRESHOLD_DEG,
    *,
    barycentric: bool = False,
) -> InterpolationPlan:
    """Plan an interpolation over an IR set's stored directions."""
    tri = None
    if InterpolationMode.parse(mode) in (InterpolationMode.THREE_POINT,
                                         InterpolationMode.AUTO):
        try:
            tri = ir_set.triangulation
        except InsufficientPointsError:
            # degenerate projection: three_point will raise on its own,
            # auto will skip it
            tri = None
    return plan_over_directions(
        ir_set.directions,
        requested,
        mode,
        snap_threshold_deg,
        triangulation=tri,
        barycentric=barycentric,
    )


def blend(ir_set, plan: InterpolationPlan):
    """Weighted sum of the planned IR pairs at the achieved direction."""
    from .ir_store import IRPoint

    n = len(ir_set.points)
    for i, _ in plan.entries:
        if not 0 <= i < n:
            raise InvalidArgumentError(f"plan entry index {i} out of range 0..{n - 1}")
    left = np.zeros(ir_set.ir_length)
    right = np.zeros(ir_set.ir_length)
    for i, w in plan.entries:
        left += w * ir_set.points[i].left
        right += w * ir_set.points[i].right
    return IRPoint(plan.achieved_direction, left, right)
