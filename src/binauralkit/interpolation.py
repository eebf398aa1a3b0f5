"""Interpolation planning over an IR point set.

A plan names which stored points contribute to a requested direction and
with what weights. Weights are inverse cartesian (chord) distance,
normalized. Requests within ``SNAP_THRESHOLD_DEG`` of a stored point
collapse to that single point regardless of the requested mode.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BinauralKitError, InvalidArgumentError
from .geometry import (
    Direction,
    PointIndex,
    Triangulation,
    angular_distance_from,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    to_cartesian,
)

SNAP_THRESHOLD_DEG = 2.0

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


@dataclass(frozen=True)
class InterpolationPlan:
    """Selected points and weights for one requested direction."""

    mode_used: InterpolationMode
    entries: tuple[tuple[int, float], ...]
    achieved_direction: Direction
    achieved_error_deg: float


def _finish(mode: InterpolationMode, indices: list[int], weights: list[float],
            index: PointIndex, requested: Direction, q: np.ndarray) -> InterpolationPlan:
    """Assemble a plan: normalize weights, derive achieved direction/error.
    ``q`` is the requested direction's cartesian."""
    # left-to-right float sums, the order np.sum takes for under 8 values
    total = sum(weights)
    weights = [w / total for w in weights]
    x = y = z = 0.0
    for w, (cx, cy, cz) in zip(weights, index.cartesians[indices].tolist()):
        x += w * cx
        y += w * cy
        z += w * cz
    centroid = (x, y, z)
    # np.linalg.norm decides only near 1e-12, where a plain sum of squares
    # could round to the other side
    if x * x + y * y + z * z < 2e-24 and np.linalg.norm(centroid) < 1e-12:
        # antipodal degenerate blend; fall back to the heaviest point
        achieved = index.directions[indices[weights.index(max(weights))]]
    else:
        achieved = from_cartesian(centroid)
    err = angular_distance_from(requested, q, achieved)
    return InterpolationPlan(mode, tuple(zip(indices, weights)), achieved, err)


def _weighted(mode: InterpolationMode, indices: list[int], index: PointIndex,
              requested: Direction, q: np.ndarray) -> InterpolationPlan:
    """Inverse-chord-distance weights for the given stored points."""
    chords = [math.sqrt(d.dot(d)) for d in index.cartesians[indices] - q]
    for i, c in zip(indices, chords):
        if c < _COINCIDENT_CHORD:
            return _finish(mode, [i], [1.0], index, requested, q)
    return _finish(mode, indices, [1.0 / c for c in chords], index, requested, q)


def _circular_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _nearest_key(keys: list[float], x: float) -> int:
    """Position of the first minimum of (|k - x|, k) over ascending keys."""
    hi = bisect_left(keys, x)
    lo = hi - 1
    # below x, |k - x| shrinks toward x, and equal distances go to the lower key
    while lo > 0 and abs(keys[lo - 1] - x) == abs(keys[lo] - x):
        lo -= 1
    if lo < 0:
        return hi
    if hi == len(keys):
        return lo
    return hi if abs(keys[hi] - x) < abs(keys[lo] - x) else lo


def _ring_pair(index: PointIndex, requested: Direction) -> list[int] | None:
    """Azimuth-bracketing pair on the usable ring nearest in elevation: the
    first consecutive pair (cyclically) whose azimuth interval holds the
    query. Two equal azimuths hold every query, so the first such pair ends
    the search."""
    if not index.rings:
        return None
    elevations, azimuths, first_equal = index.ring_keys
    r = _nearest_key(elevations, requested.elevation_deg)
    members = index.rings[r][1]
    m = len(members)
    k = bisect_right(azimuths[r], requested.azimuth_deg) - 1
    if not 0 <= k < m - 1:
        k = m - 1  # the wrap pair, last to first
    k = min(k, first_equal[r])
    return [members[k], members[(k + 1) % m]]


def _column_pair(index: PointIndex, requested: Direction) -> list[int] | None:
    """Elevation-bracketing pair on the usable column nearest in azimuth."""
    if not index.columns:
        return None
    azimuths, elevations = index.column_keys
    qaz = requested.azimuth_deg
    # columns lie in [0, 360) more than the clustering tolerance apart, so
    # the nearest is a cyclic neighbour of the query
    i = bisect_left(azimuths, qaz)
    near = (i - 1, i % len(azimuths))
    c = min(near, key=lambda k: (_circular_diff(azimuths[k], qaz), azimuths[k]))
    members = index.columns[c][1]
    # the first pair holding the query; outside the span, the nearest end pair
    k = bisect_left(elevations[c], requested.elevation_deg) - 1
    k = min(max(k, 0), len(members) - 2)
    return [members[k], members[k + 1]]


def _plan(index: PointIndex, requested: Direction, mode) -> InterpolationPlan:
    mode = InterpolationMode.parse(mode)
    requested = normalize_direction(requested.azimuth_deg, requested.elevation_deg)
    q = to_cartesian(requested)
    nearest, nearest_dist = index.nearest_to(q)
    if nearest_dist <= SNAP_THRESHOLD_DEG or mode is InterpolationMode.NEAREST:
        return _finish(InterpolationMode.NEAREST, [nearest], [1.0], index, requested, q)

    def triangle() -> InterpolationPlan:
        enc = find_enclosing_triangle(index.triangulation, requested)
        vertices = [index.vertex_indices[i] for i in enc.vertex_indices]
        return _weighted(InterpolationMode.THREE_POINT, vertices, index, requested, q)

    if mode is InterpolationMode.THREE_POINT:
        return triangle()
    ring = _ring_pair(index, requested)
    if mode is InterpolationMode.PLANAR:
        if ring is None:
            # stacklevel names the caller of plan / plan_over_directions
            warnings.warn(
                "planar: no elevation ring with two points; falling back "
                "to three_point",
                stacklevel=3,
            )
            return triangle()
        return _weighted(mode, ring, index, requested, q)
    pairs = [
        _weighted(InterpolationMode.TWO_POINT, pair, index, requested, q)
        for pair in (ring, _column_pair(index, requested))
        if pair is not None
    ]
    two_point = min(pairs, key=lambda p: p.achieved_error_deg) if pairs else None
    if mode is InterpolationMode.TWO_POINT:
        if two_point is None:
            warnings.warn(
                "two_point: no usable ring or column; falling back to "
                "three_point",
                stacklevel=3,
            )
            return triangle()
        return two_point

    # auto: the least error, then the fewest entries, then the first of
    # nearest, two_point, three_point. Planar is the ring plan, which
    # two_point matches at a lower rank or beats, or else three_point's.
    candidates = [_finish(InterpolationMode.NEAREST, [nearest], [1.0], index, requested, q)]
    if two_point is not None:
        candidates.append(two_point)
    try:
        candidates.append(triangle())
    except BinauralKitError:
        pass
    return min(candidates, key=lambda p: (p.achieved_error_deg, len(p.entries)))


def plan_over_directions(
    dirs: Sequence[Direction],
    requested: Direction,
    mode,
    *,
    triangulation: Triangulation | None = None,
) -> InterpolationPlan:
    """Plan an interpolation over bare directions (no IR buffers needed).

    ``triangulation``, when given, must be ``build_triangulation(dirs)``.
    """
    return _plan(PointIndex(dirs, triangulation), requested, mode)


def plan(ir_set, requested: Direction, mode) -> InterpolationPlan:
    """Plan an interpolation over an IR set's stored directions."""
    return _plan(ir_set.index, requested, mode)


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
