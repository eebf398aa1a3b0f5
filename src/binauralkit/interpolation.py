"""Interpolation planning over an IR point set.

A plan names which stored points contribute to a requested direction and
with what weights. Weights are inverse cartesian (chord) distance,
normalized. Requests within the snap threshold of a stored point collapse
to that single point regardless of the requested mode.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BinauralKitError, InvalidArgumentError
from .geometry import (
    Direction,
    PointIndex,
    Triangulation,
    angular_distance,
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


def _weighted(mode: InterpolationMode, indices: Sequence[int],
              index: PointIndex, requested: Direction) -> InterpolationPlan:
    """Inverse-chord-distance weights for the given stored points."""
    q = to_cartesian(requested)
    chords = [float(np.linalg.norm(index.cartesians[i] - q)) for i in indices]
    for i, c in zip(indices, chords):
        if c < _COINCIDENT_CHORD:
            return _finish(mode, [i], [1.0], index, requested)
    return _finish(mode, indices, [1.0 / c for c in chords], index, requested)


def _circular_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _ring_pair(index: PointIndex, requested: Direction) -> list[int] | None:
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


def _column_pair(index: PointIndex, requested: Direction) -> list[int] | None:
    """Elevation-bracketing pair on the usable column nearest in azimuth."""
    if not index.columns:
        return None
    az, members = min(
        index.columns,
        key=lambda c: (_circular_diff(c[0], requested.azimuth_deg), c[0]),
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


def _plan(index: PointIndex, requested: Direction, mode,
          snap_threshold_deg: float) -> InterpolationPlan:
    mode = InterpolationMode.parse(mode)
    requested = normalize_direction(requested.azimuth_deg, requested.elevation_deg)
    if snap_threshold_deg < 0.0:
        raise InvalidArgumentError(
            f"snap threshold must be >= 0, got {snap_threshold_deg}"
        )

    nearest, nearest_dist = index.nearest(requested)
    if nearest_dist <= snap_threshold_deg:
        return _finish(InterpolationMode.NEAREST, [nearest], [1.0], index, requested)

    # fallback warnings skip run, _plan and plan / plan_over_directions
    def run(concrete: InterpolationMode) -> InterpolationPlan:
        if concrete is InterpolationMode.NEAREST:
            return _finish(concrete, [nearest], [1.0], index, requested)
        if concrete is InterpolationMode.TWO_POINT:
            candidates = []
            for pair in (_ring_pair(index, requested), _column_pair(index, requested)):
                if pair is not None:
                    candidates.append(_weighted(concrete, pair, index, requested))
            if not candidates:
                warnings.warn(
                    "two_point: no usable ring or column; falling back to "
                    "three_point",
                    stacklevel=4,
                )
                return run(InterpolationMode.THREE_POINT)
            return min(candidates, key=lambda p: p.achieved_error_deg)
        if concrete is InterpolationMode.PLANAR:
            pair = _ring_pair(index, requested)
            if pair is None:
                warnings.warn(
                    "planar: no elevation ring with two points; falling back "
                    "to three_point",
                    stacklevel=4,
                )
                return run(InterpolationMode.THREE_POINT)
            return _weighted(concrete, pair, index, requested)
        # three_point
        enc = find_enclosing_triangle(index.triangulation, requested)
        vertices = [index.vertex_indices[i] for i in enc.vertex_indices]
        return _weighted(concrete, vertices, index, requested)

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


def plan_over_directions(
    dirs: Sequence[Direction],
    requested: Direction,
    mode,
    snap_threshold_deg: float = SNAP_THRESHOLD_DEG,
    *,
    triangulation: Triangulation | None = None,
) -> InterpolationPlan:
    """Plan an interpolation over bare directions (no IR buffers needed).

    ``triangulation``, when given, must be ``build_triangulation(dirs)``.
    """
    return _plan(PointIndex(dirs, triangulation), requested, mode, snap_threshold_deg)


def plan(
    ir_set,
    requested: Direction,
    mode,
    snap_threshold_deg: float = SNAP_THRESHOLD_DEG,
) -> InterpolationPlan:
    """Plan an interpolation over an IR set's stored directions."""
    return _plan(ir_set.index, requested, mode, snap_threshold_deg)


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
