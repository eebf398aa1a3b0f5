"""Interpolation planning over an IR point set.

A plan names which stored points contribute to a requested direction and
with what weights. Weights are inverse cartesian (chord) distance,
normalized. Requests within ``SNAP_THRESHOLD_DEG`` of a stored point
collapse to that single point regardless of the requested mode.
"""

from __future__ import annotations

import enum
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
    _rowdots,
    angular_distances_from,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    to_cartesian,
)
from .ir_store import IRPoint

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
            return _MODES[str(value).lower()]
        except KeyError:
            valid = ", ".join(m.value for m in cls)
            raise InvalidArgumentError(
                f"unknown interpolation mode {value!r}; expected one of: {valid}"
            ) from None


# each mode by its value, which parse looks up without Enum.__call__
_MODES = {m.value: m for m in InterpolationMode}


@dataclass(frozen=True)
class InterpolationPlan:
    """Selected points and weights for one requested direction."""

    mode_used: InterpolationMode
    entries: tuple[tuple[int, float], ...]
    achieved_direction: Direction
    achieved_error_deg: float


def _best(groups: list[list[tuple[InterpolationMode, list[int]]]], index: PointIndex,
          requested: Direction, q: np.ndarray) -> InterpolationPlan:
    """The plan of the candidate (mode, stored points) of least error within
    its group, then of least error, fewest entries and first place across
    groups. Each weighs its points by inverse chord distance to ``q``, the
    request's cartesian, or takes a coincident point alone. A lone point's
    achieved direction is built once per index and kept."""
    flat = [c for group in groups for c in group]
    carts = index.cartesians.take([i for _, indices in flat for i in indices], axis=0)
    d = carts - q
    chords = np.sqrt(_rowdots(d, d)).tolist()
    rows = carts.tolist()
    alone = index._achieved_alone
    built, end = [], 0
    for mode, indices in flat:
        start, end = end, end + len(indices)
        cs, rs = chords[start:end], rows[start:end]
        if min(cs) < _COINCIDENT_CHORD:
            k = next(j for j, c in enumerate(cs) if c < _COINCIDENT_CHORD)
            indices, rs = [indices[k]], [rs[k]]
        if len(indices) == 1:
            # 1 / c over itself is exactly 1
            weights = [1.0]
            achieved = alone.get(indices[0])
            if achieved is None:
                achieved = alone[indices[0]] = _achieved(index, indices, weights, rs)
        else:
            weights = [1.0 / c for c in cs]
            # left to right, the order np.sum takes for under 8 values; the
            # builtin sum compensates its rounding from Python 3.12 on
            total = 0.0
            for w in weights:
                total += w
            weights = [w / total for w in weights]
            achieved = _achieved(index, indices, weights, rs)
        built.append((mode, indices, weights, achieved))
    errors = angular_distances_from(requested, q, [b[3] for b in built])
    winners, end = [], 0
    for group in groups:
        start, end = end, end + len(group)
        winners.append(min(range(start, end), key=errors.__getitem__))
    best = min(winners, key=lambda j: (errors[j], len(built[j][1])))
    mode, indices, weights, achieved = built[best]
    return InterpolationPlan(mode, tuple(zip(indices, weights)), achieved, errors[best])


def _achieved(index: PointIndex, indices: list[int], weights: list[float],
              rows: list[list[float]]) -> Direction:
    """The direction of the weighted sum of the points' cartesians ``rows``."""
    x = y = z = 0.0
    for w, (cx, cy, cz) in zip(weights, rows):
        x += w * cx
        y += w * cy
        z += w * cz
    # np.linalg.norm decides only near 1e-12, where a plain sum of squares
    # could round to the other side
    if x * x + y * y + z * z < 2e-24 and np.linalg.norm((x, y, z)) < 1e-12:
        # antipodal degenerate blend; fall back to the heaviest point
        return index.directions[indices[weights.index(max(weights))]]
    return from_cartesian((x, y, z))


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
    c = min(near, key=lambda k: (abs((azimuths[k] - qaz + 180.0) % 360.0 - 180.0),
                                  azimuths[k]))
    members = index.columns[c][1]
    # the first pair holding the query; outside the span, the nearest end pair
    k = bisect_left(elevations[c], requested.elevation_deg) - 1
    k = min(max(k, 0), len(members) - 2)
    return [members[k], members[k + 1]]


def _plan(index: PointIndex, requested: Direction, mode) -> InterpolationPlan:
    mode = InterpolationMode.parse(mode)
    requested = normalize_direction(requested.azimuth_deg, requested.elevation_deg)
    q = to_cartesian(requested)
    i, nearest_dist = index.nearest_to(q)
    nearest = [(InterpolationMode.NEAREST, [i])]
    if nearest_dist <= SNAP_THRESHOLD_DEG or mode is InterpolationMode.NEAREST:
        return _best([nearest], index, requested, q)

    def triangle() -> list[tuple[InterpolationMode, list[int]]]:
        enc = find_enclosing_triangle(index.triangulation, requested)
        return [(InterpolationMode.THREE_POINT,
                 [index.vertex_indices[i] for i in enc.vertex_indices])]

    if mode is InterpolationMode.THREE_POINT:
        return _best([triangle()], index, requested, q)
    ring = _ring_pair(index, requested)
    if mode is InterpolationMode.PLANAR:
        pairs = [] if ring is None else [(mode, ring)]
    else:
        # the ring pair wins a tie with the column pair
        pairs = [(InterpolationMode.TWO_POINT, pair)
                 for pair in (ring, _column_pair(index, requested)) if pair is not None]
    if mode is not InterpolationMode.AUTO:
        if pairs:
            return _best([pairs], index, requested, q)
        lacking = ("elevation ring with two points" if mode is InterpolationMode.PLANAR
                   else "usable ring or column")
        # stacklevel names the caller of plan / plan_over_directions
        warnings.warn(f"{mode.value}: no {lacking}; falling back to three_point", stacklevel=3)
        return _best([triangle()], index, requested, q)

    # auto: the least error, then the fewest entries, then the first of
    # nearest, two_point, three_point. Planar is the ring plan, which
    # two_point matches at a lower rank or beats, or else three_point's.
    groups = [nearest, pairs]
    try:
        groups.append(triangle())
    except BinauralKitError:
        pass
    return _best([g for g in groups if g], index, requested, q)


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
    """Weighted sum of the planned IR pairs at the achieved direction: each
    entry's ``(taps, 2)`` block of the set's array added onto zeros in turn,
    kept as the point's ``pair``. Rows of a loaded set not read yet are read
    first (see ``load_ir_set``)."""
    irs = ir_set._with_rows(plan.entries)
    out = np.zeros(irs.shape[1:])
    for i, w in plan.entries:
        if not 0 <= i < len(irs):
            raise InvalidArgumentError(f"plan entry index {i} out of range 0..{len(irs) - 1}")
        out += w * irs[i]
    if not np.isfinite(out).all():
        raise InvalidArgumentError("IR buffers contain non-finite samples")
    out.flags.writeable = False
    return IRPoint._view(plan.achieved_direction, out)
