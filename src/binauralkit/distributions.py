"""Point distributions on the sphere used for synthetic IR sets."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, as_number
from .geometry import MERGE_TOLERANCE_DEG, Direction, from_cartesian, normalize_direction, to_cartesian


def lebedev50_directions() -> list[Direction]:
    """The 50-point Lebedev quadrature grid as directions.

    Built from the octahedral symmetry orbits: 6 axis points, 12 edge
    midpoints, 8 cube corners, and one 24-point (a, a, b) orbit with
    a = 0.3015113445777636.
    """
    a = 1.0 / math.sqrt(2.0)
    t = 1.0 / math.sqrt(3.0)
    p = 0.3015113445777636
    q = math.sqrt(1.0 - 2.0 * p * p)
    pts: list[tuple[float, float, float]] = []
    for s in (1.0, -1.0):
        pts += [(s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s)]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            pts += [(0.0, s1 * a, s2 * a), (s1 * a, 0.0, s2 * a), (s1 * a, s2 * a, 0.0)]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                pts.append((s1 * t, s2 * t, s3 * t))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for s3 in (1.0, -1.0):
                pts += [
                    (s1 * p, s2 * p, s3 * q),
                    (s1 * p, s2 * q, s3 * p),
                    (s1 * q, s2 * p, s3 * p),
                ]
    return [from_cartesian(v) for v in pts]


def ring_grid_directions(step_deg: float, elevations: Sequence[float]) -> list[Direction]:
    """Full azimuth rings at the given elevations, sampled every step_deg.

    A ring at +-90 degrees elevation is the pole, emitted once. A step below
    ``MERGE_TOLERANCE_DEG``, or a ring with points ``PointIndex`` merges, is refused first.
    """
    step_deg = as_number(step_deg, "azimuth step", float, InvalidArgumentError)
    if not (0.0 < step_deg <= 180.0):
        raise InvalidArgumentError(f"azimuth step must be in (0, 180], got {step_deg}")
    if step_deg < MERGE_TOLERANCE_DEG:
        raise InvalidArgumentError(
            f"azimuth step {step_deg} is below the {MERGE_TOLERANCE_DEG}-degree "
            "merge tolerance, so no two ring neighbours are distinct"
        )
    elevations = [as_number(el, "ring elevation", float, InvalidArgumentError)
                  for el in elevations]
    if not elevations:
        raise InvalidArgumentError("at least one ring elevation is required")
    rings = [[0.0] if el % 180.0 == 90.0 else np.arange(0.0, 360.0, step_deg).tolist()
             for el in elevations]
    for el, azs in zip(elevations, rings):
        # point 0's nearest are its neighbour and, across the seam, the last point
        for az in azs[1:2] + azs[2:][-1:]:
            u, v = (to_cartesian(normalize_direction(a, el)) for a in (0.0, az))
            if u @ v > math.cos(math.radians(MERGE_TOLERANCE_DEG)):
                raise InvalidArgumentError(f"ring at elevation {el:g}: azimuths 0 and {az:g} are "
                                           f"within the {MERGE_TOLERANCE_DEG}-degree merge tolerance")
    return [normalize_direction(az, el) for el, azs in zip(elevations, rings) for az in azs]
