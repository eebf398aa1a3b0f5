"""Spherical directions, the equirectangular projection, and a Delaunay
triangulation of projected directions with rotation fallback for queries
that land outside the mesh.

Triangulation is done in the (azimuth, elevation) plane. The plane is not
periodic, so a query near the azimuth seam or a pole can fall outside every
triangle; ``find_enclosing_triangle`` then retries in rotated frames.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InsufficientPointsError,
    InvalidArgumentError,
    NoEnclosingTriangleError,
)

# Directions closer than this (great-circle degrees) count as the same point.
MERGE_TOLERANCE_DEG = 0.01

# Two stored angles within this tolerance belong to the same ring or column.
_PLANE_TOLERANCE_DEG = 0.01

# Slack on barycentric coordinates when testing point-in-triangle. Keeps
# queries that sit exactly on an edge or vertex from being rejected by
# rounding noise, while staying well inside the 1e-9 acceptance tolerance.
_BARY_SLACK = 1e-12

# Super-triangle vertices, far outside the data rectangle. Data coordinates
# never exceed a few hundred degrees so these never interfere with any
# circumcircle a covering set can produce.
_SUPER = ((180.0, 300000.0), (-300000.0, -200000.0), (300360.0, -200000.0))

_FRAME_ORDER = ((False, False), (True, False), (False, True), (True, True))

# Near-duplicate search axis: a unit vector off every grid symmetry, so rows
# of ring and lattice sets rarely share a projection.
_SORT_AXIS = np.array([0.6, 0.48, 0.64])


@dataclass(frozen=True)
class Direction:
    """A direction on the sphere.

    Azimuth is in [0, 360) with 0 straight ahead and positive values turning
    counter-clockwise (to the listener's left). Elevation is in [-90, 90].
    Use :func:`normalize_direction` to construct from arbitrary angles.
    """

    azimuth_deg: float
    elevation_deg: float


@dataclass(frozen=True)
class EnclosingTriangle:
    """Result of a mesh query: vertex indices plus the frame that matched."""

    vertex_indices: tuple[int, int, int]
    rotated_azimuth: bool
    rotated_elevation: bool


def normalize_direction(azimuth_deg: float, elevation_deg: float) -> Direction:
    """Map any (azimuth, elevation) pair to the canonical ranges.

    Elevation folds over the poles: (az, 100) is the same physical point as
    (az + 180, 80), applied modularly. Directions at |elevation| == 90
    collapse to azimuth 0 so each pole is a single point.
    """
    if not (math.isfinite(azimuth_deg) and math.isfinite(elevation_deg)):
        raise InvalidArgumentError(
            f"direction ({azimuth_deg}, {elevation_deg}) is not finite"
        )
    # exact idempotence: in-range values pass through untouched
    if 0.0 <= azimuth_deg < 360.0 and -90.0 < elevation_deg < 90.0:
        return Direction(azimuth_deg + 0.0, elevation_deg + 0.0)
    el = elevation_deg % 360.0
    az = azimuth_deg
    if el > 270.0:
        el -= 360.0
    elif el > 90.0:
        el = 180.0 - el
        az += 180.0
    az %= 360.0
    # a tiny negative azimuth rounds up to 360.0, which is azimuth 0
    if abs(el) == 90.0 or az == 360.0:
        az = 0.0
    # + 0.0 normalizes a possible -0.0
    return Direction(az + 0.0, el + 0.0)


def to_cartesian(d: Direction) -> np.ndarray:
    """Unit vector for a direction: x front, y left, z up."""
    return np.array(_unit_vector(d))


def _unit_vector(d: Direction) -> tuple[float, float, float]:
    """:func:`to_cartesian` as a tuple of floats."""
    az = math.radians(d.azimuth_deg)
    el = math.radians(d.elevation_deg)
    ce = math.cos(el)
    return ce * math.cos(az), ce * math.sin(az), math.sin(el)


def from_cartesian(v: Sequence[float]) -> Direction:
    """Direction for a (not necessarily unit) cartesian vector."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0 or not math.isfinite(norm):
        raise InvalidArgumentError(f"cannot normalize vector ({x}, {y}, {z})")
    az = math.degrees(math.atan2(y, x))
    el = math.degrees(math.asin(max(-1.0, min(1.0, z / norm))))
    return normalize_direction(az, el)


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle distance in degrees via arccos of the dot product."""
    na = normalize_direction(a.azimuth_deg, a.elevation_deg)
    nb = normalize_direction(b.azimuth_deg, b.elevation_deg)
    return angular_distances_from(na, to_cartesian(na), [nb])[0]


def angular_distances_from(a: Direction, a_cartesian: np.ndarray,
                           bs: Sequence[Direction]) -> list[float]:
    """:func:`angular_distance` from ``a`` to each of ``bs``, all normalized,
    given a's cartesian; one numpy call takes every dot."""
    dots = _rowdots(np.array([_unit_vector(b) for b in bs]), a_cartesian).tolist()
    # arccos loses ~1e-6 deg of precision near 0; equal directions are 0
    return [0.0 if a == b else math.degrees(math.acos(max(-1.0, min(1.0, t))))
            for b, t in zip(bs, dots)]


def _rowdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of ``a`` dotted with row i of ``b``, or with ``b`` if it is one
    vector, bit-equal to ``a[i].dot(b[i])``: a stack of row-by-column
    products takes the same vector dot per row."""
    return (a[:, None, :] @ b[..., None]).ravel()


def apply_frame(d: Direction, rotated_azimuth: bool, rotated_elevation: bool) -> Direction:
    """Map a direction into one of the fallback projection frames.

    The azimuth rotation shifts every azimuth by 180 degrees, moving the
    projection seam to the other side of the sphere. The elevation rotation
    is a half-turn of the sphere about the (0, 1, 1) diagonal axis, which
    moves both poles onto the equator so polar queries land in the interior
    of the rotated projection. When both flags are set the azimuth shift is
    applied first.
    """
    if rotated_azimuth:
        d = normalize_direction(d.azimuth_deg + 180.0, d.elevation_deg)
    if rotated_elevation:
        x, y, z = to_cartesian(d)
        d = from_cartesian((-x, z, y))
    return d


# ---------------------------------------------------------------------------
# predicates
#
# Coordinates are floats, hence exact binary rationals. Scaling every operand
# by the largest power-of-two denominator turns the orientation and in-circle
# determinants into exact integer arithmetic. Each test first evaluates its
# determinant in float64 and keeps the sign when |det| exceeds Shewchuk's
# static error bound (ccwerrboundA and iccerrboundA of "Adaptive precision
# floating-point arithmetic and fast robust geometric predicates", 1997); a
# sign in doubt is decided by the exact integer path, so every sign is the
# exact one.

_EPS = 2.0 ** -53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def _float_filter_safe(coords: np.ndarray) -> bool:
    """True when the float bounds hold for every test over ``coords``.

    The bounds assume no underflow or overflow. With every coordinate 0 or
    of magnitude in [2**-100, 2**200], every nonzero difference is at least
    2**-152 (a multiple of the ulp of 2**-100), so every nonzero value in
    either determinant and its bound stays within [2**-720, 2**820]. Other
    sets, tiny or subnormal coordinates included, take the exact path for
    every test.
    """
    a = np.abs(coords)
    nonzero = a[a != 0.0]
    return bool(
        np.all(np.isfinite(a))
        and (nonzero.size == 0
             or (nonzero.min() >= 2.0 ** -100 and nonzero.max() <= 2.0 ** 200))
    )


def _as_scaled_ints(values: Iterable[float]) -> list[int]:
    ratios = [float(v).as_integer_ratio() for v in values]
    common = max(den for _, den in ratios)
    return [num * (common // den) for num, den in ratios]


def _orient_sign(ax, ay, bx, by, cx, cy) -> int:
    ax, ay, bx, by, cx, cy = _as_scaled_ints((ax, ay, bx, by, cx, cy))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _orient(ax, ay, bx, by, cx, cy, fast: bool) -> int:
    """Sign of the orientation of abc (+1 counter-clockwise); with ``fast``
    the float determinant decides when its sign is certain."""
    if fast:
        detleft = (bx - ax) * (cy - ay)
        detright = (by - ay) * (cx - ax)
        det = detleft - detright
        errbound = _CCW_BOUND * (abs(detleft) + abs(detright))
        if det > errbound:
            return 1
        if -det > errbound:
            return -1
    return _orient_sign(ax, ay, bx, by, cx, cy)


def _incircle_strict(ax, ay, bx, by, cx, cy, px, py) -> bool:
    """Exact test: is p strictly inside the circumcircle of triangle abc?"""
    ax, ay, bx, by, cx, cy, px, py = _as_scaled_ints(
        (ax, ay, bx, by, cx, cy, px, py)
    )
    adx = ax - px
    ady = ay - py
    bdx = bx - px
    bdy = by - py
    cdx = cx - px
    cdy = cy - py
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    orient = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if orient == 0:
        return False
    return det > 0 if orient > 0 else det < 0


def circumcircle(ax, ay, bx, by, cx, cy) -> tuple[float, float, float]:
    """Float circumcenter and squared radius; (0, 0, inf) when degenerate."""
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return 0.0, 0.0, math.inf
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2


# ---------------------------------------------------------------------------
# Bowyer-Watson


def _triangulate_plane(coords: np.ndarray) -> list[tuple[int, int, int]]:
    """Incremental Bowyer-Watson over planar coordinates.

    coords must hold pairwise-distinct rows. Returns triangles as sorted
    index triples in sorted order. Raises InsufficientPointsError when the
    points are all collinear, as fewer than three always are.
    """
    n = len(coords)
    pts = np.vstack([coords, np.array(_SUPER)])
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    fast = _float_filter_safe(pts)
    if all(
        _orient(xs[0], ys[0], xs[1], ys[1], xs[k], ys[k], fast) == 0
        for k in range(2, n)
    ):
        raise InsufficientPointsError(
            f"all {n} points are collinear in the projection plane"
        )

    # Slot t holds triangle t as a counter-clockwise index triple. The cavity
    # of p is star-shaped from p, so its m triangles give way to m + 2, each
    # (u, v, p) for a boundary edge (u, v) taken counter-clockwise: they fill
    # the cavity's slots and slots 2p + 1 and 2p + 2, so 2p + 1 are live
    # before p is inserted.
    size = 2 * n + 1
    ccx = np.empty(size)
    ccy = np.empty(size)
    lim = np.empty(size)  # prefilter bound on the squared centre distance
    tris = [(n, n + 1, n + 2)] * size  # _SUPER is counter-clockwise as listed
    corners: list[tuple[float, ...]] = [()] * size

    def put(t: int, i: int, j: int, k: int) -> None:
        tris[t] = (i, j, k)
        corners[t] = (xs[i], ys[i], xs[j], ys[j], xs[k], ys[k])
        ccx[t], ccy[t], r2 = circumcircle(*corners[t])
        lim[t] = r2 * 1.0001 + 1e-4

    put(0, n, n + 1, n + 2)

    for p in range(n):
        px, py = xs[p], ys[p]
        count = 2 * p + 1
        d2 = (ccx[:count] - px) ** 2 + (ccy[:count] - py) ** 2
        # generous float prefilter; the in-circle test decides each candidate
        bad: list[int] = []
        for t in np.flatnonzero(d2 <= lim[:count]).tolist():
            ax, ay, bx, by, cx, cy = corners[t]
            if fast:
                adx = ax - px
                ady = ay - py
                bdx = bx - px
                bdy = by - py
                cdx = cx - px
                cdy = cy - py
                bdxcdy = bdx * cdy
                cdxbdy = cdx * bdy
                cdxady = cdx * ady
                adxcdy = adx * cdy
                adxbdy = adx * bdy
                bdxady = bdx * ady
                alift = adx * adx + ady * ady
                blift = bdx * bdx + bdy * bdy
                clift = cdx * cdx + cdy * cdy
                det = (
                    alift * (bdxcdy - cdxbdy)
                    + blift * (cdxady - adxcdy)
                    + clift * (adxbdy - bdxady)
                )
                errbound = _ICC_BOUND * (
                    (abs(bdxcdy) + abs(cdxbdy)) * alift
                    + (abs(cdxady) + abs(adxcdy)) * blift
                    + (abs(adxbdy) + abs(bdxady)) * clift
                )
                if det > errbound:
                    bad.append(t)
                    continue
                if -det > errbound:
                    continue
            if _incircle_strict(ax, ay, bx, by, cx, cy, px, py):
                bad.append(t)
        if not bad:
            raise RuntimeError(
                f"no triangle circumcircle contains point {p}; "
                "super-triangle too small or duplicate input"
            )
        edges = {(tris[t][a - 1], tris[t][a]) for t in bad for a in range(3)}
        boundary = sorted((u, v) for u, v in edges if (v, u) not in edges)
        for t, (u, v) in zip(bad + [count, count + 1], boundary, strict=True):
            put(t, u, v, p)

    return sorted((a, b, c) for a, b, c in map(sorted, tris) if c < n)


def _frame_coords(vertices: Sequence[Direction], rotated_azimuth: bool,
                  rotated_elevation: bool) -> np.ndarray:
    """(azimuth, elevation) rows of the vertices mapped into one frame."""
    frame_dirs = [apply_frame(v, rotated_azimuth, rotated_elevation) for v in vertices]
    return np.array([[d.azimuth_deg, d.elevation_deg] for d in frame_dirs])


class Triangulation:
    """Delaunay triangulation of directions in one equirectangular frame.

    ``vertices`` are the (normalized, distinct) input directions and
    ``triangles`` index into them. Rotated sibling frames are built lazily
    and cached when :func:`find_enclosing_triangle` needs them.
    """

    def __init__(
        self,
        vertices: Sequence[Direction],
        triangles: Sequence[tuple[int, int, int]],
        frame_coords: np.ndarray,
        rotated_azimuth: bool = False,
        rotated_elevation: bool = False,
    ):
        self.vertices: tuple[Direction, ...] = tuple(vertices)
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(
            tuple(t) for t in triangles
        )
        self.rotated_azimuth = bool(rotated_azimuth)
        self.rotated_elevation = bool(rotated_elevation)
        # (azimuth, elevation) of each vertex in this frame, as triangulated
        self.frame_coords = frame_coords
        self._frames: dict[tuple[bool, bool], Triangulation | None] = {
            (self.rotated_azimuth, self.rotated_elevation): self
        }
        self._cells = None

    def edges(self) -> list[tuple[int, int]]:
        out = set()
        for i, j, k in self.triangles:
            for u, v in ((i, j), (j, k), (k, i)):
                out.add((u, v) if u < v else (v, u))
        return sorted(out)

    def _build_cells(self):
        """Bucket the triangles in a grid of about one cell per triangle,
        each under every cell its widened bounding box meets.

        A query in [0, 360) x [-90, 90] that the barycentric test accepts
        lies within 2t times the larger side of the triangle's box, t being
        the slack plus a bound on the rounding of u and v. Boxes are widened
        by twice that; a triangle with t not small goes in every cell, one
        with det == 0 (never accepted) in none.
        """
        tri = np.array(self.triangles)
        a, b, c = (self.frame_coords[tri[:, n]] for n in range(3))
        (m00, m10), (m01, m11) = (b - a).T, (c - a).T
        det = m00 * m11 - m01 * m10
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = 2.0 * _BARY_SLACK + 64.0 * _EPS * (
                360.0 * (np.abs(m00) + np.abs(m01) + np.abs(m10) + np.abs(m11))
                + np.abs(m00 * m11) + np.abs(m01 * m10)) / np.abs(det)
        margin = np.where(t < 0.25, 4.0 * t * (hi - lo).max(axis=1) + 1e-6, math.inf)
        (x0, y0), (x1, y1) = self.frame_coords.min(axis=0), self.frame_coords.max(axis=0)
        nx = max(1, round(math.sqrt(len(tri) * (x1 - x0) / (y1 - y0))))
        ny = max(1, round(len(tri) / nx))
        origin, size = np.array([x0, y0]), np.array([(x1 - x0) / nx, (y1 - y0) / ny])
        # _locate finds a query's cell by the same float steps, so the cell
        # lies in the range of every box that holds the query
        first, last = (np.clip(np.floor((v - origin) / size), 0, (nx - 1, ny - 1))
                       .astype(int).tolist()
                       for v in (lo - margin[:, None], hi + margin[:, None]))
        cells: list[list[tuple]] = [[] for _ in range(nx * ny)]
        rows = zip(*(v.tolist() for v in (a[:, 0], a[:, 1], m00, m01, m10, m11, det)))
        for k, ((i0, j0), (i1, j1), row) in enumerate(zip(first, last, rows)):
            if row[-1] == 0.0:
                continue
            entry = (k, *row)
            for j in range(j0, j1 + 1):
                for i in range(i0, i1 + 1):
                    cells[j * nx + i].append(entry)
        return *origin.tolist(), *size.tolist(), nx, ny, cells

    def _locate(self, az: float, el: float) -> int | None:
        """Index of the first triangle (canonical order) containing (az, el)."""
        if not self.triangles:
            return None
        if self._cells is None:
            self._cells = self._build_cells()
        x0, y0, cw, ch, nx, ny, cells = self._cells
        i = min(max(math.floor((az - x0) / cw), 0), nx - 1)
        j = min(max(math.floor((el - y0) / ch), 0), ny - 1)
        for k, ax, ay, m00, m01, m10, m11, det in cells[j * nx + i]:
            rx = az - ax
            ry = el - ay
            u = (m11 * rx - m01 * ry) / det
            v = (-m10 * rx + m00 * ry) / det
            if u >= -_BARY_SLACK and v >= -_BARY_SLACK and u + v <= 1.0 + _BARY_SLACK:
                return k
        return None


def build_triangulation(points: Iterable[Direction] | PointIndex) -> Triangulation:
    """Triangulate directions in the base (unrotated) projection frame.

    Inputs are normalized first; near-duplicates (within 0.01 degrees) are
    merged with a warning, so ``vertices`` of the result equals the surviving
    point list in input order. A ``PointIndex`` is triangulated over its own
    normalized directions and near-duplicate search.
    """
    index = points if isinstance(points, PointIndex) else PointIndex(points)
    kept = [index.directions[i] for i in index.vertex_indices]
    dropped = len(index.directions) - len(kept)
    if dropped:
        warnings.warn(
            f"merged {dropped} duplicate point(s) within "
            f"{MERGE_TOLERANCE_DEG} degrees",
            stacklevel=2,
        )
    if len(kept) < 3:
        raise InsufficientPointsError(
            f"need at least 3 distinct points, got {len(kept)}"
        )
    coords = _frame_coords(kept, False, False)
    return Triangulation(kept, _triangulate_plane(coords), coords)


def rotated_frame(t: Triangulation, rotated_azimuth: bool, rotated_elevation: bool) -> Triangulation | None:
    """The sibling triangulation of ``t`` in a rotated frame (cached).

    Returns None when the rotated projection is degenerate: all points
    collinear there, or so nearly collinear that every triangle
    Bowyer-Watson makes keeps a super-triangle vertex.
    """
    key = (bool(rotated_azimuth), bool(rotated_elevation))
    if key not in t._frames:
        coords = _frame_coords(t.vertices, key[0], key[1])
        try:
            triangles = _triangulate_plane(coords)
        except InsufficientPointsError:
            triangles = []
        t._frames[key] = (Triangulation(t.vertices, triangles, coords, *key)
                          if triangles else None)
    return t._frames[key]


def find_enclosing_triangle(t: Triangulation, query: Direction) -> EnclosingTriangle:
    """Find a triangle containing the query, rotating the projection if needed.

    Frames are tried in a fixed order: the original projection, azimuth
    shifted, elevation rotated, then both. The returned flags record the
    frame that matched; applying :func:`apply_frame` with them to the query
    and the triangle vertices reproduces the containment in that frame.
    """
    q0 = normalize_direction(query.azimuth_deg, query.elevation_deg)
    for raz, rel in _FRAME_ORDER:
        frame = rotated_frame(t, raz, rel)
        if frame is None:
            continue
        q = apply_frame(q0, raz, rel)
        idx = frame._locate(q.azimuth_deg, q.elevation_deg)
        if idx is not None:
            return EnclosingTriangle(frame.triangles[idx], raz, rel)
    raise NoEnclosingTriangleError(
        f"no enclosing triangle for direction "
        f"({q0.azimuth_deg:.4f}, {q0.elevation_deg:.4f}) in any projection frame"
    )


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


class PointIndex:
    """Facts about a fixed list of directions, each computed on first use
    and kept. ``directions`` holds them normalized, in the order given, and
    indices refer to it; ``triangulation`` may be passed in when the caller
    already built it from them."""

    def __init__(self, directions: Iterable[Direction],
                 triangulation: Triangulation | None = None):
        self.directions: tuple[Direction, ...] = tuple(
            normalize_direction(d.azimuth_deg, d.elevation_deg) for d in directions
        )
        if triangulation is not None:
            self.triangulation = triangulation

    @classmethod
    def _normalized(cls, directions: tuple[Direction, ...]) -> "PointIndex":
        """An index over directions that are already normalized."""
        index = cls.__new__(cls)
        index.directions = directions
        return index

    @cached_property
    def cartesians(self) -> np.ndarray:
        m = np.array([_unit_vector(d) for d in self.directions])
        m.flags.writeable = False
        return m

    def nearest(self, direction: Direction) -> tuple[int, float]:
        """Index and angular distance (degrees) of the nearest point; ties
        resolve to the lowest index."""
        return self.nearest_to(to_cartesian(direction))

    def nearest_to(self, cartesian: np.ndarray) -> tuple[int, float]:
        """:meth:`nearest` for a direction given by its unit vector."""
        dots = self.cartesians @ cartesian
        idx = int(dots.argmax())
        return idx, math.degrees(math.acos(max(-1.0, min(1.0, float(dots[idx])))))

    @cached_property
    def rings(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """(elevation, members) for each elevation cluster with at least two
        members, the members sorted by azimuth."""
        dirs = self.directions
        return tuple(
            (el, tuple(sorted(members, key=lambda i: dirs[i].azimuth_deg)))
            for el, members in _cluster([d.elevation_deg for d in dirs], circular=False)
            if len(members) >= 2
        )

    @cached_property
    def columns(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        """(azimuth, members) for each azimuth cluster with at least two
        members, the members sorted by elevation."""
        dirs = self.directions
        return tuple(
            (az, tuple(sorted(members, key=lambda i: dirs[i].elevation_deg)))
            for az, members in _cluster([d.azimuth_deg for d in dirs], circular=True)
            if len(members) >= 2
        )

    @cached_property
    def ring_keys(self) -> tuple[list[float], list[list[float]], list[int]]:
        """Sorted keys of ``rings``: the elevations, each ring's member
        azimuths, and the first k with azimuths k and k + 1 equal in each
        ring (the ring's last position when none are)."""
        elevations = [el for el, _ in self.rings]
        azimuths = [[self.directions[i].azimuth_deg for i in m] for _, m in self.rings]
        first_equal = [
            next((k for k in range(len(azs) - 1) if azs[k] == azs[k + 1]), len(azs) - 1)
            for azs in azimuths
        ]
        return elevations, azimuths, first_equal

    @cached_property
    def column_keys(self) -> tuple[list[float], list[list[float]]]:
        """Sorted keys of ``columns``: the azimuths and each column's member
        elevations."""
        azimuths = [az for az, _ in self.columns]
        elevations = [[self.directions[i].elevation_deg for i in m] for _, m in self.columns]
        return azimuths, elevations

    @cached_property
    def triangulation(self) -> Triangulation:
        return build_triangulation(self)

    @cached_property
    def _achieved_alone(self) -> dict[int, Direction]:
        """What a plan of point i alone achieves, by i, as plans build it."""
        return {}

    @cached_property
    def vertex_indices(self) -> tuple[int, ...]:
        """Index into ``directions`` of each direction that is not within
        MERGE_TOLERANCE_DEG of an earlier kept one: the triangulation's
        vertices, in order.

        A fixed-radius near-neighbour search (Bentley, Stanat & Williams
        1977): rows sorted by their projection on one axis are compared only
        with rows less than a tolerance chord further along. A row with an
        earlier neighbour within a margin of the tolerance then reruns
        ``kept @ v > cos(tolerance)`` over the earlier kept rows, which is
        what decides, so the result is the per-row loop's.
        """
        carts = self.cartesians
        n = len(carts)
        cos_tol = math.cos(math.radians(MERGE_TOLERANCE_DEG))
        keep = np.ones(n, dtype=bool)
        if n > 1:
            along = carts @ _SORT_AXIS
            order = np.argsort(along)
            along = along[order]
            sorted_carts = carts[order]
            # a pair within the tolerance is at most its chord apart on the
            # axis; both margins are far above the rounding of either sum
            reach = math.sqrt(2.0 - 2.0 * cos_tol) + 1e-9
            close = np.zeros(n, dtype=bool)
            starts = np.arange(n)
            for step in range(1, n):
                starts = starts[starts < n - step]
                starts = starts[along[starts + step] - along[starts] <= reach]
                if not starts.size:
                    break
                ends = starts + step
                dots = np.einsum("ij,ij->i", sorted_carts[starts], sorted_carts[ends])
                later = np.maximum(order[starts], order[ends])
                close[later[dots > cos_tol - 1e-12]] = True
            for i in np.flatnonzero(close).tolist():
                if float(np.max(carts[:i][keep[:i]] @ carts[i])) > cos_tol:
                    keep[i] = False
        return tuple(np.flatnonzero(keep).tolist())
