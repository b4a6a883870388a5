"""Core 3D primitives: points, diameter-bounded regions, scenes and tours.

``Point3`` is a position a user gives: a start pose or a region center.
Every point a planner makes (waypoints, touch points, detour curves) is a
row of a float64 ``(k, 3)`` array.

Regions come in three shapes. ``Sphere`` and ``Shell`` are exact solids
(a ball, and the solid between two concentric spheres). ``Sampled`` is a
non-convex region represented by a boundary point cloud with outward
normals; containment and closest-point queries on it are approximate at
the sampling resolution. Every shape gives ``d_min``, ``d_max`` and
``r_in``, the radius of the hole about its center (0 if it has none), and
every shape is touched within the one scene-wide ``touch_tolerance``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InvalidRegionError, _echo

# Relative slack used by shape invariants (boundary radius vs d_max / 2, etc.).
EPS_TOL = 1e-9

# The touch tolerance, a hair above float noise, as a fraction of the scene's minimum diameter.
TOUCH_FRACTION = 1e-6

# Offsets of the four twin grids (see _validate_region): each a quarter cell past the last,
# all keeping a unit direction's cell indices, in cells of 1e-6, in [0, 2**21).
_TWIN_OFFSETS = (1e6 + 1.0 + np.arange(4) / 4.0)[:, None, None]


class _Record:
    """Base of the records that check or copy what they are given. ``__init__`` sets the
    fields, named by ``__slots__``, once with ``_set``; after that they are read-only."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle give (None, {field: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


def _checked(typename: str, field_names: str):
    """The namedtuple base of a record whose subclass checks in ``__new__``: its ``_make``,
    and so ``_replace``, build through that check too."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Point3(_checked("Point3", "x y z")):
    """A position in meters. Coordinates must be finite."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float):
        for v in (x, y, z):
            if not math.isfinite(v):
                raise ContractError(f"non-finite coordinate in Point3: {v!r}")
        return super().__new__(cls, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


class Sphere(NamedTuple):
    """Solid ball given by its diameter."""

    diameter: float
    r_in = 0.0

    @property
    def d_min(self) -> float:
        return self.diameter

    d_max = d_min


class Shell(NamedTuple):
    """Solid between two concentric spheres (a hollow ball)."""

    inner_diameter: float
    outer_diameter: float

    @property
    def d_min(self) -> float:
        return self.inner_diameter

    @property
    def d_max(self) -> float:
        return self.outer_diameter

    @property
    def r_in(self) -> float:
        return self.inner_diameter / 2.0


class Sampled(_Record):
    """Boundary point cloud with outward unit normals.

    ``points`` and ``normals`` are (n, 3) float arrays, stored as
    read-only copies of what is given. The region is assumed star-shaped
    about its center, so containment can use a nearest-direction radial
    test.
    """

    __slots__ = ("points", "normals", "d_min", "d_max")
    r_in = 0.0

    def __init__(self, points: np.ndarray, normals: np.ndarray, d_min: float, d_max: float):
        pts = np.array(points, dtype=float)
        nms = np.array(normals, dtype=float)
        pts.flags.writeable = False
        nms.flags.writeable = False
        self._set(pts, nms, d_min, d_max)


Shape = Sphere | Shell | Sampled


class Region(_Record):
    """A diameter-bounded detection region around a center point. ``radial`` is a sampled
    shape's table of boundary radii (k,) and unit directions (k, 3) from the center, else None."""

    __slots__ = ("center", "shape", "radial")

    def __init__(self, center: Point3, shape: Shape):
        self._set(center, shape)
        object.__setattr__(self, "radial", _validate_region(self))

    @property
    def d_min(self) -> float:
        return self.shape.d_min

    @property
    def d_max(self) -> float:
        return self.shape.d_max


def _validate_region(region: Region) -> tuple[np.ndarray, np.ndarray] | None:
    """Check the region and return a sampled shape's radial table, else None. Bounding
    each sample's radius by ``d_max / 2`` bounds every pair: |p - q| <= r_p + r_q."""
    s = region.shape
    if isinstance(s, Sphere):
        if not (math.isfinite(s.diameter) and s.diameter > 0):
            raise InvalidRegionError(f"sphere diameter must be positive, got {s.diameter}")
        return None
    if isinstance(s, Shell):
        if not (0 < s.inner_diameter <= s.outer_diameter) or not math.isfinite(s.outer_diameter):
            raise InvalidRegionError(
                f"shell needs 0 < inner <= outer, got ({s.inner_diameter}, {s.outer_diameter})"
            )
        return None
    if isinstance(s, Sampled):
        pts = s.points
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InvalidRegionError("sampled region has no boundary points")
        if pts.shape[0] < 8:
            raise InvalidRegionError(f"sampled region needs >= 8 boundary points, got {pts.shape[0]}")
        if s.normals.shape != pts.shape:
            raise InvalidRegionError("boundary normals must pair 1:1 with boundary points")
        if not np.all(np.isfinite(pts)):
            raise InvalidRegionError("sampled boundary contains non-finite points")
        if not np.all(np.isfinite(s.normals)):
            # A zero normal is allowed: the detour falls back to the radial direction.
            raise InvalidRegionError("sampled boundary contains non-finite normals")
        if not (0 < s.d_min <= s.d_max) or not math.isfinite(s.d_max):
            raise InvalidRegionError(f"need 0 < d_min <= d_max, got ({s.d_min}, {s.d_max})")
        c = region.center.as_array()
        radii = distances(c, pts)
        at_center = np.flatnonzero(radii == 0.0)
        if at_center.size:
            # The star model takes each point's direction from the center.
            raise InvalidRegionError(f"boundary point {at_center[0]} lies at the region center")
        if np.any(radii > _reach(s.d_max / 2.0, 0.0)):
            raise InvalidRegionError("boundary point farther than d_max/2 from center")
        units = (pts - c) / radii[:, None]
        # One radius per direction: the nearest-direction lookup cannot tell apart two within
        # about 3e-8 rad, so one of the two samples could lie outside the region. Each direction
        # gets an int64 key per grid of 1e-6 cells, four grids shifted a quarter cell along the
        # diagonal: their walls lie a quarter cell apart on each axis, so a pair closer than
        # 2.5e-7 on every axis is split by at most three grids and shares a cell of the fourth.
        cell = np.floor(units * 1e6 + _TWIN_OFFSETS).astype(np.int64)
        key = cell[..., 0] << 42 | cell[..., 1] << 21 | cell[..., 2]
        if (np.diff(np.sort(key, axis=1)) == 0).any():
            order = np.argsort(key, axis=1, kind="stable")
            twin = np.diff(np.take_along_axis(key, order, axis=1)) == 0
            j, i = min(zip(order[:, 1:][twin].tolist(), order[:, :-1][twin].tolist()))
            raise InvalidRegionError(f"boundary points {i} and {j} lie in one direction from the center")
        radii.flags.writeable = units.flags.writeable = False
        return radii, units
    raise InvalidRegionError(f"unknown shape {type(s).__name__}")


def _farthest_pair(points: np.ndarray) -> tuple[float, int, int]:
    """(squared distance, i, j) of the first farthest pair in row-major order.

    Chunked to bound memory; ties keep the earliest (i, j).
    """
    n = points.shape[0]
    best = (0.0, 0, 0)
    step = 512
    for i in range(0, n, step):
        block = points[i : i + step]
        d2 = sq_distances(block[:, None], points)
        bi, bj = divmod(int(np.argmax(d2)), n)
        val = float(d2[bi, bj])
        if val > best[0]:
            best = (val, i + bi, bj)
    return best


def farthest_pair_distance(points: np.ndarray) -> float:
    """Max pairwise Euclidean distance (no region path calls it; kept for the benchmark tracer)."""
    return math.sqrt(_farthest_pair(points)[0])


def touch_tolerance(d_min_global: float) -> float:
    """The one containment slack of every region, of every shape, in a scene of minimum
    diameter ``d_min_global``: ``Scene.tol``. A sampled region needs no more, since each
    boundary sample lies in its own region at tolerance 0."""
    return TOUCH_FRACTION * d_min_global


def _boundary_radii(region: Region, units: np.ndarray) -> np.ndarray:
    """Radius of a sampled region's boundary sample nearest in direction to each row of
    ``units`` (k, 3): the star-shaped boundary's radius along each unit direction."""
    radii, dirs = region.radial
    return radii[np.argmax(dirs @ units.T, axis=0)]


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b`` (..., 3), broadcast: the one
    distance kernel. A table of every pair is ``sq_distances(a[:, None], b)``.

    Sums ``(dx*dx + dy*dy) + dz*dz``, the order ``np.sum`` and ``np.linalg.norm``
    add a length-3 axis in, one coordinate at a time into one buffer.
    """
    sq = np.subtract(a[..., 0], b[..., 0])
    sq *= sq
    d = np.empty_like(sq)
    for k in (1, 2):
        np.subtract(a[..., k], b[..., k], out=d)
        d *= d
        sq += d
    return sq


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (..., 3), broadcast: bitwise the
    norm ``np.linalg.norm`` takes of ``b - a`` over its last axis."""
    return np.sqrt(sq_distances(a, b))


def in_ball(r, r_in, r_out, tol):
    """Elementwise: a point ``r`` from a sphere's or shell's center lies in it within ``tol``."""
    return (r >= r_in - tol) & (r <= r_out + tol)


def balls_meet(dist, in_a, out_a, in_b, out_b):
    """Elementwise: sphere or shell solids ``dist`` apart meet (neither is past or in the other)."""
    return (dist <= out_a + out_b) & (dist + out_a >= in_b) & (dist + out_b >= in_a)


def contains(region: Region, points: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of the rows of finite ``points`` (k, 3) inside the region solid within ``tol``.

    A touch test passes the scene's ``touch_tolerance``. Spheres and shells
    test the distance to the center with ``in_ball``. Sampled regions
    accept anything within the nearest boundary sample's radius, the
    center among them, and test every other point radially against the
    boundary sample nearest in direction (star-shaped).
    """
    c = region.center.as_array()
    r = distances(c, points)
    s = region.shape
    if not isinstance(s, Sampled):
        return in_ball(r, s.r_in, s.d_max / 2.0, tol)
    inside = r <= region.radial[0].min() + tol
    rest = ~inside
    if rest.any():
        q = (points[rest] - c) / r[rest, None]
        inside[rest] = r[rest] <= _boundary_radii(region, q) + tol
    return inside


def region_contains(region: Region, p: Point3, tol: float) -> bool:
    """True if ``p`` lies in the region solid within tolerance (see ``contains``)."""
    return bool(contains(region, p.as_array()[None, :], tol)[0])


def _norm(v: np.ndarray) -> float:
    """Bitwise ``np.linalg.norm(v)`` of one vector (numpy's own ``sqrt(v.dot(v))``) at less call cost."""
    return math.sqrt(v.dot(v))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise ``a[i].dot(b[i])`` of each row pair of ``a`` and ``b`` (..., 3): stacked ``matmul``
    takes the same BLAS dot per row, so ``np.sqrt(_dots(v, v))`` is ``_norm`` of each row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def closest_point_on_ball(c: np.ndarray, r_in: float, r_out: float, p: np.ndarray) -> np.ndarray:
    """Point (3,) of a sphere or shell solid closest to the point ``p`` (3,).

    The solid has center ``c`` (3,), hole radius ``r_in`` (0 for a sphere)
    and outer radius ``r_out``. A point already inside is returned
    unchanged, otherwise ``p`` is projected radially onto the nearest
    bounding sphere.
    """
    # contains(region, p[None, :], tol=0.0) to the bit, without numpy's
    # per-call overhead: the same differences, squares and summation order.
    cx, cy, cz = c.tolist()
    px, py, pz = p.tolist()
    dx, dy, dz = px - cx, py - cy, pz - cz
    if in_ball(math.sqrt(dx * dx + dy * dy + dz * dz), r_in, r_out, 0.0):
        return p
    v = p - c
    r = _norm(v)
    # Outside the solid: past the outer sphere, or in a shell's hole.
    if r > r_in:
        return c + v * (r_out / r)
    if r == 0.0:
        # Center of the hole: any inner-sphere point is closest; fix +x.
        return c + np.array([r_in, 0.0, 0.0])
    return c + v * (r_in / r)


def _nearest_sample(shape: Sampled, p: np.ndarray):
    """Index of the boundary sample of ``shape`` nearest each point ``p`` (..., 3), the lowest on a tie."""
    return np.argmin(sq_distances(p[..., None, :], shape.points), axis=-1)


def closest_point_on_region(region: Region, p: np.ndarray) -> np.ndarray:
    """Point (3,) of the region minimizing distance to the point ``p`` (3,).

    Spheres and shells answer with ``closest_point_on_ball``. Sampled
    regions answer with their nearest boundary sample (ties broken by
    lowest index).
    """
    s = region.shape
    if isinstance(s, Sampled):
        return s.points[_nearest_sample(s, p)]
    return closest_point_on_ball(region.center.as_array(), s.r_in, s.d_max / 2.0, p)


def regions_intersect(a: Region, b: Region, d_min_global: float) -> bool:
    """True if the two region solids of a scene of minimum diameter ``d_min_global`` overlap.

    Sphere/shell pairs are decided by ``balls_meet``. Any pair involving a
    sampled boundary is decided by testing boundary samples of one
    region for containment in the other, both ways, within the scene's
    ``touch_tolerance``. An exact solid can lie inside a sampled region,
    clear of its samples, so a mixed pair also meets when the exact solid's
    point nearest the sampled center (not its center: a shell's hole may
    hold the sampled region) lies in the sampled region within that tolerance.
    """
    sa, sb = a.shape, b.shape
    if not isinstance(sa, Sampled) and not isinstance(sb, Sampled):
        dist = distances(a.center.as_array(), b.center.as_array())
        return bool(balls_meet(dist, sa.r_in, sa.d_max / 2.0, sb.r_in, sb.d_max / 2.0))
    for first, second in ((a, b), (b, a)):
        if not isinstance(first.shape, Sampled):
            continue
        if contains(second, first.shape.points, touch_tolerance(d_min_global)).any():
            return True
        if not isinstance(second.shape, Sampled):
            near = closest_point_on_region(second, first.center.as_array())
            return bool(contains(first, near[None], touch_tolerance(d_min_global))[0])
    return False


# --------------------------------------------------------------------------- neighbour queries

# Most pairs one block of ``candidate_pairs`` holds, unless a single query
# has more candidates than that on its own.
CANDIDATE_BLOCK = 1 << 16

# The 9 (x, y) neighbour columns of a cell, as steps from its lowest
# neighbour rank on each axis; the z-neighbours of a column are one range.
_COLUMN_DX = np.repeat(np.arange(3), 3)
_COLUMN_DY = np.tile(np.arange(3), 3)


def _column_ranges(kq: np.ndarray, kp: np.ndarray):
    """(order, start, count) locating each query's candidates among the points.

    ``kq`` and ``kp`` are the float cell keys of the queries and points.
    ``order`` sorts the points by cell id: the x and y ranks of their keys
    give a column, the z rank a position in it. Row q of the (queries, 9)
    arrays ``start`` and ``count`` gives the slice of ``order`` holding the
    z-neighbours in each of query q's 9 neighbour columns.
    """
    n = len(kp)
    rank = np.empty((n, 3), dtype=np.int64)
    lo = np.empty((len(kq), 3), dtype=np.int64)
    hi = np.empty_like(lo)
    size = []
    for a in range(3):
        # Ranking the floats themselves casts no key to an integer.
        keys, rank[:, a] = np.unique(kp[:, a], return_inverse=True)
        lo[:, a] = np.searchsorted(keys, kq[:, a] - 1.0, "left")
        hi[:, a] = np.searchsorted(keys, kq[:, a] + 1.0, "right")
        size.append(len(keys))
    _, ny, nz = size
    x = lo[:, :1] + _COLUMN_DX
    y = lo[:, 1:2] + _COLUMN_DY
    column = x * ny + y
    # Number only the occupied columns, so cell ids stay below n * nz.
    columns, point_column = np.unique(rank[:, 0] * ny + rank[:, 1], return_inverse=True)
    c = np.searchsorted(columns, column)
    found = (x < hi[:, :1]) & (y < hi[:, 1:2]) & (columns[np.minimum(c, len(columns) - 1)] == column)
    cell_id = point_column * nz + rank[:, 2]
    order = np.argsort(cell_id, kind="stable")
    sorted_id = cell_id[order]
    base = c * nz
    start = sorted_id.searchsorted(base + lo[:, 2:])
    return order, start, np.where(found, sorted_id.searchsorted(base + hi[:, 2:]) - start, 0)


def candidate_pairs(queries: np.ndarray, points: np.ndarray, radius: float):
    """Index pairs (q, p): row p of ``points`` lies in the 27 cells around row q of ``queries``.

    Cells (spatial hashing, Teschner et al., VMV 2003) have keys
    ``np.floor(x / cell)`` and edge ``radius * (1 + 1e-9)``, the 1e-9 so
    that rounding cannot put a point within ``radius`` of a query two cells
    away: every such point is a candidate. Yields (q, p) int64 arrays in
    blocks of consecutive queries, each sorted by q, then p. A block holds
    at most ``CANDIDATE_BLOCK`` pairs unless one query has more on its own,
    so a skewed input needs O(len(queries) + len(points) + CANDIDATE_BLOCK)
    memory.

    A query's neighbour keys on an axis are those in [key - 1, key + 1].
    Above 2**53, where ``key + 1`` can round up to the next float, that
    may take in one more key: the result is then a superset, never a
    subset.
    """
    n = len(points)
    if n == 0 or len(queries) == 0:
        return
    cell = radius * (1.0 + 1e-9)
    order, start, count = _column_ranges(np.floor(queries / cell), np.floor(points / cell))
    per_query = count.sum(axis=1)
    total = np.cumsum(per_query)
    b0 = 0
    while b0 < len(queries):
        done = int(total[b0 - 1]) if b0 else 0
        b1 = max(int(np.searchsorted(total, done + CANDIDATE_BLOCK, "right")), b0 + 1)
        m = int(total[b1 - 1]) - done
        if m:
            s, k = start[b0:b1].ravel(), count[b0:b1].ravel()
            pos = np.arange(m) + np.repeat(s - (np.cumsum(k) - k), k)
            pair = np.repeat(np.arange(b0, b1) * n, per_query[b0:b1]) + order[pos]
            pair.sort()
            yield np.divmod(pair, n)
        b0 = b1


def _reach(r_out, tol):
    """Radius about a center holding a region, to its validated limit, plus ``tol``."""
    return r_out * (1.0 + EPS_TOL) + EPS_TOL + tol


def earlier_within(points: np.ndarray, start: int, radius: float):
    """Per row i >= ``start`` of ``points``, in order: (i, the rows j < i within ``radius``)."""
    # One candidate_pairs pass, read a block at a time. Every row is its own
    # candidate, so a block holds all pairs of the rows it covers.
    for q, p in candidate_pairs(points[start:], points, radius):
        lo, hi = int(q[0]), int(q[-1]) + 1
        earlier = p < start + q
        q, p = q[earlier], p[earlier]
        close = distances(points[start + q], points[p]) <= radius
        near, ends = p[close].tolist(), np.searchsorted(q[close], np.arange(lo, hi + 1)).tolist()
        for i in range(lo, hi):
            yield start + i, near[ends[i - lo]:ends[i - lo + 1]]


def intersecting_pairs(scene: Scene) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, of intersecting scene objects, ascending.

    Broad phase: ``candidate_pairs`` of the centers with cell edge twice
    the largest reach, its pairs with j > i, then the filter
    ``distance <= reach_i + reach_j``.
    Narrow phase: ``balls_meet`` on a block's sphere and shell pairs,
    ``regions_intersect`` on a pair with a sampled region.
    """
    if len(scene) < 2:
        return []
    c, pairs = scene.centers, []
    for i, j in candidate_pairs(c, c, 2.0 * float(scene.reach.max())):
        later = j > i
        i, j = i[later], j[later]
        dist = distances(c[i], c[j])
        near = dist <= scene.reach[i] + scene.reach[j]
        i, j, dist = i[near], j[near], dist[near]
        meet = balls_meet(dist, scene.r_in[i], scene.r_out[i], scene.r_in[j], scene.r_out[j])
        for k in np.flatnonzero(~(scene.exact[i] & scene.exact[j])).tolist():
            meet[k] = regions_intersect(scene.region(i[k]), scene.region(j[k]), scene.d_min_global)
        pairs += zip(i[meet].tolist(), j[meet].tolist())
    return pairs


def first_touch_indices(scene: Scene, points: np.ndarray) -> np.ndarray:
    """Per scene object, the index of the first row of ``points`` (W, 3) touching it, or -1.

    A row touches an object when it lies in its region within ``scene.tol``.
    With the largest ``scene.reach`` as cell edge, only the rows ``candidate_pairs``
    gives for a region's center can touch it: ``in_ball`` tests a block's
    spheres and shells, ``contains`` a sampled region.
    """
    first = np.full(len(scene), -1)
    if len(scene) == 0 or len(points) == 0:
        return first
    c, tol = scene.centers, scene.tol
    for q, p in candidate_pairs(c, points, float(scene.reach.max())):
        hit = in_ball(distances(c[q], points[p]), scene.r_in[q], scene.r_out[q], tol)
        for i in np.unique(q[~scene.exact[q]]).tolist():
            lo, hi = q.searchsorted((i, i + 1))
            hit[lo:hi] = contains(scene.region(i), points[p[lo:hi]], tol)
        # Pairs are sorted by q, then p: the first hit of each q is its least row.
        touched, at = np.unique(q[hit], return_index=True)
        first[touched] = p[hit][at]
    return first


def max_diameter_segment(region: Region) -> np.ndarray:
    """Endpoints (2, 3) of a farthest pair of the region.

    Spheres and shells return the antipodal pair along world +x (a fixed
    deterministic choice). Sampled regions scan all boundary pairs.
    """
    c = region.center.as_array()
    s = region.shape
    if isinstance(s, (Sphere, Shell)):
        rad = region.d_max / 2.0
        off = np.array([rad, 0.0, 0.0])
        return np.array([c - off, c + off])
    _, i, j = _farthest_pair(s.points)
    return s.points[[min(i, j), max(i, j)]]


class SceneObject(NamedTuple):
    id: str
    region: Region


class Scene:
    """A set of objects with global diameter bounds inside a cube.

    Its state is ``ids``, the one float ``tol = touch_tolerance(d_min_global)``
    and read-only per-object columns, which scene-wide passes read:
    ``centers`` (n, 3), each shape's ``d_min`` and ``d_max``, ``r_in`` and
    ``r_out = d_max / 2``, ``reach`` (the radius holding the region plus
    ``tol``), ``exact`` (sphere or shell) and ``sphere``. The lists ``rows`` (each
    center as given, so a JSON integer stays an integer) and ``kinds`` (each
    shape class) are not to be modified. ``objects``, ``get`` and ``region``
    build an object's ``SceneObject`` and ``Region`` from the columns the
    first time they are asked for it.

    Construction refuses the first faulty object by the first of its faults in
    the order: an id that is not a ``str`` instance (``numpy.str_`` is one), a
    repeated id, diameters outside the global bounds.
    """

    def __init__(self, objects, d_min_global, d_max_global, cube_edge=100.0):
        objects = list(objects)
        regions = [obj.region for obj in objects]
        shapes = [r.shape for r in regions]
        self._fill(
            [obj.id for obj in objects],
            [(c.x, c.y, c.z) for c in (r.center for r in regions)],
            list(map(type, shapes)),
            [s.d_min for s in shapes],
            [s.d_max for s in shapes],
            d_min_global,
            d_max_global,
            cube_edge,
            objects,
            None,
        )

    @classmethod
    def from_columns(
        cls, ids, rows, kinds, d_min, d_max, built, d_min_global, d_max_global, cube_edge=100.0,
        centers=None,
    ) -> Scene:
        """The scene of objects given as columns, held to the rules ``Scene(objects=...)`` is.

        Object i has id ``ids[i]``, center ``Point3(*rows[i])``, shape class
        ``kinds[i]`` and diameters ``d_min[i]`` to ``d_max[i]``. ``built[i]`` is
        its ``SceneObject``, or None for a sphere or shell, which is then made
        from the columns when asked for. ``centers`` is ``rows`` as a float
        (n, 3) array, if already made.
        """
        scene = cls.__new__(cls)
        scene._fill(ids, rows, kinds, d_min, d_max, d_min_global, d_max_global, cube_edge, built, centers)
        return scene

    def _fill(self, ids, rows, kinds, d_min, d_max, d_min_global, d_max_global, cube_edge, built, centers):
        if not (0 < d_min_global <= d_max_global):
            raise ContractError(
                f"need 0 < d_min_global <= d_max_global, got ({d_min_global}, {d_max_global})"
            )
        self.d_min_global, self.d_max_global, self.cube_edge = d_min_global, d_max_global, cube_edge
        d_lo, d_hi = np.array(d_min, dtype=float), np.array(d_max, dtype=float)
        lo, hi = d_min_global * (1.0 - EPS_TOL), d_max_global * (1.0 + EPS_TOL)
        index: dict[str, int] = {}
        for i, (oid, a, b) in enumerate(zip(ids, d_lo.tolist(), d_hi.tolist())):
            if not isinstance(oid, str):
                raise ContractError(f"object {i}: id must be a string, got {_echo(oid, repr)}")
            if oid in index:
                raise ContractError(f"duplicate object id {_echo(oid, repr)}")
            if a < lo or b > hi:
                raise ContractError(
                    f"object {_echo(oid, repr)} diameters [{d_min[i]}, {d_max[i]}] outside global "
                    f"bounds [{d_min_global}, {d_max_global}]"
                )
            index[oid] = i
        self.ids = tuple(ids)
        self._index = index
        self.rows, self.kinds, self._built = rows, kinds, built
        sphere = np.array([k is Sphere for k in kinds], dtype=bool)
        exact = np.array([k is not Sampled for k in kinds], dtype=bool)
        r_out = d_hi / 2.0
        self.tol = touch_tolerance(d_min_global)
        for name, col in (
            ("centers", np.array(rows, dtype=float).reshape(-1, 3) if centers is None else centers),
            ("d_min", d_lo),
            ("d_max", d_hi),
            ("r_in", np.where(exact & ~sphere, d_lo / 2.0, 0.0)),
            ("r_out", r_out),
            ("reach", _reach(r_out, self.tol)),
            ("exact", exact),
            ("sphere", sphere),
        ):
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.ids)

    def _object(self, i: int) -> SceneObject:
        obj = self._built[i]
        if obj is None:
            lo, hi = float(self.d_min[i]), float(self.d_max[i])
            shape = Sphere(hi) if self.kinds[i] is Sphere else Shell(lo, hi)
            obj = self._built[i] = SceneObject(self.ids[i], Region(Point3(*self.rows[i]), shape))
        return obj

    @property
    def objects(self) -> tuple[SceneObject, ...]:
        return tuple(map(self._object, range(len(self))))

    def region(self, i: int) -> Region:
        """The region of object i."""
        return self._object(i).region

    def get(self, object_id: str) -> SceneObject:
        if object_id not in self._index:
            raise ContractError(f"no object with id {_echo(object_id, repr)}")
        return self._object(self._index[object_id])

    def subset(self, rows) -> Scene:
        """The scene of objects ``rows`` (ascending indices), with the same bounds and cube."""
        return Scene.from_columns(
            [self.ids[i] for i in rows],
            [self.rows[i] for i in rows],
            [self.kinds[i] for i in rows],
            self.d_min[rows].tolist(),
            self.d_max[rows].tolist(),
            [self._built[i] for i in rows],
            self.d_min_global,
            self.d_max_global,
            self.cube_edge,
            self.centers[rows],
        )


class Visit(NamedTuple):
    object_id: str
    waypoint_index: int


class Tour(_Record):
    """An open trajectory: ordered waypoints with per-object visit annotations.

    ``waypoints`` is stored as a read-only float64 ``(k, 3)`` copy of what
    is given (``k = 0`` allowed); a shape other than ``(k, 3)`` or a
    non-finite coordinate raises ``ContractError``.
    """

    __slots__ = ("waypoints", "visits")

    def __init__(self, waypoints: np.ndarray, visits: tuple[Visit, ...] = ()):
        w = np.array(waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 3:
            raise ContractError(f"waypoints must have shape (k, 3), got {w.shape}")
        if not np.isfinite(w).all():
            raise ContractError("non-finite waypoint coordinate")
        w.flags.writeable = False
        self._set(w, tuple(visits))
        n = len(w)
        for v in self.visits:
            if not (0 <= v.waypoint_index < n):
                raise ContractError(f"visit index {_echo(v.waypoint_index, str)} out of range")

    @property
    def length(self) -> float:
        return tour_length(self)


def polyline_length(points: np.ndarray, closed: bool = False) -> float:
    """Sum of the edge lengths of a (k, 3) polyline, plus the closing edge if ``closed``."""
    if len(points) < 2:
        return 0.0
    total = float(np.sum(distances(points[:-1], points[1:])))
    if closed:
        total += _norm(points[-1] - points[0])
    return total


def tour_length(tour: Tour) -> float:
    """Sum of consecutive edge lengths of the open trajectory."""
    return polyline_length(tour.waypoints)
