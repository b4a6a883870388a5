"""Core 3D primitives: points, diameter-bounded regions, scenes and tours.

``Point3`` is a position a user gives: a start pose or a region center.
Every point a planner makes (waypoints, touch points, detour curves) is a
row of a float64 ``(k, 3)`` array.

Regions come in three shapes. ``Sphere`` and ``Shell`` are exact solids
(a ball, and the solid between two concentric spheres). ``Sampled`` is a
non-convex region represented by a boundary point cloud with outward
normals; containment and closest-point queries on it are approximate at
the sampling resolution, which is why sampled shapes carry a larger touch
tolerance than exact ones. Every shape gives ``d_min``, ``d_max`` and
``r_in``, the radius of the hole about its center (0 if it has none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ContractError, InvalidRegionError

# Relative slack used by shape invariants (farthest-pair vs d_max, etc.).
EPS_TOL = 1e-9

# Touch tolerances: exact solids get a hair above float noise, sampled
# boundaries get a fraction of their minimum diameter (discretization).
EXACT_TOUCH_FRACTION = 1e-6
SAMPLED_TOUCH_FRACTION = 0.05


@dataclass(frozen=True)
class Point3:
    """A position in meters. Coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ContractError(f"non-finite coordinate in Point3: {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class Sphere:
    """Solid ball given by its diameter."""

    diameter: float
    r_in = 0.0

    @property
    def d_min(self) -> float:
        return self.diameter

    d_max = d_min


@dataclass(frozen=True)
class Shell:
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


@dataclass(frozen=True, eq=False)
class Sampled:
    """Boundary point cloud with outward unit normals.

    ``points`` and ``normals`` are (n, 3) float arrays, stored as
    read-only copies of what is given. The region is assumed star-shaped
    about its center, so containment can use a nearest-direction radial
    test.
    """

    points: np.ndarray
    normals: np.ndarray
    d_min: float
    d_max: float
    r_in = 0.0

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        nms = np.array(self.normals, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nms)
        pts.flags.writeable = False
        nms.flags.writeable = False


Shape = Union[Sphere, Shell, Sampled]


@dataclass(frozen=True, eq=False)
class Region:
    """A diameter-bounded detection region around a center point."""

    center: Point3
    shape: Shape

    def __post_init__(self):
        _validate_region(self)

    @property
    def d_min(self) -> float:
        return self.shape.d_min

    @property
    def d_max(self) -> float:
        return self.shape.d_max


def _validate_region(region: Region) -> None:
    s = region.shape
    if isinstance(s, Sphere):
        if not (math.isfinite(s.diameter) and s.diameter > 0):
            raise InvalidRegionError(f"sphere diameter must be positive, got {s.diameter}")
        return
    if isinstance(s, Shell):
        if not (0 < s.inner_diameter <= s.outer_diameter) or not math.isfinite(s.outer_diameter):
            raise InvalidRegionError(
                f"shell needs 0 < inner <= outer, got ({s.inner_diameter}, {s.outer_diameter})"
            )
        return
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
        if not (0 < s.d_min <= s.d_max) or not math.isfinite(s.d_max):
            raise InvalidRegionError(f"need 0 < d_min <= d_max, got ({s.d_min}, {s.d_max})")
        c = region.center.as_array()
        radii = np.linalg.norm(pts - c, axis=1)
        at_center = np.flatnonzero(radii == 0.0)
        if at_center.size:
            # The star model takes each point's direction from the center.
            raise InvalidRegionError(f"boundary point {at_center[0]} lies at the region center")
        if np.any(radii > s.d_max / 2.0 * (1.0 + EPS_TOL) + EPS_TOL):
            raise InvalidRegionError("boundary point farther than d_max/2 from center")
        far = farthest_pair_distance(pts)
        if far > s.d_max * (1.0 + EPS_TOL) + EPS_TOL:
            raise InvalidRegionError(
                f"farthest boundary pair {far:.6g} exceeds d_max {s.d_max:.6g}"
            )
        return
    raise InvalidRegionError(f"unknown shape {type(s).__name__}")


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between rows of two (k, 3) arrays.

    Accumulates dx*dx + dy*dy + dz*dz one coordinate at a time, the order
    ``np.sum(diff * diff, axis=2)`` adds in, without its (k, m, 3)
    temporary.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    t = np.empty_like(d2)
    for k in (1, 2):
        np.subtract.outer(a[:, k], b[:, k], out=t)
        t *= t
        d2 += t
    return d2


def _farthest_pair(points: np.ndarray) -> tuple[float, int, int]:
    """(squared distance, i, j) of the first farthest pair in row-major order.

    Chunked to bound memory; ties keep the earliest (i, j).
    """
    n = points.shape[0]
    best = (0.0, 0, 0)
    step = 512
    for i in range(0, n, step):
        block = points[i : i + step]
        d2 = pairwise_sq_distances(block, points)
        bi, bj = divmod(int(np.argmax(d2)), n)
        val = float(d2[bi, bj])
        if val > best[0]:
            best = (val, i + bi, bj)
    return best


def farthest_pair_distance(points: np.ndarray) -> float:
    """Max pairwise Euclidean distance."""
    return math.sqrt(_farthest_pair(points)[0])


def touch_tolerance(region: Region, d_min_global: float | None = None) -> float:
    """Containment slack for a region.

    Exact shapes use a tiny fraction of the scene-wide minimum diameter
    (falling back to the region's own d_min); sampled boundaries get a
    fraction of their d_min to absorb discretization.
    """
    if isinstance(region.shape, Sampled):
        return SAMPLED_TOUCH_FRACTION * region.d_min
    base = d_min_global if d_min_global is not None else region.d_min
    return EXACT_TOUCH_FRACTION * base


def _boundary_radii(shape: Sampled, center: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Radius of the boundary sample nearest in direction to each row of ``units`` (k, 3).

    This is the star-shaped boundary's radius along each unit direction.
    """
    offsets = shape.points - center
    radii = np.linalg.norm(offsets, axis=1)
    dirs = offsets / radii[:, None]
    return radii[np.argmax(dirs @ units.T, axis=0)]


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (..., 3), broadcast: the one distance
    contacts and nearest-point searches use.

    Bitwise ``np.linalg.norm(b - a, axis=-1)``: the same ``(dx*dx + dy*dy) + dz*dz``,
    summed one coordinate at a time instead of by its slow reduction over the last axis.
    """
    sq = 0.0
    for k in range(3):
        d = b[..., k] - a[..., k]
        sq += d * d
    return np.sqrt(sq)


def in_ball(r, r_in, r_out, tol):
    """Elementwise: a point ``r`` from a sphere's or shell's center lies in it within ``tol``."""
    return (r >= r_in - tol) & (r <= r_out + tol)


def balls_meet(dist, in_a, out_a, in_b, out_b):
    """Elementwise: sphere or shell solids ``dist`` apart meet (neither is past or in the other)."""
    return (dist <= out_a + out_b) & (dist + out_a >= in_b) & (dist + out_b >= in_a)


def contains(region: Region, points: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Boolean mask of the rows of ``points`` (k, 3) inside the region solid within ``tol``.

    ``tol`` defaults to ``touch_tolerance(region)``. Spheres and shells
    test the distance to the center with ``in_ball``. Sampled regions
    accept anything within the nearest boundary sample's radius, reject
    anything beyond the farthest one's, and test the rest radially
    against the boundary sample nearest in direction (star-shaped).
    """
    if tol is None:
        tol = touch_tolerance(region)
    c = region.center.as_array()
    r = distances(c, points)
    s = region.shape
    if not isinstance(s, Sampled):
        return in_ball(r, s.r_in, s.d_max / 2.0, tol)
    radii = np.linalg.norm(s.points - c, axis=1)
    inside = r <= radii.min() + tol
    radial = ~inside & (r <= radii.max() + tol)
    if radial.any():
        q = (points[radial] - c) / r[radial, None]
        inside[radial] = r[radial] <= _boundary_radii(s, c, q) + tol
    return inside


def region_contains(region: Region, p: Point3, tol: float | None = None) -> bool:
    """True if ``p`` lies in the region solid within tolerance (see ``contains``)."""
    return bool(contains(region, p.as_array()[None, :], tol)[0])


def closest_point_on_region(region: Region, p: np.ndarray) -> np.ndarray:
    """Point (3,) of the region minimizing distance to the point ``p`` (3,).

    Spheres and shells are solids: a point already inside is returned
    unchanged, otherwise ``p`` is projected radially onto the nearest
    bounding sphere. Sampled regions answer with their nearest boundary
    sample (ties broken by lowest index).
    """
    s = region.shape
    if isinstance(s, Sampled):
        if s.points.shape[0] == 0:
            raise InvalidRegionError("sampled region has no boundary points")
        d2 = np.sum((s.points - p) ** 2, axis=1)
        return s.points[int(np.argmin(d2))]
    r_in, r_out = s.r_in, s.d_max / 2.0
    # contains(region, p[None, :], tol=0.0) to the bit, without numpy's
    # per-call overhead: the same differences, squares and summation order.
    o = region.center
    px, py, pz = p.tolist()
    dx, dy, dz = px - o.x, py - o.y, pz - o.z
    if in_ball(math.sqrt(dx * dx + dy * dy + dz * dz), r_in, r_out, 0.0):
        return p
    c = o.as_array()
    v = p - c
    r = float(np.linalg.norm(v))
    # Outside the solid: past the outer sphere, or in a shell's hole.
    if r > r_in:
        return c + v * (r_out / r)
    if r == 0.0:
        # Center of the hole: any inner-sphere point is closest; fix +x.
        return c + np.array([r_in, 0.0, 0.0])
    return c + v * (r_in / r)


def regions_intersect(a: Region, b: Region) -> bool:
    """True if the two region solids overlap.

    Sphere/shell pairs are decided by ``balls_meet``. Any pair involving a
    sampled boundary is decided by testing boundary samples of one
    region for containment in the other, both ways.
    """
    sa, sb = a.shape, b.shape
    if not isinstance(sa, Sampled) and not isinstance(sb, Sampled):
        dist = distances(a.center.as_array(), b.center.as_array())
        return bool(balls_meet(dist, sa.r_in, sa.d_max / 2.0, sb.r_in, sb.d_max / 2.0))
    for first, second in ((a, b), (b, a)):
        if isinstance(first.shape, Sampled) and contains(
            second, first.shape.points, touch_tolerance(second)
        ).any():
            return True
    return False


# --------------------------------------------------------------------------- neighbour index

_NEIGHBOUR_CELLS = tuple(
    (dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
)


class GridIndex:
    """Uniform hash grid over points: integer cell -> indices of its points.

    Every point within ``radius`` of a query point ``p`` lies in the 27
    cells around ``p``'s own (spatial hashing, Teschner et al., VMV 2003).
    The cell edge is ``radius`` plus a relative 1e-9, so float rounding of
    the cell keys cannot push such a point two cells away. It serves
    incremental insertion; queries over a whole point set go through
    ``candidate_pairs``, which uses the same cells.
    """

    def __init__(self, radius: float):
        self.cell = radius * (1.0 + 1e-9)
        self._cells: dict[tuple[int, int, int], list[int]] = {}

    def _key(self, p) -> tuple[int, int, int]:
        h = self.cell
        return (math.floor(p[0] / h), math.floor(p[1] / h), math.floor(p[2] / h))

    def insert(self, index: int, p) -> None:
        self._cells.setdefault(self._key(p), []).append(index)

    def near(self, p) -> list[int]:
        """Indices of the points in the 27 cells around ``p``, unordered."""
        x, y, z = self._key(p)
        cells = self._cells
        out: list[int] = []
        for dx, dy, dz in _NEIGHBOUR_CELLS:
            hit = cells.get((x + dx, y + dy, z + dz))
            if hit:
                out.extend(hit)
        return out


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

    The cells are ``GridIndex(radius)``'s: edge ``radius * (1 + 1e-9)``
    and keys ``np.floor(x / cell)``, so every point within ``radius`` of a
    query is among its candidates. Yields (q, p) int64 arrays in blocks of
    consecutive queries, each sorted by q, then p. A block holds at most
    ``CANDIDATE_BLOCK`` pairs unless one query has more on its own, so a
    skewed input needs O(len(queries) + len(points) + CANDIDATE_BLOCK)
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


def _later_pairs(points: np.ndarray, radius: float):
    """``candidate_pairs`` of ``points`` with itself, restricted to j > i, with distances.

    Yields (i, j, distance) array triples in ascending (i, j) order.
    """
    for i, j in candidate_pairs(points, points, radius):
        later = j > i
        i, j = i[later], j[later]
        yield i, j, distances(points[i], points[j])


def intersecting_pairs(scene: Scene) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, of intersecting scene objects, ascending.

    Broad phase: ``candidate_pairs`` of the centers with cell edge twice
    the largest reach, then the filter ``distance <= reach_i + reach_j``.
    Narrow phase: ``balls_meet`` on a block's sphere and shell pairs,
    ``regions_intersect`` on a pair with a sampled region.
    """
    if len(scene) < 2:
        return []
    pairs: list[tuple[int, int]] = []
    for i, j, dist in _later_pairs(scene.centers, 2.0 * float(scene.reach.max())):
        near = dist <= scene.reach[i] + scene.reach[j]
        i, j, dist = i[near], j[near], dist[near]
        meet = balls_meet(dist, scene.r_in[i], scene.r_out[i], scene.r_in[j], scene.r_out[j])
        for k in np.flatnonzero(~(scene.exact[i] & scene.exact[j])).tolist():
            meet[k] = regions_intersect(scene.objects[i[k]].region, scene.objects[j[k]].region)
        pairs += zip(i[meet].tolist(), j[meet].tolist())
    return pairs


def first_touch_indices(scene: Scene, points: np.ndarray) -> np.ndarray:
    """Per scene object, the index of the first row of ``points`` (W, 3) touching it, or -1.

    A row touches an object when it lies in its region within ``scene.tol``.
    With the largest reach as cell edge, only the rows ``candidate_pairs``
    gives for a region's center can touch it: ``in_ball`` tests a block's
    spheres and shells, ``contains`` a sampled region.
    """
    first = np.full(len(scene), -1)
    if len(scene) == 0 or len(points) == 0:
        return first
    c, tol = scene.centers, scene.tol
    radius = float(_reach(scene.r_out, tol).max())
    for q, p in candidate_pairs(c, points, radius):
        hit = in_ball(distances(c[q], points[p]), scene.r_in[q], scene.r_out[q], tol[q])
        for i in np.unique(q[~scene.exact[q]]).tolist():
            lo, hi = q.searchsorted((i, i + 1))
            hit[lo:hi] = contains(scene.objects[i].region, points[p[lo:hi]], tol[i])
        # Pairs are sorted by q, then p: the first hit of each q is its least row.
        touched, at = np.unique(q[hit], return_index=True)
        first[touched] = p[hit][at]
    return first


def closest_pair_within(points: np.ndarray, radius: float) -> tuple[int, int] | None:
    """Closest pair (i, j), i < j, of points at most ``radius`` apart, or None.

    Ties on distance go to the smallest i, then the smallest j: the
    row-major argmin of the dense distance matrix.
    """
    best: tuple[float, int, int] | None = None
    for i, j, dist in _later_pairs(points, radius):
        within = np.flatnonzero(dist <= radius)
        if within.size:
            k = within[np.argmin(dist[within])]
            cand = (float(dist[k]), int(i[k]), int(j[k]))
            if best is None or cand < best:
                best = cand
    return None if best is None else (best[1], best[2])


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


@dataclass(frozen=True)
class SceneObject:
    id: str
    region: Region


@dataclass(frozen=True, eq=False)
class Scene:
    """A set of objects with global diameter bounds inside a cube.

    Scene-wide passes read read-only per-object columns made once here:
    ``centers`` (n, 3), each shape's ``r_in`` and ``r_out = d_max / 2``,
    ``tol = touch_tolerance(region, d_min_global)``, ``reach`` (the radius
    holding the region plus ``touch_tolerance(region)``) and ``exact``
    (sphere or shell).
    """

    objects: tuple[SceneObject, ...]
    d_min_global: float
    d_max_global: float
    cube_edge: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if not (0 < self.d_min_global <= self.d_max_global):
            raise ContractError(
                f"need 0 < d_min_global <= d_max_global, got ({self.d_min_global}, {self.d_max_global})"
            )
        lo, hi = self.d_min_global * (1.0 - EPS_TOL), self.d_max_global * (1.0 + EPS_TOL)
        index: dict[str, int] = {}
        rows: list[float] = []
        for i, obj in enumerate(self.objects):
            if not isinstance(obj.id, str):
                raise ContractError(f"object {i}: id must be a string, got {obj.id!r}")
            if index.setdefault(obj.id, i) != i:
                raise ContractError(f"duplicate object id {obj.id!r}")
            c, s = obj.region.center, obj.region.shape
            d_min, d_max = s.d_min, s.d_max
            if d_min < lo or d_max > hi:
                raise ContractError(
                    f"object {obj.id!r} diameters [{d_min}, {d_max}] outside global "
                    f"bounds [{self.d_min_global}, {self.d_max_global}]"
                )
            rows += (c.x, c.y, c.z, s.r_in, d_max, d_min, isinstance(s, Sampled))
        object.__setattr__(self, "_index", index)
        cols = np.fromiter(rows, float, len(rows)).reshape(-1, 7)
        del rows  # free it before deriving the columns: a scene load peaks in memory here
        exact = cols[:, 6] == 0.0
        r_out = cols[:, 4] / 2.0
        own_tol = np.where(exact, EXACT_TOUCH_FRACTION, SAMPLED_TOUCH_FRACTION) * cols[:, 5]
        for name, col in (
            ("centers", cols[:, :3].copy()),
            ("r_in", cols[:, 3].copy()),
            ("r_out", r_out),
            ("tol", np.where(exact, EXACT_TOUCH_FRACTION * self.d_min_global, own_tol)),
            ("reach", _reach(r_out, own_tol)),
            ("exact", exact),
        ):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.objects)

    def get(self, object_id: str) -> SceneObject:
        if object_id not in self._index:
            raise ContractError(f"no object with id {object_id!r}")
        return self.objects[self._index[object_id]]


@dataclass(frozen=True)
class Visit:
    object_id: str
    waypoint_index: int


@dataclass(frozen=True, eq=False)
class Tour:
    """An open trajectory: ordered waypoints with per-object visit annotations.

    ``waypoints`` is stored as a read-only float64 ``(k, 3)`` copy of what
    is given (``k = 0`` allowed); a shape other than ``(k, 3)`` or a
    non-finite coordinate raises ``ContractError``.
    """

    waypoints: np.ndarray
    visits: tuple[Visit, ...] = field(default_factory=tuple)

    def __post_init__(self):
        w = np.array(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 3:
            raise ContractError(f"waypoints must have shape (k, 3), got {w.shape}")
        if not np.isfinite(w).all():
            raise ContractError("non-finite waypoint coordinate")
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)
        object.__setattr__(self, "visits", tuple(self.visits))
        n = len(w)
        for v in self.visits:
            if not (0 <= v.waypoint_index < n):
                raise ContractError(f"visit index {v.waypoint_index} out of range")

    @property
    def length(self) -> float:
        return tour_length(self)


def polyline_length(points: np.ndarray, closed: bool = False) -> float:
    """Sum of the edge lengths of a (k, 3) polyline, plus the closing edge if ``closed``."""
    if len(points) < 2:
        return 0.0
    total = float(np.sum(distances(points[:-1], points[1:])))
    if closed:
        total += float(np.linalg.norm(points[-1] - points[0]))
    return total


def tour_length(tour: Tour) -> float:
    """Sum of consecutive edge lengths of the open trajectory."""
    return polyline_length(tour.waypoints)
