"""Planning algorithms over diameter-bounded regions.

Provides the center-visit planner for disjoint scenes, a greedy maximal
independent set plus perimeter-and-spike detours for overlapping scenes,
an online planner for hollow-ball (unknown-diameter) regions, the
surface-representative baseline used for benchmarking, and validators
for the analytic length bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DegenerateDetectionError, _echo
from .geom import (
    EPS_TOL,
    Point3,
    Region,
    Sampled,
    Scene,
    Tour,
    Visit,
    _boundary_radii,
    _Record,
    _dots,
    _nearest_sample,
    _norm,
    closest_point_on_ball,
    closest_point_on_region,
    contains,
    distances,
    earlier_within,
    first_touch_indices,
    intersecting_pairs,
    max_diameter_segment,
    touch_tolerance,
    tour_length,
)
from .tsp import TspConfig, solve_order

# Ball-packing constant of the region-count bound: N <= (27 / 20 d_min) (L + 2 d_min).
REGION_COUNT_COEFF = 27.0 / 20.0
# Default boundary samples per region for the surface-representative baseline.
DEFAULT_SAMPLES_PER_REGION = 108
# Planar disk-tour packing constant: a tour of N disjoint diameter-D disks
# is at least N * alpha * D / 4 long.
ONLINE_PACKING_ALPHA = 0.4786


def detour_length_limit(owner_d_max: float, d_min_global: float) -> float:
    """Length budget for a perimeter-and-spike detour around one region."""
    return 3.0 * math.pi * owner_d_max**2 / d_min_global


def region_count_bound(d_min_global: float, tour_len: float) -> float:
    """Upper bound on how many disjoint regions a tour of this length visits."""
    return REGION_COUNT_COEFF / d_min_global * (tour_len + 2.0 * d_min_global)


def online_tour_lower_bound(n_objects: int, d_min_global: float) -> float:
    """Packing lower bound on any tour of n disjoint diameter-d_min balls."""
    return 0.25 * n_objects * ONLINE_PACKING_ALPHA * d_min_global


# --------------------------------------------------------------------------- center visit


def _rotate_to_nearest(order: list[int], points: np.ndarray, start: Point3) -> list[int]:
    """Rotate a cyclic visiting order over ``points`` (n, 3) to begin nearest the start pose."""
    if not order:
        return order
    s = (start.x, start.y, start.z)
    dists = [math.dist(s, p) for p in points[order].tolist()]
    k = dists.index(min(dists))
    return order[k:] + order[:k]


def _center_order_walk(start: Point3, scene: Scene, tsp: TspConfig, place) -> Tour:
    """One waypoint and visit per object, in a point tour over the centers.

    The order is rotated so the center nearest the start comes first, and
    ``place(index, previous_waypoint)`` gives object ``index``'s waypoint.
    The trajectory is open and begins at ``start``.
    """
    waypoints = [start.as_array()]
    visits = []
    for idx in _rotate_to_nearest(solve_order(scene.centers, tsp), scene.centers, start):
        waypoints.append(place(idx, waypoints[-1]))
        visits.append(Visit(object_id=scene.ids[idx], waypoint_index=len(waypoints) - 1))
    return Tour(waypoints=waypoints, visits=tuple(visits))


def center_visit(start: Point3, scene: Scene, tsp: TspConfig = TspConfig()) -> Tour:
    """Visit every region, in center order, at its closest point to the previous waypoint.

    Spheres and shells are projected from the scene's columns, so that no
    region object is built for them.
    """
    centers, r_in, r_out, exact = scene.centers, scene.r_in.tolist(), scene.r_out.tolist(), scene.exact.tolist()

    def place(i: int, p: np.ndarray) -> np.ndarray:
        if exact[i]:
            return closest_point_on_ball(centers[i], r_in[i], r_out[i], p)
        return closest_point_on_region(scene.region(i), p)

    return _center_order_walk(start, scene, tsp, place)


# --------------------------------------------------------------------------- independent set


class MisResult(NamedTuple):
    """Greedy independent set: kept ids plus removed-to-keeper assignment."""

    kept: tuple[str, ...]
    assignment: dict[str, str]


def maximal_independent_set(scene: Scene) -> MisResult:
    """Keep the smallest-d_max region, drop everything it intersects, repeat.

    Ties on d_max break by ascending object id. Every removed object is
    assigned to the keeper that removed it; a keeper's removals are
    recorded in that same order.
    """
    ids = scene.ids
    r_out = scene.r_out.tolist()
    order = sorted(range(len(ids)), key=lambda k: (r_out[k], ids[k]))
    rank = {k: r for r, k in enumerate(order)}
    neighbours: list[list[int]] = [[] for _ in ids]
    for i, j in intersecting_pairs(scene):
        neighbours[i].append(j)
        neighbours[j].append(i)
    decided = [False] * len(ids)
    kept: list[str] = []
    assignment: dict[str, str] = {}
    for k in order:
        if decided[k]:
            continue
        decided[k] = True
        kept.append(ids[k])
        for j in sorted(neighbours[k], key=rank.__getitem__):
            if not decided[j]:
                decided[j] = True
                assignment[ids[j]] = ids[k]
    return MisResult(kept=tuple(kept), assignment=assignment)


# --------------------------------------------------------------------------- detour


class DetourPlan(_Record):
    """Perimeter curves plus spikes around one region, stitched into a path.

    Every point set is a read-only float64 array: ``axis`` (2, 3) holds the
    farthest-pair endpoints, each ring of ``perimeters`` is (k, 3),
    ``spikes`` is (m, 2, 3) with one (inner tip, outer tip) pair per
    out-and-back probe across the boundary, and ``stitched`` (k, 3) is the
    path, at least one point long. ``limit`` is the length budget the
    path was built within (``detour_length_limit``).
    """

    __slots__ = ("owner_id", "axis", "perimeters", "spikes", "stitched", "length", "limit")

    def __init__(
        self, owner_id: str, axis: np.ndarray, perimeters: tuple[np.ndarray, ...], spikes: np.ndarray,
        stitched: np.ndarray, length: float, limit: float,
    ):
        for points in (axis, spikes, stitched, *perimeters):
            points.flags.writeable = False
        self._set(owner_id, axis, perimeters, spikes, stitched, length, limit)


def _plane_basis(axis_dir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane perpendicular to each unit axis (..., 3).

    ``e1`` is the unit axis with the least ``|axis_dir|`` component (the
    first on a tie) crossed with the axis; ``e2`` is the axis crossed with
    ``e1``. Both cross products take ``np.cross``'s products and
    differences in its order, so they are bitwise its.
    """
    x, y, z = np.moveaxis(axis_dir, -1, 0)
    r0, r1, r2 = np.moveaxis(np.eye(3)[np.argmin(np.abs(axis_dir), axis=-1)], -1, 0)
    e1 = np.stack([r1 * z - r2 * y, r2 * x - r0 * z, r0 * y - r1 * x], axis=-1)
    e1 /= np.sqrt(_dots(e1, e1))[..., None]
    u0, u1, u2 = np.moveaxis(e1, -1, 0)
    return e1, np.stack([y * u2 - z * u1, z * u0 - x * u2, x * u1 - y * u0], axis=-1)


def _bisect_radii(region: Region, base: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """How far each unit ray (k, 3) from ``base`` (3,) stays in a sampled region, by 48 bisection
    steps on every ray at once (star-shaped assumption); 0 for a ray that never entered it."""
    lo = np.zeros(len(rays))
    hi = np.full(len(rays), region.d_max / 2.0 * 1.5)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = contains(region, base + mid[:, None] * rays, tol=0.0)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo


def _rings(c, u, e1, e2, rad, regions, own, plane_points, d):
    """Where cutting plane i, through ``plane_points[i]`` across the axis of owner ``own[i]``, meets
    that owner's boundary: (ring points (k, 3), each ring's owner, each ring's point count).

    Owner j has center ``c[j]``, unit axis ``u[j]`` with in-plane basis ``e1[j]``, ``e2[j]``, outer
    radius ``rad[j]``, and ``regions[j]`` if it is sampled. A sphere or shell ring is the circle of
    in-plane radius rho in max(8, ceil(32 pi rho / d)) points; a plane past the sphere has none. A
    sampled ring takes max(16, ceil(32 pi rad / d)) rays from the plane's axis point and keeps
    those ``_bisect_radii`` finds entering the region, if there are three.
    """
    h = _dots(plane_points - c[own], u[own])
    base = c[own] + h[:, None] * u[own]
    rho_sq = rad[own] * rad[own] - h * h
    rho = np.sqrt(np.maximum(rho_sq, 0.0))
    exact = np.array([regions[j] is None for j in own.tolist()], dtype=bool)
    n_seg = np.where(exact, np.maximum(8, np.ceil(2.0 * math.pi * rho / (d / 16.0))),
                     np.maximum(16, np.ceil(2.0 * math.pi * rad[own] / (d / 16.0)))).astype(np.intp)
    n_seg[exact & (rho_sq <= 0.0)] = 0
    plane = np.repeat(np.arange(len(own)), n_seg)
    first = np.cumsum(n_seg) - n_seg
    # np.linspace(0, 2 pi, n_seg, endpoint=False) of each plane, by its own arithmetic.
    thetas = (np.arange(len(plane)) - first[plane]) * (2.0 * math.pi / n_seg[plane])
    rays = np.cos(thetas)[:, None] * e1[own[plane]] + np.sin(thetas)[:, None] * e2[own[plane]]
    radius = rho[plane]
    for i in np.flatnonzero(~exact).tolist():
        at = slice(first[i], first[i] + n_seg[i])
        radius[at] = _bisect_radii(regions[own[i]], base[i], rays[at])
    hit = radius > 0.0
    count = np.bincount(plane[hit], minlength=len(own))
    hit &= (count >= 3)[plane]
    return base[plane[hit]] + radius[hit, None] * rays[hit], own[count >= 3], count[count >= 3]


def _boundary_normals(p: np.ndarray, c: np.ndarray, own: np.ndarray, regions) -> np.ndarray:
    """Outward unit normal at each point ``p[i]`` (k, 3) of owner ``own[i]``'s boundary, about center ``c[i]``.

    A sampled owner (``regions[own[i]]`` its region) gives the normal of its boundary sample
    nearest the point. The unit radial direction, +x at the center, stands in for a zero normal
    and serves every sphere or shell.
    """
    v = p - c
    r = np.sqrt(_dots(v, v))[:, None]
    normals = np.where(r >= 1e-12, v / np.where(r >= 1e-12, r, 1.0), [1.0, 0.0, 0.0])
    for j in {j for j in own.tolist() if regions[j] is not None}:
        rows = np.flatnonzero(own == j)
        n = regions[j].shape.normals[_nearest_sample(regions[j].shape, p[rows])]
        nn = np.sqrt(_dots(n, n))[:, None]
        normals[rows] = np.where(nn > 1e-12, n / np.where(nn > 1e-12, nn, 1.0), normals[rows])
    return normals


def _ring_edges(points: np.ndarray, start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Edge lengths of closed rings held in ``points`` (k, 3), ring r ``count[r]`` rows from row
    ``start[r]`` and edge ``i`` leaving row ``i``, and each ring's length.

    Each length is bitwise ``polyline_length(ring, closed=True)``: the sum of
    the same open edges, plus the closing edge as a one-vector norm.
    """
    last = start + count - 1
    nxt = np.arange(1, len(points) + 1)
    nxt[last] = start
    edges = distances(points, points[nxt])
    close = points[last] - points[start]
    close = np.sqrt(_dots(close, close)).tolist()
    return edges, [float(np.sum(edges[s:e])) + cl for s, e, cl in zip(start.tolist(), last.tolist(), close)]


def _arc_positions(edges: np.ndarray, count: int) -> list[int]:
    """Ascending distinct indices of ``count`` vertices evenly spaced by arc length
    around a closed ring with edge lengths ``edges`` (edge ``i`` leaves vertex ``i``).

    Target ``k`` is ``k * total / count`` along the ring; each maps to the
    last vertex whose arc position does not exceed it.
    """
    cum = np.concatenate([[0.0], np.cumsum(edges)])
    targets = np.arange(count) * cum[-1] / count
    return sorted(set((cum[:-1].searchsorted(targets, side="right") - 1).tolist()))


def build_detour(owner: Region, d_min_global: float, owner_id: str = "") -> DetourPlan:
    """Perimeter-and-spike traversal guaranteeing contact with neighbors.

    Cutting planes perpendicular to the farthest-pair axis are spaced
    ``d_min_global`` apart (a single plane through the midpoint when the
    region is not much longer than that spacing). Each plane's boundary
    curve, traced in steps of ``d_min_global / 16``, is walked with
    out-and-back spikes of total length ``d_min_global`` (half outward,
    half inward along the boundary normal projected into the plane), one
    per ``d_min_global`` of arc at most. Axis-endpoint spikes and the
    per-perimeter spike count are filled greedily so the stitched length
    never exceeds the analytic budget ``3 * pi * d_max^2 / d_min``.
    """
    if d_min_global <= 0:
        raise ContractError("d_min_global must be positive")
    region = owner if isinstance(owner.shape, Sampled) else None
    center, d_max = owner.center.as_array()[None], np.array([owner.d_max], dtype=float)
    return _detours(center, d_max, [region], d_min_global, [owner_id])[0]


def _detours(centers: np.ndarray, d_max: np.ndarray, regions, d: float, ids) -> list[DetourPlan]:
    """``build_detour`` of every owner at spacing ``d``, in whole-array passes over the owners.

    Owner j has center ``centers[j]`` (3,), diameter ``d_max[j]`` and id
    ``ids[j]``; ``regions[j]`` is its region if it is sampled, and None for
    a sphere or shell, which needs only those columns. Sums whose order
    sets their bits (ring and path lengths, arc positions and the spike
    budget) run per ring or per owner.
    """
    limits = [detour_length_limit(x, d) for x in d_max.tolist()]
    off = np.zeros_like(centers)
    off[:, 0] = d_max / 2.0
    axes = np.stack([centers - off, centers + off], axis=1)  # a sphere's axis lies along +x
    for j in [j for j, region in enumerate(regions) if region is not None]:
        axes[j] = max_diameter_segment(regions[j])
    ab = axes[:, 1] - axes[:, 0]
    ab_len = np.sqrt(_dots(ab, ab))
    live = np.flatnonzero(ab_len >= touch_tolerance(d))
    c, ends, ab, u, m = centers[live], axes[live], ab[live], ab[live] / ab_len[live, None], len(live)
    regions = [regions[j] for j in live.tolist()]

    # Planes d apart from a, or one through the midpoint, which is also the
    # plane an owner whose planes all miss it is traced at.
    n_planes = np.maximum(1, np.ceil(ab_len[live] / d).astype(np.intp) - 1)
    own = np.repeat(np.arange(m), n_planes)
    i = np.arange(1, len(own) + 1) - np.repeat(np.cumsum(n_planes) - n_planes, n_planes)
    mid = ends[:, 0] + 0.5 * ab
    planes = np.where((n_planes == 1)[own, None], mid[own], ends[own, 0] + (i * d)[:, None] * u[own])
    shared = c, u, *_plane_basis(u), d_max[live] / 2.0, regions
    pts, ring_own, ring_n = _rings(*shared, own, planes, d)
    lost = np.setdiff1d(np.flatnonzero(n_planes > 1), ring_own)
    if lost.size:
        more = _rings(*shared, lost, mid[lost], d)
        pts, ring_own, ring_n = (np.concatenate(pair) for pair in zip((pts, ring_own, ring_n), more))
    order = np.argsort(ring_own, kind="stable")
    ring_own, ring_n, start = ring_own[order], ring_n[order], (np.cumsum(ring_n) - ring_n)[order]
    edges, ring_lens = _ring_edges(pts, start, ring_n)
    bounds = np.searchsorted(ring_own, np.arange(m + 1)).tolist()

    # Endpoint spikes along the boundary normals at a and b give the
    # stitched path polar reach; include them when the budget allows.
    arms = 0.5 * d * _boundary_normals(ends.reshape(-1, 3), c.repeat(2, 0), np.arange(m).repeat(2), regions)
    poles = np.stack([ends - arms.reshape(-1, 2, 3), ends + arms.reshape(-1, 2, 3)], axis=2)  # (inner, outer)

    # The rings are joined first vertex to first vertex. With poles, the
    # path also traverses each endpoint spike once and runs from a's inner
    # tip to the first ring and from the last ring to b's.
    first = pts[start]
    gaps = np.concatenate([first[:-1] - first[1:], poles[ring_own, 0, 0] - first, first - poles[ring_own, 1, 0]])
    gaps = np.sqrt(_dots(gaps, gaps)).tolist()
    n = len(first)
    links, to_a, to_b = gaps[: n - 1], gaps[n - 1 : 2 * n - 1], gaps[2 * n - 1 :]
    start, ring_n = start.tolist(), ring_n.tolist()
    with_poles, anchors, ring_anchors = [], [], []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo == hi:
            with_poles.append(None)
            continue
        lens = ring_lens[lo:hi]
        base_no_poles = sum(lens) + sum(links[lo : hi - 1])
        base_with_poles = sum(lens) + sum(links[lo : hi - 1], 2.0 * d + to_a[lo] + to_b[hi - 1])
        limit = limits[live[j]]
        with_poles.append(base_with_poles <= limit)
        base = base_with_poles if with_poles[-1] else base_no_poles
        # A spike runs out to one tip, across, and back to its anchor: 2 d.
        affordable = max(0, int(math.floor((limit - base) / (2.0 * d))))
        targets = [max(1, int(math.floor(L / d))) for L in lens]
        # In rounds: one more spike to each ring still short of its target.
        counts = [0] * len(lens)
        for r in range(max(targets)):
            for k, target in enumerate(targets):
                if affordable > 0 and target > r:
                    counts[k] += 1
                    affordable -= 1
        for r, count in zip(range(lo, hi), counts):
            ks = _arc_positions(edges[start[r] : start[r] + ring_n[r]], count) if count else []
            anchors += [start[r] + k for k in ks]
            ring_anchors.append(len(ks))

    # Each anchor p spikes along its boundary normal projected into its
    # plane, or away from the axis where that projection vanishes.
    o = ring_own[np.repeat(np.arange(n), ring_anchors)]
    p, po, uo = pts[anchors], c[o], u[o]
    in_plane = _boundary_normals(p, po, o, regions)
    in_plane -= _dots(in_plane, uo)[:, None] * uo
    norm = np.sqrt(_dots(in_plane, in_plane))
    flat = norm < 1e-12
    in_plane[flat] = p[flat] - (po[flat] + _dots(p[flat] - po[flat], uo[flat])[:, None] * uo[flat])
    norm[flat] = np.sqrt(_dots(in_plane[flat], in_plane[flat]))
    kept = norm >= 1e-12
    arm = 0.5 * d * (in_plane / np.where(kept, norm, 1.0)[:, None])
    triples = np.stack([p - arm, p + arm, p], axis=1)

    # Each ring is walked from its first vertex and closed back to it; after
    # each anchor vertex p the path runs out to the spike's tips and back
    # to p: ring[..k], (c_in, c_out, p), ring[k + 1..], ..., ring[0].
    pieces, made, t, keep = [], {}, 0, kept.tolist()
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if with_poles[j] is None:
            continue
        t0, piece0 = t, len(pieces)
        pieces += [poles[j, 0, ::-1]] if with_poles[j] else []
        for s, count, many in zip(start[lo:hi], ring_n[lo:hi], ring_anchors[lo:hi]):
            done = s
            for k in anchors[t : t + many]:
                if keep[t]:
                    pieces += [pts[done : k + 1], triples[t]]
                    done = k + 1
                t += 1
            pieces += [pts[done : s + count], pts[s : s + 1]]
        spikes = triples[t0:t][kept[t0:t], :2]
        if with_poles[j]:
            pieces.append(poles[j, 1])
            spikes = np.concatenate([poles[j, :1], spikes, poles[j, 1:]])
        rings = tuple(pts[s : s + count] for s, count in zip(start[lo:hi], ring_n[lo:hi]))
        made[live[j]] = rings, spikes, piece0, len(pieces)

    path = np.concatenate(pieces) if pieces else np.empty((0, 3))
    rows = np.cumsum([0] + [len(x) for x in pieces]).tolist()
    seg = distances(path[:-1], path[1:])
    out = []
    for w, (oid, axis, limit) in enumerate(zip(ids, axes, limits)):
        if w not in made:
            out.append(_point_detour(oid, axis, limit))
            continue
        rings, spikes, r0, r1 = made[w]
        r0, r1 = rows[r0], rows[r1]
        out.append(DetourPlan(oid, axis, rings, spikes, path[r0:r1], float(np.sum(seg[r0 : r1 - 1])), limit))
    return out


def _point_detour(owner_id: str, axis: np.ndarray, limit: float) -> DetourPlan:
    """The detour of a region with no perimeter to walk: its first axis endpoint."""
    return DetourPlan(owner_id, axis, (), np.empty((0, 2, 3)), axis[:1], 0.0, limit)


# --------------------------------------------------------------------------- non-disjoint plan


class NondisjointPlan(_Record):
    """Tour plus the construction details behind it."""

    __slots__ = ("tour", "mis", "detours", "patched_ids")

    def __init__(
        self, tour: Tour, mis: MisResult, detours: tuple[DetourPlan, ...], patched_ids: tuple[str, ...]
    ):
        self._set(tour, mis, detours, patched_ids)


def plan_nondisjoint_detailed(
    start: Point3,
    scene: Scene,
    tsp: TspConfig = TspConfig(),
) -> NondisjointPlan:
    """Center-visit over a maximal independent set, with detours spliced in.

    Keepers with overlapping neighbors get a perimeter-and-spike detour
    entered at the stitched endpoint nearest the touch point. Any object
    the assembled trajectory still misses is patched with a minimal
    out-and-back visit so coverage is always complete.
    """
    mis = maximal_independent_set(scene)
    if not mis.assignment:
        # Fully disjoint: the plan is exactly the center-visit trajectory.
        tour = center_visit(start, scene, tsp)
        return NondisjointPlan(tour=tour, mis=mis, detours=(), patched_ids=())
    kept = set(mis.kept)
    base = center_visit(start, scene.subset([i for i, oid in enumerate(scene.ids) if oid in kept]), tsp)
    owners = set(mis.assignment.values())
    row = {oid: i for i, oid in enumerate(scene.ids) if oid in owners}
    owned = [v for v in base.visits if v.object_id in row]
    rows, at = [row[v.object_id] for v in owned], [v.waypoint_index for v in owned]
    regions = [None if scene.exact[i] else scene.region(i) for i in rows]
    ids = [v.object_id for v in owned]
    detours = _detours(scene.centers[rows], scene.d_max[rows], regions, scene.d_min_global, ids)
    # Each detour is entered at its stitched end nearer the touch point, its first on a tie.
    ends = np.array([(plan.stitched[-1], plan.stitched[0]) for plan in detours]) - base.waypoints[at][:, None]
    gap = np.sqrt(_dots(ends, ends))
    blocks: list[np.ndarray] = []
    done = 0
    for w, plan, flip in zip(at, detours, (gap[:, 0] < gap[:, 1]).tolist()):
        blocks += [base.waypoints[done : w + 1], plan.stitched[::-1] if flip else plan.stitched]
        done = w + 1
    blocks.append(base.waypoints[done:])

    arr, visits, patched = _patch_and_visit(np.concatenate(blocks), scene)
    tour = Tour(waypoints=arr, visits=visits)
    return NondisjointPlan(
        tour=tour, mis=mis, detours=tuple(detours), patched_ids=tuple(patched)
    )


def _patch_and_visit(
    arr: np.ndarray, scene: Scene
) -> tuple[np.ndarray, tuple[Visit, ...], list[str]]:
    """Patch every object ``arr`` (W, 3) misses; return the waypoints, visits and patched ids.

    Objects are taken in scene order. A missed one (rare: detours are
    budget-capped, so grazing contacts can slip through discretization)
    gets an out-and-back spike from its nearest waypoint to its closest
    point. Each visit is the first waypoint touching its object.
    """
    first = first_touch_indices(scene, arr)
    patched: list[str] = []
    tips: list[np.ndarray] = []
    # Per row of ``arr``: its input row, or -2 for a spike tip and -1 for the copy after it.
    source = np.arange(len(arr))
    for i in np.flatnonzero(first < 0).tolist():
        region = scene.region(i)
        # Rows inserted so far are spike tips or copies of rows already tested.
        if tips and contains(region, np.array(tips), scene.tol).any():
            continue
        near = int(np.argmin(distances(scene.centers[i], arr)))
        q = closest_point_on_region(region, arr[near])
        arr = np.insert(arr, near + 1, [q, arr[near]], axis=0)
        source = np.insert(source, near + 1, [-2, -1])
        tips.append(q)
        patched.append(scene.ids[i])
    if patched:
        # A copy row repeats a row before it, so an object's first touch is
        # its first input row, moved past the inserted rows, or a spike tip.
        none = len(arr)
        shifted = np.where(first < 0, none, np.flatnonzero(source >= 0)[first])
        at = np.flatnonzero(source == -2)
        tip_first = first_touch_indices(scene, arr[at])
        first = np.minimum(shifted, np.where(tip_first < 0, none, at[tip_first]))
        first[first == none] = -1
    missed = np.flatnonzero(first < 0)
    if missed.size:
        missed_id = _echo(scene.ids[missed[0]], repr)
        raise ContractError(f"object {missed_id} left untouched after patching")
    visits = tuple(
        Visit(object_id=oid, waypoint_index=hit) for oid, hit in zip(scene.ids, first.tolist())
    )
    return arr, visits, patched


# --------------------------------------------------------------------------- online planner


class DetectionOutcome(_Record):
    """Where an object was detected: ``detected_at`` is a (3,) position."""

    __slots__ = ("object_id", "realized_diameter", "detected_at")

    def __init__(self, object_id: str, realized_diameter: float, detected_at: np.ndarray):
        self._set(object_id, realized_diameter, detected_at)


class SimulationOracle:
    """Detection oracle over realized diameters, one per scene object in scene order.

    An object is detected from any position (a (3,) array) within its
    realized radius.
    """

    def __init__(self, scene: Scene, diameters):
        self._centers = dict(zip(scene.ids, scene.centers.tolist()))
        self._diameters = dict(zip(scene.ids, diameters, strict=True))

    def __call__(self, object_id: str, position: np.ndarray) -> bool:
        return math.dist(position, self._centers[object_id]) <= self._diameters[object_id] / 2.0

    def realized_diameter(self, object_id: str) -> float:
        return self._diameters[object_id]


def realized_diameters(scene: Scene, rng: np.random.Generator) -> list[float]:
    """Realized diameters in scene order: a sphere keeps its own and draws nothing;
    any other shape draws uniformly from its own [d_min, d_max]."""
    return [
        hi if sphere else float(rng.uniform(lo, hi))
        for lo, hi, sphere in zip(scene.d_min.tolist(), scene.d_max.tolist(), scene.sphere.tolist())
    ]


def plan_online(start: Point3, scene: Scene, oracle) -> tuple[Tour, list[DetectionOutcome]]:
    """Walk toward each center, in ``center_visit``'s order, until its detection oracle fires.

    Each region is taken as a hollow ball of unknown diameter in the
    scene's [d_min, d_max]: only its center and id are read. Motion toward
    each center is polled at step resolution ``d_min / 10`` (the oracle is
    called as ``oracle(object_id, position)`` with a (3,) array) and stops
    at the first detecting position. Raises if an oracle never fires
    before its center is reached, and refuses a scene with two centers
    within ``d_max`` (``earlier_within``, as scene generation draws),
    naming the first such pair in row order.

    The oracle must fire only within ``d_max / 2 + d_min / 10`` of the
    center, as it does for any region whose diameter is at most ``d_max``.
    Each leg therefore starts polling at its last lattice position outside
    the ball of radius ``d_max / 2`` about the center, or at its start when
    none is (the skipped ones lie more than a step outside it), and makes
    at most ``ceil(5 * d_max / d_min) + 2`` polls. Detection points are
    those of polling the whole lattice from the leg's start.
    """
    d_min, d_max = scene.d_min_global, scene.d_max_global
    close = next(((near[0], i) for i, near in earlier_within(scene.centers, 0, d_max) if near), None)
    if close is not None:
        i, j = (_echo(scene.ids[k], repr) for k in close)
        raise ContractError(
            f"centers {i} and {j} closer than d_max; "
            "online planning assumes disjoint outer balls"
        )
    step = d_min / 10.0
    outcomes = []

    def detect(idx: int, pos: np.ndarray) -> np.ndarray:
        oid = scene.ids[idx]
        c = scene.centers[idx]
        delta = c - pos
        dist = _norm(delta)
        direction = delta / dist if dist > 0 else np.zeros(3)
        k = max(0, math.ceil((dist - d_max / 2.0) / step) - 1)
        while True:
            t = min(k * step, dist)
            p = pos + direction * t
            if oracle(oid, p):
                break
            if t >= dist:
                raise DegenerateDetectionError(
                    f"oracle for {_echo(oid, repr)} never fired before its center was reached"
                )
            k += 1
        if hasattr(oracle, "realized_diameter"):
            realized = float(oracle.realized_diameter(oid))
        else:
            realized = min(max(2.0 * _norm(p - c), d_min), d_max)
        outcomes.append(DetectionOutcome(object_id=oid, realized_diameter=realized, detected_at=p))
        return p

    return _center_order_walk(start, scene, TspConfig(), detect), outcomes


# --------------------------------------------------------------------------- surface-representative baseline


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform unit directions (golden-angle spiral)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _surface_samples(scene: Scene, n: int) -> np.ndarray:
    """(len(scene), n, 3) outer-boundary samples along one Fibonacci pattern."""
    dirs = fibonacci_sphere(n)
    centers = scene.centers
    samples = centers[:, None] + dirs * scene.r_out[:, None, None]
    for i in np.flatnonzero(~scene.exact).tolist():
        radii = _boundary_radii(scene.region(i), dirs)
        samples[i] = centers[i] + dirs * radii[:, None]
    return samples


def _doubled_tree_walk(adj: list[list[int]], root: int) -> list[int]:
    """Depth-first walk traversing every tree edge out and back.

    Each node's children are walked in ``adj`` order, which
    ``alpha_fat_baseline`` fills in pick order.
    """
    walk: list[int] = [root]
    stack: list[tuple[int, int]] = [(root, 0)]  # (node, next child slot)
    while stack:
        u, slot = stack[-1]
        if slot < len(adj[u]):
            stack[-1] = (u, slot + 1)
            c = adj[u][slot]
            walk.append(c)
            stack.append((c, 0))
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    return walk


def alpha_fat_baseline(
    start: Point3,
    scene: Scene,
    samples_per_region: int = DEFAULT_SAMPLES_PER_REGION,
) -> Tour:
    """Greedy surface-representative baseline.

    Each region's outer boundary is sampled with a Fibonacci-sphere
    pattern; one representative per region is picked greedily to minimize
    distance to the running representative set (seeded by the sample
    nearest the start, ties to the lowest region then sample index). The
    greedy is exact but pruned: after each pick it measures only the
    regions whose bounding sphere comes within their current best
    distance of the pick. The representatives are toured by a depth-first
    traversal of their minimum spanning tree with every edge walked out
    and back, the constant-factor tour construction fat-region baselines
    use; backtracking through visited representatives is what makes this
    baseline roughly twice as long as center-visit planning. The greedy is
    Prim's algorithm over the representatives, so it records that tree as
    it goes: each region's parent is the pick that set its best distance,
    and each pick joins its parent's children. Memory is
    O(n * samples_per_region).
    """
    if samples_per_region < 4:
        raise ContractError("samples_per_region must be >= 4")
    start_arr = start.as_array()
    if len(scene) == 0:
        return Tour(waypoints=[start_arr])
    n = len(scene)
    samples = _surface_samples(scene, samples_per_region)
    radius = distances(scene.centers[:, None], samples).max(axis=1)

    first = int(np.argmin(distances(start_arr, samples.reshape(-1, 3))))
    region, sample = divmod(first, samples_per_region)
    # Per open region: the least sample distance to the representative set,
    # and the lowest sample index that reaches it.
    best = np.full(n, np.inf)
    best_idx = np.zeros(n, dtype=np.intp)
    # A representative is one of its region's samples, so each pick is also
    # the representative nearest the tree: Prim's pick, with the lowest region
    # index on a tie in both. The pick that last set a region's (best,
    # best_idx) is the earliest tree node at the least distance from its final
    # representative, the parent Prim keeps with its strict `<` update. The
    # root, the first pick, is the representative nearest the start.
    parent = np.zeros(n, dtype=np.intp)
    children: list[list[int]] = [[] for _ in range(n)]
    root = region
    is_open = np.ones(n, dtype=bool)
    rep_arr = np.empty((n, 3))
    for _ in range(n - 1):
        p = samples[region, sample]
        rep_arr[region] = p
        is_open[region] = False
        # No sample of r is nearer to p than |c_r - p| - radius[r]. The
        # relative slack keeps rounding from skipping a region where p would
        # tie or beat its best (tests/test_planner.py builds such a tie).
        reach = (best + radius) * (1.0 + EPS_TOL)
        near = np.flatnonzero(is_open & (distances(p, scene.centers) <= reach))
        dist = distances(p, samples[near].reshape(-1, 3)).reshape(-1, samples_per_region)
        j = np.argmin(dist, axis=1)
        dj = dist[np.arange(len(near)), j]
        better = (dj < best[near]) | ((dj == best[near]) & (j < best_idx[near]))
        best[near[better]] = dj[better]
        best_idx[near[better]] = j[better]
        parent[near[better]] = region
        region = int(np.argmin(np.where(is_open, best, np.inf)))
        sample = best_idx[region]
        children[parent[region]].append(region)
    rep_arr[region] = samples[region, sample]

    walk = _doubled_tree_walk(children, root)

    visits = []
    seen: set[int] = set()
    for k, idx in enumerate(walk, start=1):
        if idx not in seen:
            seen.add(idx)
            visits.append(Visit(object_id=scene.ids[idx], waypoint_index=k))
    waypoints = np.concatenate([start_arr[None], rep_arr[walk]])
    return Tour(waypoints=waypoints, visits=tuple(visits))


# --------------------------------------------------------------------------- method table

# Method id -> planner(start, scene, rng, tsp, samples_per_region) -> (tour, outcomes), the one
# list of methods that `tspn compare` and the plan, baseline and online commands run. Only the
# online planner reads ``rng`` (its realized diameters) and reports outcomes. Each entry looks its
# planner up by module-global name when called, so a patched module attribute is the one run.
PLANNERS = {
    "center-visit": lambda start, scene, rng, tsp, samples: (plan_nondisjoint_detailed(start, scene, tsp).tour, ()),
    "alpha-fat": lambda start, scene, rng, tsp, samples: (alpha_fat_baseline(start, scene, samples), ()),
    "online": lambda start, scene, rng, tsp, samples: plan_online(
        start, scene, SimulationOracle(scene, realized_diameters(scene, rng))
    ),
}


# --------------------------------------------------------------------------- bound validation


class DetourBound(NamedTuple):
    owner_id: str
    limit: float
    actual: float
    holds: bool


class BoundReport(NamedTuple):
    """Evaluated analytic bounds for a planned tour."""

    n_objects: int
    tour_length: float
    count_bound: float
    count_bound_applicable: bool
    count_bound_holds: bool | None
    detour_bounds: tuple[DetourBound, ...]
    online_lower_bound: float
    online_lower_bound_holds: bool | None
    length_over_lower_bound: float | None


def scene_is_disjoint(scene: Scene) -> bool:
    return not intersecting_pairs(scene)


def validate_bounds(
    scene: Scene, tour: Tour, detours: tuple[DetourPlan, ...] = ()
) -> BoundReport:
    """Evaluate the packing count bound, detour budgets and the online bound.

    The achieved tour length stands in for the (unknown) optimum; the
    count bound is monotone in length, so the check remains valid. The
    count bound, the online lower bound and the length over the inverted
    count bound only apply to pairwise-disjoint scenes; on overlapping
    scenes ``count_bound_applicable`` is False and the three verdicts are None.
    """
    n = len(scene)
    length = tour_length(tour)
    d_min = scene.d_min_global
    bound = region_count_bound(d_min, length)
    disjoint = scene_is_disjoint(scene)
    holds = (n <= bound) if disjoint else None

    detour_rows = [
        DetourBound(
            owner_id=plan.owner_id,
            limit=plan.limit,
            actual=plan.length,
            holds=plan.length <= plan.limit * (1.0 + 1e-9),
        )
        for plan in detours
    ]

    lb = online_tour_lower_bound(n, d_min)
    lower_estimate = max(
        d_min * n / REGION_COUNT_COEFF - 2.0 * d_min, 0.0
    )  # inverted count bound
    factor = (length / lower_estimate) if disjoint and lower_estimate > 0 else None
    return BoundReport(
        n_objects=n,
        tour_length=length,
        count_bound=bound,
        count_bound_applicable=disjoint,
        count_bound_holds=holds,
        detour_bounds=tuple(detour_rows),
        online_lower_bound=lb,
        online_lower_bound_holds=(length >= lb) if disjoint else None,
        length_over_lower_bound=factor,
    )


def missed_objects(tour: Tour, scene: Scene) -> list[str]:
    """Ids of scene objects no tour waypoint touches (within tolerance)."""
    first = first_touch_indices(scene, tour.waypoints)
    return [oid for oid, hit in zip(scene.ids, first.tolist()) if hit < 0]
