"""Planning algorithms over diameter-bounded regions.

Provides the center-visit planner for disjoint scenes, a greedy maximal
independent set plus perimeter-and-spike detours for overlapping scenes,
an online planner for hollow-ball (unknown-diameter) regions, the
surface-representative baseline used for benchmarking, and validators
for the analytic length bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateDetectionError, _echo
from .geom import (
    EPS_TOL,
    Point3,
    Region,
    Sampled,
    Scene,
    Shell,
    Sphere,
    Tour,
    Visit,
    _boundary_radii,
    _norm,
    closest_point_on_ball,
    closest_point_on_region,
    closest_pair_within,
    contains,
    distances,
    first_touch_indices,
    intersecting_pairs,
    max_diameter_segment,
    polyline_length,
    sq_distances,
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
    dists = [math.dist(s, points[i]) for i in order]
    k = int(np.argmin(dists))
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


@dataclass(frozen=True)
class MisResult:
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


@dataclass(frozen=True, eq=False)
class DetourPlan:
    """Perimeter curves plus spikes around one region, stitched into a path.

    Every point set is a read-only float64 array: ``axis`` (2, 3) holds the
    farthest-pair endpoints, each ring of ``perimeters`` is (k, 3),
    ``spikes`` is (m, 2, 3) with one (inner tip, outer tip) pair per
    out-and-back probe across the boundary, and ``stitched`` (k, 3) is the
    path, at least one point long. ``limit`` is the length budget the
    path was built within (``detour_length_limit``).
    """

    owner_id: str
    axis: np.ndarray
    perimeters: tuple[np.ndarray, ...]
    spikes: np.ndarray
    stitched: np.ndarray
    length: float
    limit: float

    def __post_init__(self):
        for points in (self.axis, self.spikes, self.stitched, *self.perimeters):
            points.flags.writeable = False


def _plane_basis(axis_dir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane perpendicular to the axis.

    ``e1`` is the unit axis with the least ``|axis_dir|`` component (the
    first on a tie) crossed with the axis; ``e2`` is the axis crossed with
    ``e1``. Both cross products take ``np.cross``'s products and
    differences in its order, on Python floats, so they are bitwise its.
    """
    x, y, z = axis_dir.tolist()
    mags = [abs(x), abs(y), abs(z)]
    ref = [0.0, 0.0, 0.0]
    ref[mags.index(min(mags))] = 1.0
    r0, r1, r2 = ref
    e1 = np.array([r1 * z - r2 * y, r2 * x - r0 * z, r0 * y - r1 * x])
    e1 /= _norm(e1)
    u0, u1, u2 = e1.tolist()
    return e1, np.array([y * u2 - z * u1, z * u0 - x * u2, x * u1 - y * u0])


def _trace_perimeter(
    region: Region, plane_point: np.ndarray, axis_dir: np.ndarray, perimeter_step: float
) -> np.ndarray | None:
    """Closed polyline where the cutting plane meets the region boundary."""
    c = region.center.as_array()
    e1, e2 = _plane_basis(axis_dir)
    h_vec = plane_point - c
    h_axial = float(h_vec @ axis_dir)
    exact = isinstance(region.shape, (Sphere, Shell))
    if exact:
        rad = region.d_max / 2.0
        rho_sq = rad * rad - h_axial * h_axial
        if rho_sq <= 0.0:
            return None
        rho = math.sqrt(rho_sq)
        n_seg = max(8, int(math.ceil(2.0 * math.pi * rho / perimeter_step)))
    else:
        d_hi = region.d_max / 2.0
        n_seg = max(16, int(math.ceil(2.0 * math.pi * d_hi / perimeter_step)))
    # np.linspace(0, 2 pi, n_seg, endpoint=False), by its own arithmetic.
    thetas = np.arange(n_seg) * (2.0 * math.pi / n_seg)
    rays = np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2
    base = c + h_axial * axis_dir
    if exact:
        return base + rho * rays
    # Sampled boundary: bisect the in-plane radius along every angle at
    # once (star-shaped assumption). A ray whose final ``lo`` is still 0
    # never entered the region.
    lo = np.zeros(n_seg)
    hi = np.full(n_seg, d_hi * 1.5)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = contains(region, base + mid[:, None] * rays, tol=0.0)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    hit = lo > 0.0
    if np.count_nonzero(hit) < 3:
        return None
    return base + lo[hit, None] * rays[hit]


def _boundary_normal(region: Region, p: np.ndarray) -> np.ndarray:
    c = region.center.as_array()
    shape = region.shape
    if isinstance(shape, Sampled):
        n = shape.normals[int(np.argmin(sq_distances(p, shape.points)))].astype(float)
        nn = _norm(n)
        if nn > 1e-12:
            return n / nn
    v = p - c
    r = _norm(v)
    if r < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    return v / r


def _ring_edges(ring: np.ndarray) -> tuple[np.ndarray, float]:
    """Edge lengths of a closed (k, 3) ring, edge ``i`` leaving vertex ``i``, and its length.

    The length is bitwise ``polyline_length(ring, closed=True)``: the sum of
    the same open edges, plus the closing edge as a 1-D norm.
    """
    edges = distances(ring, np.concatenate([ring[1:], ring[:1]]))
    return edges, float(np.sum(edges[:-1])) + _norm(ring[-1] - ring[0])


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

    d = d_min_global
    budget = detour_length_limit(owner.d_max, d)
    axis = max_diameter_segment(owner)
    a, b = axis
    ab = b - a
    ab_len = _norm(ab)
    if ab_len < touch_tolerance(owner, d_min_global):
        return _point_detour(owner_id, axis, budget)
    axis_dir = ab / ab_len

    n_planes = max(1, int(math.ceil(ab_len / d)) - 1)
    if n_planes == 1:
        plane_points = [a + 0.5 * ab]  # a single plane always cuts the midpoint
    else:
        plane_points = [a + (i * d) * axis_dir for i in range(1, n_planes + 1)]

    rings: list[np.ndarray] = []
    for pp in plane_points:
        ring = _trace_perimeter(owner, pp, axis_dir, d / 16.0)
        if ring is not None:
            rings.append(ring)
    if not rings:
        mid = _trace_perimeter(owner, a + 0.5 * ab, axis_dir, d / 16.0)
        rings = [mid] if mid is not None else []
    if not rings:
        return _point_detour(owner_id, axis, budget)

    edges, ring_lens = zip(*(_ring_edges(r) for r in rings))

    # Endpoint spikes along the boundary normals at a and b give the
    # stitched path polar reach; include them when the budget allows.
    a_arm = 0.5 * d * _boundary_normal(owner, a)
    b_arm = 0.5 * d * _boundary_normal(owner, b)
    poles = np.array([[a - a_arm, a + a_arm], [b - b_arm, b + b_arm]])  # (inner, outer) tips
    a_in, b_in = poles[:, 0]

    # The rings are joined first vertex to first vertex. With poles, the
    # path also traverses each endpoint spike once and runs from a's inner
    # tip to the first ring and from the last ring to b's.
    links = [_norm(r[0] - s[0]) for r, s in zip(rings, rings[1:])]
    pole_cost = (
        2.0 * d
        + _norm(a_in - rings[0][0])
        + _norm(rings[-1][0] - b_in)
    )
    base_no_poles = sum(ring_lens) + sum(links)
    base_with_poles = sum(ring_lens) + sum(links, pole_cost)
    with_poles = base_with_poles <= budget
    base = base_with_poles if with_poles else base_no_poles

    spike_cost = 2.0 * d  # out to one tip, across, and back to the anchor
    affordable = max(0, int(math.floor((budget - base) / spike_cost)))
    targets = [max(1, int(math.floor(L / d))) for L in ring_lens]
    counts = [0] * len(rings)
    remaining = affordable
    progressing = True
    while remaining > 0 and progressing:
        progressing = False
        for j in range(len(rings)):
            if remaining > 0 and counts[j] < targets[j]:
                counts[j] += 1
                remaining -= 1
                progressing = True

    # Each ring is walked from its first vertex and closed back to it; after
    # each anchor vertex p the path runs out to the spike's tips and back
    # to p: ring[..k], (c_in, c_out, p), ring[k + 1..], ..., ring[0].
    pieces: list[np.ndarray] = []
    spikes: list[np.ndarray] = []
    if with_poles:
        pieces.append(poles[0, ::-1])
        spikes.append(poles[:1])
    c = owner.center.as_array()
    for j, ring in enumerate(rings):
        anchors, rows = [], []
        for k in _arc_positions(edges[j], counts[j]) if counts[j] > 0 else ():
            p = ring[k]
            normal = _boundary_normal(owner, p)
            in_plane = normal - (normal @ axis_dir) * axis_dir
            norm = _norm(in_plane)
            if norm < 1e-12:
                in_plane = p - (c + ((p - c) @ axis_dir) * axis_dir)
                norm = _norm(in_plane)
                if norm < 1e-12:
                    continue
            arm = 0.5 * d * (in_plane / norm)
            anchors.append(k)
            rows.append((p - arm, p + arm, p))
        done = 0
        if rows:
            triples = np.array(rows)
            for k, triple in zip(anchors, triples):
                pieces += [ring[done : k + 1], triple]
                done = k + 1
            spikes.append(triples[:, :2])
        pieces += [ring[done:], ring[:1]]
    if with_poles:
        pieces.append(poles[1])
        spikes.append(poles[1:])

    path = np.concatenate(pieces)
    return DetourPlan(
        owner_id=owner_id,
        axis=axis,
        perimeters=tuple(rings),
        spikes=np.concatenate(spikes) if spikes else np.empty((0, 2, 3)),
        stitched=path,
        length=polyline_length(path),
        limit=budget,
    )


def _point_detour(owner_id: str, axis: np.ndarray, limit: float) -> DetourPlan:
    """The detour of a region with no perimeter to walk: its first axis endpoint."""
    return DetourPlan(
        owner_id=owner_id,
        axis=axis,
        perimeters=(),
        spikes=np.empty((0, 2, 3)),
        stitched=axis[:1],
        length=0.0,
        limit=limit,
    )


# --------------------------------------------------------------------------- non-disjoint plan


@dataclass(frozen=True, eq=False)
class NondisjointPlan:
    """Tour plus the construction details behind it."""

    tour: Tour
    mis: MisResult
    detours: tuple[DetourPlan, ...]
    patched_ids: tuple[str, ...]


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
    blocks: list[np.ndarray] = [base.waypoints[:1]]
    detours: list[DetourPlan] = []
    for visit in base.visits:
        touch = base.waypoints[visit.waypoint_index]
        blocks.append(touch[None])
        if visit.object_id not in owners:
            continue
        owner = scene.get(visit.object_id).region
        plan = build_detour(owner, scene.d_min_global, owner_id=visit.object_id)
        detours.append(plan)
        stitched = plan.stitched
        if _norm(stitched[-1] - touch) < _norm(stitched[0] - touch):
            stitched = stitched[::-1]
        blocks.append(stitched)

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
        if tips and contains(region, np.array(tips), scene.tol[i]).any():
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


@dataclass(frozen=True, eq=False)
class DetectionOutcome:
    """Where an object was detected: ``detected_at`` is a (3,) position."""

    object_id: str
    realized_diameter: float
    detected_at: np.ndarray


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
    before its center is reached.

    The oracle must fire only within ``d_max / 2 + d_min / 10`` of the
    center, as it does for any region whose diameter is at most ``d_max``.
    Each leg therefore starts polling at its last lattice position outside
    the ball of radius ``d_max / 2`` about the center, or at its start when
    none is (the skipped ones lie more than a step outside it), and makes
    at most ``ceil(5 * d_max / d_min) + 2`` polls. Detection points are
    those of polling the whole lattice from the leg's start.
    """
    d_min, d_max = scene.d_min_global, scene.d_max_global
    close = closest_pair_within(scene.centers, d_max)
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
        dist = float(np.linalg.norm(delta))
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
            realized = min(max(2.0 * float(np.linalg.norm(p - c)), d_min), d_max)
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


def _mst_adjacency(pts: np.ndarray, root: int) -> list[list[int]]:
    """Prim minimum spanning tree; children listed in insertion order.

    Distance rows are computed as each point joins the tree, so memory is O(n).
    """
    n = len(pts)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[root] = True
    best = distances(pts[root], pts)
    parent = np.full(n, root)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        adj[int(parent[j])].append(j)
        in_tree[j] = True
        row = distances(pts[j], pts)
        update = (row < best) & ~in_tree
        best[update] = row[update]
        parent[update] = j
    return adj


def _doubled_tree_walk(adj: list[list[int]], root: int) -> list[int]:
    """Depth-first walk traversing every tree edge out and back."""
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
    baseline roughly twice as long as center-visit planning. Memory is
    O(n * samples_per_region); the spanning tree needs O(n).
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
        region = int(np.argmin(np.where(is_open, best, np.inf)))
        sample = best_idx[region]
    rep_arr[region] = samples[region, sample]

    root = int(np.argmin(distances(start_arr, rep_arr)))
    walk = _doubled_tree_walk(_mst_adjacency(rep_arr, root), root)

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


@dataclass(frozen=True)
class DetourBound:
    owner_id: str
    limit: float
    actual: float
    holds: bool


@dataclass(frozen=True)
class BoundReport:
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
