"""Independent brute-force oracles used to derive expected test values.

Everything here deliberately avoids the library's own query paths:
plain loops, dense voxel grids, exhaustive permutation search, and
coordinate descent over boundary samples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tspn.errors import CapacityError, ContractError, InvalidRegionError, SizeLimitError
from tspn.geom import (
    EPS_TOL, Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, Tour, Visit,
    closest_point_on_region, contains, max_diameter_segment, regions_intersect, touch_tolerance,
)
from tspn.planner import (
    DetectionOutcome, DetourPlan, NondisjointPlan, _boundary_normal, _doubled_tree_walk,
    _point_detour, _rotate_to_nearest, build_detour, center_visit, detour_length_limit,
    maximal_independent_set,
)
from tspn.tsp import EXACT_MAX_N, TspConfig, solve_order
from tspn.viewscore import ORIENTATION_BINS, OrientationHistogram


def scene_of(regions) -> Scene:
    """The regions as a scene with ids ``r00``, ``r01``, ..., bounded by their own diameters."""
    objs = tuple(SceneObject(id=f"r{k:02d}", region=r) for k, r in enumerate(regions))
    if not objs:
        return Scene(objects=(), d_min_global=1.0, d_max_global=1.0)
    return Scene(
        objects=objs,
        d_min_global=min(r.d_min for r in regions),
        d_max_global=max(r.d_max for r in regions),
    )


def ball_interval(region) -> tuple[float, float]:
    """(inner radius, outer radius) of a sphere or shell solid."""
    s = region.shape
    if isinstance(s, Sphere):
        return 0.0, s.diameter / 2.0
    return s.inner_diameter / 2.0, s.outer_diameter / 2.0


def reach_of(region, d_min_global: float) -> float:
    """Radius about the center holding the region (up to the validated ``d_max / 2 * (1 +
    EPS_TOL) + EPS_TOL``) plus ``touch_tolerance(d_min_global)``."""
    return region.d_max / 2.0 * (1.0 + EPS_TOL) + EPS_TOL + touch_tolerance(d_min_global)


def gap_mst_length(start, centers, reach) -> float:
    """Dense-Prim minimum spanning tree length over the start and the region centers.

    An edge weighs the gap ``max(0, |c_i - c_j| - reach_i - reach_j)``; the
    start is a node of reach 0. Any path from the start touching every region
    within ``reach`` of its center is at least this long, since it spans one
    point of each region, and each of its edges is no shorter than its gap.
    """
    nodes = [tuple(map(float, start))] + [tuple(map(float, c)) for c in centers]
    radius = [0.0] + [float(r) for r in reach]

    def gap(i, j):
        return max(0.0, math.dist(nodes[i], nodes[j]) - radius[i] - radius[j])

    best = {j: gap(0, j) for j in range(1, len(nodes))}
    total = 0.0
    while best:
        j = min(best, key=best.get)
        total += best.pop(j)
        for k in best:
            best[k] = min(best[k], gap(j, k))
    return total


def fixed_order_dual(start, centers, radii, u) -> float:
    """Dual lower bound on a path from ``start`` touching balls B(c_k, r_k) in row order.

    For any ``u`` (n, 3) with |u_k| <= 1, set u_{n+1} = 0 and
    w_k = u_k - u_{k+1}: D(u) = -u_1 . s + sum_k (w_k . c_k - r_k |w_k|).
    A leg is at least u_k . (p_k - p_{k-1}); summed by parts and with each
    p_k at its worst point of the ball, that is D(u).
    """
    u = np.asarray(u, dtype=float)
    w = u - np.vstack([u[1:], np.zeros((1, 3))])
    return float(-u[0] @ start + np.sum(w * centers) - np.asarray(radii) @ np.linalg.norm(w, axis=1))


def drawn_diameters(scene: Scene, seed: int) -> list[float]:
    """Realized diameters for a ``SimulationOracle``: one uniform draw in the scene's
    [d_min_global, d_max_global] per object, in scene order."""
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.uniform(scene.d_min_global, scene.d_max_global, size=len(scene))]


def brute_closest_sample(samples: np.ndarray, p) -> np.ndarray:
    """Plain-python scan for the boundary sample nearest to p."""
    best = None
    best_d = float("inf")
    px, py, pz = p
    for row in samples:
        d = math.dist((row[0], row[1], row[2]), (px, py, pz))
        if d < best_d:
            best_d = d
            best = row
    return np.asarray(best)


def brute_farthest_pair(samples: np.ndarray) -> tuple[int, int, float]:
    """O(n^2) farthest-pair scan; returns (i, j, distance), i < j."""
    n = len(samples)
    best = (0, 0, -1.0)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(samples[i], samples[j])
            if d > best[2]:
                best = (i, j, d)
    return best


def voxel_overlap(inside_a, inside_b, lo, hi, resolution: float) -> bool:
    """Dense voxel test: do two solids share any voxel center?

    ``inside_a`` / ``inside_b`` are predicates over (x, y, z) tuples.
    """
    xs = np.arange(lo[0], hi[0] + resolution, resolution)
    ys = np.arange(lo[1], hi[1] + resolution, resolution)
    zs = np.arange(lo[2], hi[2] + resolution, resolution)
    for x in xs:
        for y in ys:
            for z in zs:
                if inside_a((x, y, z)) and inside_b((x, y, z)):
                    return True
    return False


def brute_force_tsp(points: np.ndarray) -> float:
    """Optimal closed-tour length by full permutation search."""
    n = len(points)
    if n <= 1:
        return 0.0
    dist = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        total = sum(dist[order[k], order[k + 1]] for k in range(n - 1))
        total += dist[order[-1], 0]
        best = min(best, total)
    return best


def bucketed_exact_order(points: np.ndarray) -> list[int]:
    """The subset-DP exact solver filled by popcount buckets with a per-member loop, and
    its reconstruction rebuilding each rest mask bit by bit.

    Visiting order of the minimum-length closed tour (subset DP).

    Among equally-optimal tours the lexicographically smallest visiting
    order (by input index, starting at point 0) is returned.
    """
    n = len(points)
    if n > EXACT_MAX_N:
        raise SizeLimitError(f"exact solver capped at {EXACT_MAX_N} points, got {n}")
    if n == 0:
        return []
    if n == 1:
        return [0]
    if n == 2:
        return [0, 1]

    dist = dense_distance_matrix(points)
    full = 1 << n

    # g[mask, j] = shortest path starting at 0, visiting exactly the set
    # `mask` (which contains 0 and j), ending at j.
    g = np.full((full, n), np.inf)
    g[1 | (1 << 0), 0] = 0.0  # mask {0}, at 0
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(full):
        if mask & 1:
            masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
            members = [j for j in range(1, n) if mask & (1 << j)]
            for j in members:
                prev = mask ^ (1 << j)
                cand = g[prev, :] + dist[:, j]
                g[mask, j] = cand.min()

    full_mask = full - 1
    best = float((g[full_mask, 1:] + dist[1:, 0]).min())

    # Greedy lexicographic reconstruction validated against the optimum:
    # completion cost of (last -> rest -> 0) equals g over the reversed path.
    tol = 1e-9 * max(1.0, best)
    order = [0]
    used = 1
    cost = 0.0
    last = 0
    for _ in range(n - 1):
        remaining = [j for j in range(1, n) if not (used & (1 << j))]
        chosen = None
        for c in sorted(remaining):
            rest_mask = 0
            for j in remaining:
                if j != c:
                    rest_mask |= 1 << j
            completion = g[rest_mask | 1 | (1 << c), c]
            total = cost + dist[last, c] + completion
            if total <= best + tol:
                chosen = c
                break
        if chosen is None:  # numeric fallback: take the cheapest completion
            chosen = min(
                remaining,
                key=lambda c: cost
                + dist[last, c]
                + g[(sum(1 << j for j in remaining if j != c)) | 1 | (1 << c), c],
            )
        cost += dist[last, chosen]
        order.append(chosen)
        used |= 1 << chosen
        last = chosen
    return order


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic near-uniform unit directions (golden-angle spiral)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sampled_tspn_optimum(start: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                         n_samples: int = 200, max_rounds: int = 60) -> float:
    """Brute-force open-path TSPN optimum over spheres.

    Enumerates every visit order; for each order runs coordinate descent
    over ``n_samples`` boundary samples per sphere until the touch points
    stop changing. Returns the best path length found.
    """
    n = len(centers)
    dirs = fibonacci_directions(n_samples)
    boundary = [centers[i] + radii[i] * dirs for i in range(n)]
    best = float("inf")
    for perm in itertools.permutations(range(n)):
        pick = [int(np.argmin(np.sum((boundary[i] - centers[perm[0]]) ** 2, axis=1)))
                for i in perm]
        pts = [boundary[perm[k]][0] for k in range(n)]
        # init: closest sample to the previous anchor, chained from start
        prev = start
        for k, i in enumerate(perm):
            d2 = np.sum((boundary[i] - prev) ** 2, axis=1)
            pts[k] = boundary[i][int(np.argmin(d2))]
            prev = pts[k]
        for _ in range(max_rounds):
            changed = False
            for k in range(n):
                i = perm[k]
                before = start if k == 0 else pts[k - 1]
                if k == n - 1:
                    cost = np.linalg.norm(boundary[i] - before, axis=1)
                else:
                    cost = np.linalg.norm(boundary[i] - before, axis=1) + np.linalg.norm(
                        boundary[i] - pts[k + 1], axis=1
                    )
                j = int(np.argmin(cost))
                cand = boundary[i][j]
                if not np.array_equal(cand, pts[k]):
                    pts[k] = cand
                    changed = True
            if not changed:
                break
        length = float(np.linalg.norm(pts[0] - start))
        for k in range(n - 1):
            length += float(np.linalg.norm(pts[k + 1] - pts[k]))
        best = min(best, length)
        _ = pick
    return best


def manual_sobel(image: np.ndarray) -> list[tuple[int, int, float, float]]:
    """Per-pixel 3x3 Sobel on interior pixels via explicit loops.

    Returns (row, col, gx, gy) for every interior pixel.
    """
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    h, w = image.shape
    out = []
    for r in range(1, h - 1):
        for c in range(1, w - 1):
            gx = 0.0
            gy = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    v = float(image[r + dr, c + dc])
                    gx += kx[dr + 1][dc + 1] * v
                    gy += ky[dr + 1][dc + 1] * v
            out.append((r, c, gx, gy))
    return out


# The nine-tap Sobel / orientation / score kernel as it stood before the
# six-tap in-place rewrite in tspn.viewscore, kept verbatim as the
# bitwise reference for it.

_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_SOBEL_Y = _SOBEL_X.T


def nine_tap_sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) on interior pixels; border pixels have no full 3x3 window."""
    h, w = img.shape
    gx = np.zeros((h - 2, w - 2))
    gy = np.zeros((h - 2, w - 2))
    for dr in range(3):
        for dc in range(3):
            block = img[dr : dr + h - 2, dc : dc + w - 2]
            gx += _SOBEL_X[dr, dc] * block
            gy += _SOBEL_Y[dr, dc] * block
    return gx, gy


def nine_tap_edge_orientation_histogram(image, edge_fraction: float = 0.1) -> OrientationHistogram:
    if not (0.0 < edge_fraction <= 1.0):
        raise ContractError("edge_fraction must be in (0, 1]")
    gx, gy = nine_tap_sobel_gradients(image.pixels)
    mag = np.hypot(gx, gy)
    peak = float(mag.max()) if mag.size else 0.0
    if peak == 0.0:
        return OrientationHistogram(bins=np.zeros(ORIENTATION_BINS, dtype=int))
    edge = mag >= edge_fraction * peak
    deg = np.degrees(np.arctan2(gy[edge], gx[edge])) % 360.0
    idx = np.floor(deg).astype(int) % ORIENTATION_BINS
    bins = np.bincount(idx, minlength=ORIENTATION_BINS)
    return OrientationHistogram(bins=bins)


def nine_tap_histogram_entropy(hist: OrientationHistogram) -> float:
    if hist.total_edge_pixels == 0:
        return 0.0
    p = hist.bins[hist.bins > 0] / hist.total_edge_pixels
    return float(-np.sum(p * np.log(p))) + 0.0  # fold -0.0 to 0.0


def nine_tap_viewing_score(image, mask, edge_fraction: float = 0.1) -> float:
    if mask.bits.shape != image.pixels.shape:
        (h, w), (mh, mw) = image.pixels.shape, mask.bits.shape
        raise ContractError(f"mask {mw}x{mh} does not match image {w}x{h}")
    hist = nine_tap_edge_orientation_histogram(image, edge_fraction)
    if hist.total_edge_pixels == 0:
        return 0.0
    object_pixels = int(mask.bits.sum())
    if object_pixels == 0:
        return 0.0
    ratio = object_pixels / image.pixels.size
    return nine_tap_histogram_entropy(hist) * ratio


def brute_intersecting_pairs(regions, intersect) -> list[tuple[int, int]]:
    """Every (i, j), i < j, with ``intersect(regions[i], regions[j])``: all pairs tested."""
    pairs = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if intersect(regions[i], regions[j]):
                pairs.append((i, j))
    return pairs


def greedy_mis(objects, intersect) -> tuple[tuple[str, ...], dict[str, str]]:
    """Quadratic greedy independent set over scene objects.

    Keeps the smallest (d_max, id) object, assigns every remaining object
    it intersects to it (in sorted order), and repeats on the survivors.
    """
    remaining = sorted(objects, key=lambda o: (o.region.d_max, o.id))
    kept: list[str] = []
    assignment: dict[str, str] = {}
    while remaining:
        head = remaining[0]
        kept.append(head.id)
        survivors = []
        for other in remaining[1:]:
            if intersect(head.region, other.region):
                assignment[other.id] = head.id
            else:
                survivors.append(other)
        remaining = survivors
    return tuple(kept), assignment


def one_at_a_time_disjoint_centers(config) -> tuple[np.ndarray, list[np.ndarray]]:
    """A disjoint ``SceneConfig``'s (diameters, centers), drawing one candidate center at a time.

    Draws the diameters, then uniform centers, keeping a candidate ``c``
    when ``np.linalg.norm(c - e) > d_max`` for every kept center ``e``.
    After 10 000 consecutive rejections it raises the ``CapacityError``
    that ``generate_scene`` raises.
    """
    rng = np.random.default_rng(config.seed)
    n, d_max, cube_edge = config.n_objects, config.d_max, config.cube_edge
    diameters = rng.uniform(config.d_min, d_max, size=n)
    centers: list[np.ndarray] = []
    rejections = 0
    while len(centers) < n:
        c = rng.uniform(0.0, cube_edge, size=3)
        if all(np.linalg.norm(c - e) > d_max for e in centers):
            centers.append(c)
            rejections = 0
        else:
            rejections += 1
            if rejections >= 10_000:
                raise CapacityError(
                    f"placed only {len(centers)} of {n} disjoint objects in a {cube_edge} m "
                    f"cube after 10000 consecutive rejections",
                    placed=len(centers),
                )
    return diameters, centers


def object_built_scene(config) -> Scene:
    """A ``SceneConfig``'s scene as ``Scene(objects=...)``, one ``SceneObject`` per draw.

    Disjoint centers come from ``one_at_a_time_disjoint_centers``;
    overlapping ones are drawn in ``generate_scene``'s order: the
    diameters, the free centers, then each overlapping center within
    ``d_min`` of an earlier one, redrawn until it lies in the cube.
    """
    if config.disjoint:
        diameters, centers = one_at_a_time_disjoint_centers(config)
    else:
        rng = np.random.default_rng(config.seed)
        n = config.n_objects
        diameters = rng.uniform(config.d_min, config.d_max, size=n)
        n_overlap = int(math.floor(config.overlap_rate * n)) if n > 1 else 0
        centers = list(rng.uniform(0.0, config.cube_edge, size=(n - n_overlap, 3)))
        for _ in range(n_overlap):
            while True:
                base = centers[int(rng.integers(0, len(centers)))]
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                c = base + u * (config.d_min * float(rng.uniform(0.25, 1.0)))
                if np.all((c >= 0.0) & (c <= config.cube_edge)):
                    break
            centers.append(c)
    objects = [
        SceneObject(id=f"obj-{i:03d}", region=Region(center=Point3.from_array(c), shape=Sphere(float(d))))
        for i, (c, d) in enumerate(zip(centers, diameters))
    ]
    return Scene(objects, config.d_min, config.d_max, config.cube_edge)


def object_document(object_id: str, region) -> dict:
    """One entry of a scene document, built field by field from the region, as ``tspn region`` writes it."""
    s = region.shape
    if isinstance(s, Sphere):
        shape = {"kind": "sphere", "diameter_m": float(s.diameter)}
    elif isinstance(s, Shell):
        shape = {"kind": "shell", "inner_diameter_m": float(s.inner_diameter),
                 "outer_diameter_m": float(s.outer_diameter)}
    else:
        shape = {
            "kind": "sampled",
            "points_m": [[float(v) for v in row] for row in s.points],
            "normals": [[float(v) for v in row] for row in s.normals],
            "d_min_m": float(s.d_min),
            "d_max_m": float(s.d_max),
        }
    c = region.center
    return {"id": object_id, "center_m": [c.x, c.y, c.z], "shape": shape}


def scene_document(scene: Scene) -> dict:
    """The scene document of ``scene``, built from its objects; ``json.dumps(doc, indent=2)`` writes it."""
    return {
        "cube_edge_m": float(scene.cube_edge),
        "d_min_m": float(scene.d_min_global),
        "d_max_m": float(scene.d_max_global),
        "objects": [object_document(o.id, o.region) for o in scene.objects],
    }


# --------------------------------------------------------------------------- scalar containment
# The point-at-a-time containment paths that ``geom.contains`` replaced.
# They take the distance to the center with numpy's 1-D norm and look up
# the boundary radius once per direction.


def scalar_region_contains(region, p: np.ndarray, tol: float) -> bool:
    """One point against one region, with the 1-D norm."""
    c = region.center.as_array()
    v = np.asarray(p, dtype=float) - c
    r = float(np.linalg.norm(v))
    s = region.shape
    if isinstance(s, Sphere):
        return r <= s.diameter / 2.0 + tol
    if isinstance(s, Shell):
        return s.inner_diameter / 2.0 - tol <= r <= s.outer_diameter / 2.0 + tol
    radii = np.linalg.norm(s.points - c, axis=1)
    if r <= float(radii.min()) + tol:
        return True
    if r > float(radii.max()) + tol:
        return False
    return r <= scalar_boundary_radius(s, c, v / r) + tol


def scalar_boundary_radius(shape, center: np.ndarray, u: np.ndarray) -> float:
    """Radius of the boundary sample nearest in direction to the unit vector ``u``."""
    dirs = shape.points - center
    radii = np.linalg.norm(dirs, axis=1)
    dirs = dirs / radii[:, None]
    return float(radii[int(np.argmax(dirs @ u))])


def per_direction_surface_samples(region, dirs: np.ndarray) -> np.ndarray:
    """Sampled boundary points along each direction, one radius lookup per direction."""
    c = region.center.as_array()
    radii = np.array([scalar_boundary_radius(region.shape, c, dirs[i]) for i in range(len(dirs))])
    return c + dirs * radii[:, None]


def loop_regions_intersect(a, b, d_min_global: float) -> bool:
    """Sampled-pair intersection: boundary samples tested one at a time, both ways; for a
    mixed pair, also the exact solid's point nearest the sampled center, in the sampled region."""
    for first, second in ((a, b), (b, a)):
        if not isinstance(first.shape, Sampled):
            continue
        tol = touch_tolerance(d_min_global)
        if any(scalar_region_contains(second, q, tol) for q in first.shape.points):
            return True
        if not isinstance(second.shape, Sampled):
            near = scalar_nearest_ball_point(second, first.center.as_array())
            return scalar_region_contains(first, near, touch_tolerance(d_min_global))
    return False


def dense_solid_points(region, toward, n_dirs: int = 256, n_radii: int = 12) -> np.ndarray:
    """Points of the region solid along near-uniform directions, the axes, a sampled region's
    own boundary directions and the direction to the point ``toward``, at ``n_radii`` radii
    from the hole's (0 if none) out to the boundary's: ``d_max / 2`` for a sphere or shell,
    the radius of the boundary sample nearest in direction for a sampled region."""
    c = region.center.as_array()
    v = np.asarray(toward, dtype=float) - c
    dirs = [fibonacci_directions(n_dirs), np.eye(3), -np.eye(3)]
    if np.any(v):
        dirs.append(v[None] / np.linalg.norm(v))
    s = region.shape
    if isinstance(s, Sampled):
        offsets = s.points - c
        radii = np.linalg.norm(offsets, axis=1)
        units = offsets / radii[:, None]
        dirs = np.vstack(dirs + [units])
        inner, outer = np.zeros(len(dirs)), radii[np.argmax(dirs @ units.T, axis=1)]
    else:
        dirs = np.vstack(dirs)
        inner, outer = (np.full(len(dirs), r) for r in ball_interval(region))
    r = inner[:, None] + (outer - inner)[:, None] * np.linspace(0.0, 1.0, n_radii)
    return (c + dirs[:, None, :] * r[:, :, None]).reshape(-1, 3)


def dense_inside(region, points: np.ndarray, tol: float) -> np.ndarray:
    """Which rows of ``points`` lie in the region solid within ``tol``: each point's distance
    from the center against the radius of the boundary sample nearest in direction, or the
    sphere's or shell's radii; one dense direction table, no prefilter."""
    c = region.center.as_array()
    v = points - c
    r = np.linalg.norm(v, axis=1)
    s = region.shape
    if not isinstance(s, Sampled):
        r_in, r_out = ball_interval(region)
        return (r >= r_in - tol) & (r <= r_out + tol)
    offsets = s.points - c
    radii = np.linalg.norm(offsets, axis=1)
    u = v / np.where(r > 0.0, r, 1.0)[:, None]
    return r <= radii[np.argmax(u @ (offsets / radii[:, None]).T, axis=1)] + tol


def dense_regions_meet(a, b, tol: float) -> bool:
    """Whether two region solids share a point within ``tol``, by dense sampling: some point of
    either's ``dense_solid_points`` (directed at the other's center) lies in the other."""
    pa = dense_solid_points(a, b.center.as_array())
    pb = dense_solid_points(b, a.center.as_array())
    return bool(dense_inside(b, pa, tol).any() or dense_inside(a, pb, tol).any())


def scalar_nearest_ball_point(region, p: np.ndarray) -> np.ndarray:
    """The sphere or shell solid's point nearest ``p``: ``p`` itself, or its radial
    projection onto the outer or the inner sphere (+x from the center of the hole)."""
    c = region.center.as_array()
    r_in, r_out = ball_interval(region)
    r = math.dist(p, c)
    if r_in <= r <= r_out:
        return np.asarray(p, dtype=float)
    if r == 0.0:
        return c + np.array([r_in, 0.0, 0.0])
    return c + (p - c) * ((r_out if r > r_out else r_in) / r)


def scalar_trace_perimeter(region, plane_point, axis_dir, perimeter_step, plane_basis):
    """Sampled-boundary ring of one cutting plane, bisected one angle at a time."""
    c = region.center.as_array()
    e1, e2 = plane_basis(axis_dir)
    h_axial = float((plane_point - c) @ axis_dir)
    d_hi = region.d_max / 2.0
    n_seg = max(16, int(math.ceil(2.0 * math.pi * d_hi / perimeter_step)))
    base = c + h_axial * axis_dir
    pts = []
    for th in np.linspace(0.0, 2.0 * math.pi, n_seg, endpoint=False):
        w = math.cos(th) * e1 + math.sin(th) * e2
        lo, hi = 0.0, d_hi * 1.5
        hit = None
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            p = base + mid * w
            v = p - c
            r = float(np.linalg.norm(v))
            if r < 1e-12:
                lo = mid
                continue
            if r <= scalar_boundary_radius(region.shape, c, v / r):
                lo = mid
                hit = p
            else:
                hi = mid
        if hit is not None:
            pts.append(hit)
    if len(pts) < 3:
        return None
    return np.array(pts)


# --------------------------------------------------------------------------- dense TSP heuristic
# The n x n distance-matrix heuristic that the candidate-list search
# replaced: nearest neighbour, best-improvement 2-opt sweeps and, up to 32
# points only, Or-opt; kept as the tour-length reference.


def dense_candidate_lists(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest other points per row by a stable argsort of the dense matrix."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    d2[np.diag_indices(len(points))] = np.inf
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx, np.sqrt(np.take_along_axis(d2, idx, axis=1))


def dense_distance_matrix(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def dense_nearest_neighbor(dist: np.ndarray, start: int) -> list[int]:
    n = dist.shape[0]
    order = [start]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    cur = start
    for _ in range(n - 1):
        row = dist[cur].copy()
        row[visited] = np.inf
        cur = int(np.argmin(row))
        visited[cur] = True
        order.append(cur)
    return order


def _dense_two_opt(order: list[int], dist: np.ndarray, max_passes: int = 50) -> list[int]:
    n = len(order)
    if n < 4:
        return order
    tour = np.array(order, dtype=int)
    for _ in range(max_passes):
        improved = False
        for i in range(n - 2):
            a, b = tour[i], tour[i + 1]
            j_hi = n - 1 if i > 0 else n - 2
            js = np.arange(i + 2, j_hi + 1)
            if js.size == 0:
                continue
            c = tour[js]
            d = tour[(js + 1) % n]
            delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
            k = int(np.argmin(delta))
            if delta[k] < -1e-12:
                j = int(js[k])
                tour[i + 1 : j + 1] = tour[i + 1 : j + 1][::-1]
                improved = True
        if not improved:
            break
    return [int(v) for v in tour]


def _dense_or_opt(order: list[int], dist: np.ndarray, max_passes: int = 50) -> list[int]:
    n = len(order)
    if n < 5:
        return order
    tour = list(order)
    for _ in range(max_passes):
        improved = False
        for seg_len in (1, 2, 3):
            if n - seg_len < 3:
                continue
            i = 0
            while i < n:
                seg = [tour[(i + k) % n] for k in range(seg_len)]
                prev = tour[(i - 1) % n]
                nxt = tour[(i + seg_len) % n]
                if prev in seg or nxt in seg:
                    i += 1
                    continue
                remove_gain = dist[prev, seg[0]] + dist[seg[-1], nxt] - dist[prev, nxt]
                rest = [v for v in tour if v not in seg]
                ra = np.array(rest, dtype=int)
                rb = np.roll(ra, -1)
                ins_fwd = dist[ra, seg[0]] + dist[seg[-1], rb] - dist[ra, rb]
                ins_rev = dist[ra, seg[-1]] + dist[seg[0], rb] - dist[ra, rb]
                k_f = int(np.argmin(ins_fwd))
                k_r = int(np.argmin(ins_rev))
                best_ins, k, rev = (
                    (float(ins_fwd[k_f]), k_f, False)
                    if ins_fwd[k_f] <= ins_rev[k_r]
                    else (float(ins_rev[k_r]), k_r, True)
                )
                if best_ins - remove_gain < -1e-12:
                    placed = list(reversed(seg)) if rev else seg
                    tour = rest[: k + 1] + placed + rest[k + 1 :]
                    improved = True
                i += 1
        if not improved:
            break
    return tour


def dense_heuristic_order(points: np.ndarray) -> list[int]:
    """Closed-tour order from the dense-matrix nearest-neighbour + 2-opt heuristic."""
    n = len(points)
    if n <= 2:
        return list(range(n))
    dist = dense_distance_matrix(points)
    if n <= 12:
        starts = list(range(n))
    elif n <= 32:
        starts = sorted({0, n // 4, n // 2, (3 * n) // 4})
    else:
        starts = [0]
    best_order = None
    best_len = np.inf
    for s in starts:
        order = _dense_two_opt(dense_nearest_neighbor(dist, s), dist)
        if n <= 32:
            order = _dense_two_opt(_dense_or_opt(order, dist), dist)
        idx = np.array(order)
        length = float(dist[idx, np.roll(idx, -1)].sum())
        if length < best_len - 1e-12:
            best_len = length
            best_order = order
    z = best_order.index(0)
    return best_order[z:] + best_order[:z]


# --------------------------------------------------------------------------- unpruned baseline
# The surface-representative baseline before its greedy was pruned: one
# Fibonacci pattern per region, a full argmin over every sample per pick,
# and Prim over a dense distance matrix; kept as the bitwise reference.


def per_region_surface_samples(region, n: int) -> np.ndarray:
    dirs = fibonacci_directions(n)
    if isinstance(region.shape, (Sphere, Shell)):
        return region.center.as_array() + dirs * (region.d_max / 2.0)
    return per_direction_surface_samples(region, dirs)


def dense_prim_adjacency(pts: np.ndarray, root: int) -> list[list[int]]:
    """Prim minimum spanning tree over the dense matrix; children in insertion order."""
    n = len(pts)
    dist = dense_distance_matrix(pts)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[root] = True
    best = dist[root].copy()
    parent = np.full(n, root)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        adj[int(parent[j])].append(j)
        in_tree[j] = True
        closer = dist[j] < best
        update = closer & ~in_tree
        best[update] = dist[j][update]
        parent[update] = j
    return adj


def unpruned_alpha_fat_baseline(start, scene, samples_per_region: int = 108) -> Tour:
    if samples_per_region < 4:
        raise ContractError("samples_per_region must be >= 4")
    start_arr = start.as_array()
    if len(scene) == 0:
        return Tour(waypoints=[start_arr])
    n = len(scene)
    samples = np.stack(
        [per_region_surface_samples(obj.region, samples_per_region) for obj in scene.objects]
    )  # (n, s, 3)
    flat = samples.reshape(n * samples_per_region, 3)

    d_start = np.linalg.norm(flat - start_arr, axis=1)
    first = int(np.argmin(d_start))
    first_region = first // samples_per_region
    reps: dict[int, np.ndarray] = {first_region: flat[first]}

    min_to_set = np.linalg.norm(flat - flat[first], axis=1)
    assigned = np.zeros(n, dtype=bool)
    assigned[first_region] = True
    for _ in range(n - 1):
        masked = min_to_set.copy()
        masked.reshape(n, samples_per_region)[assigned] = np.inf
        pick = int(np.argmin(masked))
        region_idx = pick // samples_per_region
        reps[region_idx] = flat[pick]
        assigned[region_idx] = True
        min_to_set = np.minimum(min_to_set, np.linalg.norm(flat - flat[pick], axis=1))

    rep_arr = np.array([reps[i] for i in range(n)])
    root = int(np.argmin(np.linalg.norm(rep_arr - start_arr, axis=1)))
    walk = _doubled_tree_walk(dense_prim_adjacency(rep_arr, root), root)

    visits = []
    seen: set[int] = set()
    for k, idx in enumerate(walk, start=1):
        if idx not in seen:
            seen.add(idx)
            visits.append(Visit(object_id=scene.objects[idx].id, waypoint_index=k))
    waypoints = np.concatenate([start_arr[None], rep_arr[walk]])
    return Tour(waypoints=waypoints, visits=tuple(visits))


# --------------------------------------------------------------------------- dense coverage passes
# Before the grid lookup: every region tested against every waypoint, in
# the patch pass, the visit pass and the coverage audit, and the closest
# point's inside test made with a one-row ``contains``. Kept verbatim as
# the bitwise reference.


def one_row_contains_closest_point_on_region(region, p: np.ndarray) -> np.ndarray:
    s = region.shape
    if isinstance(s, Sampled):
        if s.points.shape[0] == 0:
            raise InvalidRegionError("sampled region has no boundary points")
        d2 = np.sum((s.points - p) ** 2, axis=1)
        return s.points[int(np.argmin(d2))]
    if contains(region, p[None, :], tol=0.0)[0]:
        return p
    c = region.center.as_array()
    v = p - c
    r = float(np.linalg.norm(v))
    r_in, r_out = ball_interval(region)
    # Outside the solid: past the outer sphere, or in a shell's hole.
    if r > r_in:
        return c + v * (r_out / r)
    if r == 0.0:
        # Center of the hole: any inner-sphere point is closest; fix +x.
        return c + np.array([r_in, 0.0, 0.0])
    return c + v * (r_in / r)


def dense_patch_and_visit(arr: np.ndarray, scene) -> tuple[np.ndarray, tuple, list[str]]:
    """The dense patch pass and visit pass over the assembled waypoints ``arr``."""
    # Patch any object the trajectory still misses (rare: detours are
    # budget-capped, so grazing contacts can slip through discretization).
    patched: list[str] = []
    for obj in scene.objects:
        tol = touch_tolerance(scene.d_min_global)
        if contains(obj.region, arr, tol).any():
            continue
        c = obj.region.center.as_array()
        near = int(np.argmin(np.linalg.norm(arr - c, axis=1)))
        q = closest_point_on_region(obj.region, arr[near])
        arr = np.insert(arr, near + 1, [q, arr[near]], axis=0)
        patched.append(obj.id)

    visits = []
    for obj in scene.objects:
        tol = touch_tolerance(scene.d_min_global)
        hits = np.flatnonzero(contains(obj.region, arr, tol))
        if not hits.size:
            raise ContractError(f"object {obj.id!r} left untouched after patching")
        visits.append(Visit(object_id=obj.id, waypoint_index=int(hits[0])))
    return arr, tuple(visits), patched


def dense_plan_nondisjoint_detailed(start, scene, tsp=None) -> NondisjointPlan:
    """``plan_nondisjoint_detailed`` with the dense patch and visit passes."""
    if tsp is None:
        tsp = TspConfig()
    mis = maximal_independent_set(scene)
    kept_set = set(mis.kept)
    kept_objects = [o for o in scene.objects if o.id in kept_set]
    kept_scene = Scene(
        objects=tuple(kept_objects),
        d_min_global=scene.d_min_global,
        d_max_global=scene.d_max_global,
        cube_edge=scene.cube_edge,
    )
    base = center_visit(start, kept_scene, tsp)
    neighbor_count: dict[str, int] = {kid: 0 for kid in mis.kept}
    for keeper in mis.assignment.values():
        neighbor_count[keeper] += 1
    if not mis.assignment:
        # Fully disjoint: the plan is exactly the center-visit trajectory.
        return NondisjointPlan(tour=base, mis=mis, detours=(), patched_ids=())

    by_id = {o.id: o for o in scene.objects}
    blocks: list[np.ndarray] = [base.waypoints[:1]]
    detours = []
    for visit in base.visits:
        touch = base.waypoints[visit.waypoint_index]
        blocks.append(touch[None])
        if neighbor_count.get(visit.object_id, 0) == 0:
            continue
        owner = by_id[visit.object_id].region
        plan = build_detour(owner, scene.d_min_global, owner_id=visit.object_id)
        detours.append(plan)
        stitched = plan.stitched
        if np.linalg.norm(stitched[-1] - touch) < np.linalg.norm(stitched[0] - touch):
            stitched = stitched[::-1]
        blocks.append(stitched)

    arr, visits, patched = dense_patch_and_visit(np.concatenate(blocks), scene)
    tour = Tour(waypoints=arr, visits=tuple(visits))
    return NondisjointPlan(
        tour=tour, mis=mis, detours=tuple(detours), patched_ids=tuple(patched)
    )


def dense_missed_objects(tour: Tour, scene) -> list[str]:
    """Ids of scene objects no tour waypoint touches (within tolerance)."""
    arr = tour.waypoints
    return [
        obj.id
        for obj in scene.objects
        if not contains(obj.region, arr, touch_tolerance(scene.d_min_global)).any()
    ]


def full_lattice_plan_online(start, scene: Scene, oracle):
    """``plan_online`` as it stood before the poll window, for disjoint centers:
    each leg polls every ``scene.d_min_global / 10`` step from its start until
    the oracle fires."""
    pts = np.array([o.region.center.as_array() for o in scene.objects], dtype=float).reshape(-1, 3)
    step = scene.d_min_global / 10.0
    order = _rotate_to_nearest(solve_order(pts, TspConfig()), pts, start)
    pos = start.as_array()
    waypoints, visits, outcomes = [pos], [], []
    for idx in order:
        oid = scene.objects[idx].id
        c = pts[idx]
        delta = c - pos
        dist = float(np.linalg.norm(delta))
        direction = delta / dist if dist > 0 else np.zeros(3)
        k = 0
        while True:
            t = min(k * step, dist)
            p = pos + direction * t
            if oracle(oid, p):
                break
            if t >= dist:
                raise AssertionError(f"oracle for {oid!r} never fired")
            k += 1
        pos = p
        waypoints.append(p)
        visits.append(Visit(object_id=oid, waypoint_index=len(waypoints) - 1))
        outcomes.append(DetectionOutcome(
            object_id=oid, realized_diameter=float(oracle.realized_diameter(oid)), detected_at=p
        ))
    return Tour(waypoints=waypoints, visits=tuple(visits)), outcomes


# --------------------------------------------------------------------------- per-point cell walks
# The neighbour queries that ``geom.candidate_pairs`` replaced, one point at
# a time. A row's cell keys are the Python integers floor(x / cell) on each
# axis, with cell edge ``cell_edge(radius)``; a row is a candidate of a
# query when every key differs from the query's by at most 1. Python
# integers stay exact where a float key's ``+ 1`` rounds (above 2**53) and
# where an int64 cast would overflow (at +-1e20).


def cell_edge(radius: float) -> float:
    """The grid's cell edge: ``radius`` plus a relative 1e-9, so float rounding of a key
    cannot push a point within ``radius`` of a query two cells away."""
    return radius * (1.0 + 1e-9)


def cell_keys(points: np.ndarray, radius: float) -> list[tuple[int, ...]]:
    """Per row of ``points`` (k, 3), its cell keys as Python integers."""
    return [tuple(map(math.floor, row)) for row in (points / cell_edge(radius)).tolist()]


def near_rows(key: tuple[int, ...], keys: list[tuple[int, ...]]) -> list[int]:
    """Ascending indices of the ``keys`` that differ from ``key`` by at most 1 on every axis."""
    return [j for j, other in enumerate(keys) if all(abs(a - b) <= 1 for a, b in zip(key, other))]


def per_point_near_pairs(points: np.ndarray, radius: float):
    """Per point i: candidates j > i for being within ``radius``, ascending, and their distances.

    Yields (i, js, distances) for every i with at least one candidate.
    """
    keys = cell_keys(points, radius)
    for i in range(len(points)):
        near = np.array([j for j in near_rows(keys[i], keys) if j > i], dtype=int)
        if near.size:
            yield i, near, np.linalg.norm(points[near] - points[i], axis=1)


def per_point_intersecting_pairs(regions) -> list[tuple[int, int]]:
    """``intersecting_pairs(scene_of(regions))`` over ``per_point_near_pairs``."""
    if len(regions) < 2:
        return []
    d_min_global = scene_of(regions).d_min_global
    centers = np.array([r.center.as_array() for r in regions])
    reach = np.array([reach_of(r, d_min_global) for r in regions])
    pairs: list[tuple[int, int]] = []
    for i, near, dist in per_point_near_pairs(centers, 2.0 * float(reach.max())):
        for j in near[dist <= reach[i] + reach[near]].tolist():
            if regions_intersect(regions[i], regions[j], d_min_global):
                pairs.append((i, j))
    return pairs


def per_point_first_touch_indices(regions, points: np.ndarray, d_min_global: float) -> np.ndarray:
    """Per region, the index of the first row of ``points`` (W, 3) touching it, or -1.

    A row touches a region when ``contains`` accepts it within
    ``touch_tolerance(d_min_global)``. With the largest reach as
    cell edge, only the rows near a region's center in cell keys can touch
    it; those are tested in index order.
    """
    first = np.full(len(regions), -1)
    if len(regions) == 0 or len(points) == 0:
        return first
    radius = max(reach_of(r, d_min_global) for r in regions)
    keys = cell_keys(points, radius)
    for i, region in enumerate(regions):
        near = near_rows(cell_keys(region.center.as_array()[None], radius)[0], keys)
        if not near:
            continue
        hit = np.flatnonzero(contains(region, points[near], touch_tolerance(d_min_global)))
        if hit.size:
            first[i] = near[hit[0]]
    return first


# --------------------------------------------------------------------------- sphere/shell if-chains
# Sphere and shell contacts as they were decided one object or one pair at
# a time, before one elementwise rule served both the scalar API and the
# block passes: if-chains over the ball interval, distances from math.dist.


def chain_regions_intersect(a, b) -> bool:
    """Two sphere or shell solids overlap (the parent's ``regions_intersect`` chain)."""
    dist = math.dist(a.center.as_array(), b.center.as_array())
    in_a, out_a = ball_interval(a)
    in_b, out_b = ball_interval(b)
    if dist > out_a + out_b:
        return False
    # One solid entirely inside the other's hole.
    if dist + out_a < in_b or dist + out_b < in_a:
        return False
    return True


def chain_contains(region, p, tol: float) -> bool:
    """The point ``p`` lies in the sphere or shell solid within ``tol``."""
    r = math.dist(p, region.center.as_array())
    r_in, r_out = ball_interval(region)
    if r > r_out + tol:
        return False
    if r_in - tol > 0.0 and r < r_in - tol:
        return False
    return True


def chain_first_touch_indices(regions, points: np.ndarray, tol: float) -> np.ndarray:
    """Per region, the first row of ``points`` that ``chain_contains`` accepts, or -1."""
    first = np.full(len(regions), -1)
    for i, region in enumerate(regions):
        for k, p in enumerate(points):
            if chain_contains(region, p, tol):
                first[i] = k
                break
    return first


# --------------------------------------------------------------------------- row-list detour
# ``build_detour`` as it stood before its array stitching: ``np.cross``
# plane bases, one ``searchsorted`` per spike target, every stitched row
# appended to a list, and lengths through ``norm(np.diff(...))``. Kept
# verbatim, apart from the names of the helpers it calls, as the bitwise
# reference.


def norm_diff_polyline_length(points: np.ndarray, closed: bool = False) -> float:
    """Sum of the edge lengths of a (k, 3) polyline, plus the closing edge if ``closed``."""
    if len(points) < 2:
        return 0.0
    total = float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))
    if closed:
        total += float(np.linalg.norm(points[-1] - points[0]))
    return total


def np_cross_plane_basis(axis_dir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the plane perpendicular to the axis."""
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis_dir)))] = 1.0
    e1 = np.cross(ref, axis_dir)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis_dir, e1)
    return e1, e2


def np_cross_trace_perimeter(
    region, plane_point: np.ndarray, axis_dir: np.ndarray, perimeter_step: float
) -> np.ndarray | None:
    """Closed polyline where the cutting plane meets the region boundary."""
    c = region.center.as_array()
    e1, e2 = np_cross_plane_basis(axis_dir)
    h_vec = plane_point - c
    h_axial = float(h_vec @ axis_dir)
    shape = region.shape
    if isinstance(shape, (Sphere, Shell)):
        rad = region.d_max / 2.0
        rho_sq = rad * rad - h_axial * h_axial
        if rho_sq <= 0.0:
            return None
        rho = math.sqrt(rho_sq)
        n_seg = max(8, int(math.ceil(2.0 * math.pi * rho / perimeter_step)))
        thetas = np.linspace(0.0, 2.0 * math.pi, n_seg, endpoint=False)
        ring = c + h_axial * axis_dir + rho * (
            np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2
        )
        return ring
    # Sampled boundary: bisect the in-plane radius along every angle at
    # once (star-shaped assumption). A ray whose final ``lo`` is still 0
    # never entered the region.
    d_hi = region.d_max / 2.0
    n_seg = max(16, int(math.ceil(2.0 * math.pi * d_hi / perimeter_step)))
    thetas = np.linspace(0.0, 2.0 * math.pi, n_seg, endpoint=False)
    rays = np.cos(thetas)[:, None] * e1 + np.sin(thetas)[:, None] * e2
    base = c + h_axial * axis_dir
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


def per_target_arc_positions(ring: np.ndarray, count: int) -> list[int]:
    """Indices of ``count`` ring vertices evenly spaced by arc length."""
    n = len(ring)
    seg = np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    total = float(cum[-1] + seg[-1])
    targets = [k * total / count for k in range(count)]
    out = []
    for t in targets:
        out.append(int(np.searchsorted(cum, t, side="right") - 1))
    return sorted(set(out))


def row_list_build_detour(
    owner,
    d_min_global: float,
    perimeter_step: float | None = None,
    spike_spacing: float | None = None,
    owner_id: str = "",
) -> DetourPlan:
    """Perimeter-and-spike traversal guaranteeing contact with neighbors."""
    if d_min_global <= 0:
        raise ContractError("d_min_global must be positive")
    if perimeter_step is None:
        perimeter_step = d_min_global / 16.0
    if spike_spacing is None:
        spike_spacing = d_min_global
    if perimeter_step <= 0 or spike_spacing <= 0:
        raise ContractError("perimeter_step and spike_spacing must be positive")

    d = d_min_global
    budget = detour_length_limit(owner.d_max, d)
    axis = max_diameter_segment(owner)
    a, b = axis
    ab = b - a
    ab_len = float(np.linalg.norm(ab))
    if ab_len < touch_tolerance(d_min_global):
        return _point_detour(owner_id, axis, budget)
    axis_dir = ab / ab_len

    n_planes = max(1, int(math.ceil(ab_len / d)) - 1)
    if n_planes == 1:
        plane_points = [a + 0.5 * ab]  # a single plane always cuts the midpoint
    else:
        plane_points = [a + (i * d) * axis_dir for i in range(1, n_planes + 1)]

    rings: list[np.ndarray] = []
    for pp in plane_points:
        ring = np_cross_trace_perimeter(owner, pp, axis_dir, perimeter_step)
        if ring is not None:
            rings.append(ring)
    if not rings:
        mid = np_cross_trace_perimeter(owner, a + 0.5 * ab, axis_dir, perimeter_step)
        rings = [mid] if mid is not None else []
    if not rings:
        return _point_detour(owner_id, axis, budget)

    ring_lens = [norm_diff_polyline_length(r, closed=True) for r in rings]

    # Endpoint spikes along the boundary normals at a and b give the
    # stitched path polar reach; include them when the budget allows.
    na = _boundary_normal(owner, a)
    nb = _boundary_normal(owner, b)
    a_in, a_out = a - 0.5 * d * na, a + 0.5 * d * na
    b_in, b_out = b - 0.5 * d * nb, b + 0.5 * d * nb

    def connection_cost(with_poles: bool) -> float:
        cost = 0.0
        if with_poles:
            cost += 2.0 * d  # traverse each endpoint spike once
            cost += float(np.linalg.norm(a_in - rings[0][0]))
            cost += float(np.linalg.norm(rings[-1][0] - b_in))
        for i in range(len(rings) - 1):
            cost += float(np.linalg.norm(rings[i][0] - rings[i + 1][0]))
        return cost

    base_no_poles = sum(ring_lens) + connection_cost(False)
    base_with_poles = sum(ring_lens) + connection_cost(True)
    with_poles = base_with_poles <= budget
    base = base_with_poles if with_poles else base_no_poles

    spike_cost = 2.0 * d  # out to one tip, across, and back to the anchor
    affordable = max(0, int(math.floor((budget - base) / spike_cost)))
    targets = [max(1, int(math.floor(L / spike_spacing))) for L in ring_lens]
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

    stitched: list[np.ndarray] = []
    spikes: list[tuple[np.ndarray, np.ndarray]] = []
    if with_poles:
        stitched.extend([a_out, a_in])
        spikes.append((a_in, a_out))
    for j, ring in enumerate(rings):
        anchor_idx = set(per_target_arc_positions(ring, counts[j])) if counts[j] > 0 else set()
        for k in range(len(ring)):
            p = ring[k]
            stitched.append(p)
            if k in anchor_idx:
                normal = _boundary_normal(owner, p)
                in_plane = normal - (normal @ axis_dir) * axis_dir
                norm = np.linalg.norm(in_plane)
                if norm < 1e-12:
                    in_plane = p - (owner.center.as_array() + ((p - owner.center.as_array()) @ axis_dir) * axis_dir)
                    norm = np.linalg.norm(in_plane)
                    if norm < 1e-12:
                        continue
                n_hat = in_plane / norm
                c_in = p - 0.5 * d * n_hat
                c_out = p + 0.5 * d * n_hat
                stitched.extend([c_in, c_out, p])
                spikes.append((c_in, c_out))
        stitched.append(ring[0])  # close the loop
    if with_poles:
        stitched.extend([b_in, b_out])
        spikes.append((b_in, b_out))

    path = np.array(stitched)
    return DetourPlan(
        owner_id=owner_id,
        axis=axis,
        perimeters=tuple(rings),
        spikes=np.array(spikes).reshape(-1, 2, 3),
        stitched=path,
        length=norm_diff_polyline_length(path),
        limit=budget,
    )
