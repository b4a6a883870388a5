import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tspn import (
    ContractError,
    InvalidRegionError,
    Point3,
    Region,
    Sampled,
    Shell,
    Sphere,
    Tour,
    closest_point_on_region,
    max_diameter_segment,
    regions_intersect,
    tour_length,
)
from tspn import geom
from tspn.geom import (
    distances, farthest_pair_distance, intersecting_pairs, polyline_length, region_contains, sq_distances,
    touch_tolerance,
)
from tspn.planner import _ring_edges, validate_bounds
from tspn.viewscore import ViewSample, build_region_from_scores

from oracles import (
    brute_closest_sample, brute_farthest_pair, fibonacci_directions, loop_regions_intersect,
    norm_diff_polyline_length, scene_of, voxel_overlap,
)


def sphere(cx, cy, cz, d):
    return Region(center=Point3(cx, cy, cz), shape=Sphere(diameter=d))


def shell_region(cx, cy, cz, d_in, d_out):
    return Region(center=Point3(cx, cy, cz), shape=Shell(d_in, d_out))


def sampled_from_radii(center, dirs, radii):
    pts = center + radii[:, None] * dirs
    # d_max is an upper bound: it must dominate both the farthest pair and
    # twice the largest center-to-boundary distance.
    d_max = max(farthest_pair_distance(pts), 2.0 * float(radii.max()))
    d_min = 2.0 * float(radii.min())
    return Region(
        center=Point3.from_array(center),
        shape=Sampled(points=pts, normals=dirs.copy(), d_min=min(d_min, d_max), d_max=d_max),
    )


def random_star_region(rng, center, r_lo=1.0, r_hi=2.0, n=500):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = rng.uniform(r_lo, r_hi, size=n)
    return sampled_from_radii(np.asarray(center, dtype=float), dirs, radii)


# ---------------------------------------------------------------- closest point


def test_closest_point_sphere_outside():
    q = closest_point_on_region(sphere(0, 0, 0, 2), np.array([3.0, 0, 0]))
    assert q.tolist() == [1.0, 0.0, 0.0]


def test_closest_point_sphere_inside_is_identity():
    p = np.array([0.5, 0, 0])
    assert np.array_equal(closest_point_on_region(sphere(0, 0, 0, 2), p), p)


def test_closest_point_shell_cases():
    r = shell_region(0, 0, 0, 2, 4)
    # outside -> outer sphere
    q = closest_point_on_region(r, np.array([5.0, 0, 0]))
    assert q.tolist() == [2.0, 0.0, 0.0]
    # in the annulus -> itself
    p = np.array([1.5, 0, 0])
    assert np.array_equal(closest_point_on_region(r, p), p)
    # in the hole -> inner sphere
    q = closest_point_on_region(r, np.array([0.25, 0, 0]))
    assert math.isclose(q[0], 1.0) and q[1] == 0.0


def test_closest_point_sampled_matches_brute_scan():
    rng = np.random.default_rng(7)
    region = random_star_region(rng, (1.0, -2.0, 0.5))
    for _ in range(20):
        p = rng.uniform(-5, 5, size=3)
        got = closest_point_on_region(region, p)
        want = brute_closest_sample(region.shape.points, tuple(p))
        assert np.allclose(got, want)


def test_closest_point_output_contained():
    rng = np.random.default_rng(3)
    regions = [
        sphere(0, 0, 0, 2),
        shell_region(1, 2, 3, 1, 3),
        random_star_region(rng, (0.0, 0.0, 0.0)),
    ]
    for region in regions:
        for _ in range(25):
            p = rng.uniform(-4, 4, size=3)
            q = closest_point_on_region(region, p)
            assert region_contains(region, Point3(*q), tol=touch_tolerance(region.d_min))


def test_sampled_region_needs_points():
    dirs = np.eye(3)
    with pytest.raises(InvalidRegionError):
        Region(center=Point3(0, 0, 0), shape=Sampled(dirs, dirs, 1.0, 2.0))


def test_sampled_point_at_center_is_refused():
    # The star model takes each boundary point's direction from the center: 0/0 there.
    dirs = fibonacci_directions(12)
    pts = np.array([1.0, 2.0, 3.0]) + 2.0 * dirs
    pts[4] = [1.0, 2.0, 3.0]
    with pytest.raises(InvalidRegionError, match="boundary point 4 lies at the region center"):
        Region(center=Point3(1, 2, 3), shape=Sampled(pts, dirs, 3.0, 4.0))


def test_sampled_stores_read_only_copies():
    pts, dirs = np.eye(3), np.eye(3)
    shape = Sampled(pts, dirs, 1.0, 2.0)
    assert pts.flags.writeable and dirs.flags.writeable
    assert not shape.points.flags.writeable and not shape.normals.flags.writeable
    pts[0, 0] = 9.0
    assert shape.points[0, 0] == 1.0


def test_sampled_region_keeps_its_radial_table():
    rng = np.random.default_rng(12)
    c = np.array([3.0, -1.0, 7.5])
    region = random_star_region(rng, c, n=40)
    radii, units = region.radial
    assert np.array_equal(radii, np.linalg.norm(region.shape.points - c, axis=1))
    assert np.allclose(units * radii[:, None], region.shape.points - c, rtol=0, atol=1e-12)
    assert not radii.flags.writeable and not units.flags.writeable
    assert sphere(0, 0, 0, 2).radial is None and shell_region(0, 0, 0, 1, 2).radial is None


class PairScan(Exception):
    pass


def test_only_the_detour_axis_scans_boundary_pairs(monkeypatch):
    """Validation and score folding bound every pair through the center; only the axis needs one."""
    dirs = fibonacci_directions(64)
    c = np.array([10.0, 10.0, 10.0])
    radii = np.random.default_rng(4).uniform(2.0, 3.5, size=len(dirs))

    def scan(points):
        raise PairScan(len(points))

    monkeypatch.setattr(geom, "_farthest_pair", scan)
    pts = c + dirs * radii[:, None]
    region = Region(Point3(*c), Sampled(pts, dirs, 2 * float(radii.min()), 2 * float(radii.max())))
    samples = [
        ViewSample(math.atan2(u[1], u[0]), math.asin(u[2]), r, 1.0) for u, r in zip(dirs.tolist(), radii)
    ]
    built = build_region_from_scores(Point3(*c), samples, threshold=0.5)
    assert built.d_max == 2 * float(radii.max())
    with pytest.raises(PairScan):
        max_diameter_segment(region)


# ---------------------------------------------------------------- intersection


def test_spheres_overlap_and_miss():
    assert regions_intersect(sphere(0, 0, 0, 2), sphere(1.5, 0, 0, 2), 2.0)
    assert not regions_intersect(sphere(0, 0, 0, 2), sphere(3, 0, 0, 2), 2.0)


def test_sphere_tangent_counts_as_intersecting():
    assert regions_intersect(sphere(0, 0, 0, 2), sphere(2.0, 0, 0, 2), 2.0)


def test_sphere_inside_shell_hole_does_not_intersect():
    hole = shell_region(0, 0, 0, 6, 8)
    assert not regions_intersect(hole, sphere(0, 0, 0, 2), 2.0)
    assert regions_intersect(hole, sphere(3.0, 0, 0, 2), 2.0)


def test_exact_region_inside_a_sampled_region_meets_it():
    """No boundary sample lies in the sphere, but the sphere lies in the sampled region. A shell
    whose hole holds the sampled region stays disjoint from it, though its center lies in it.
    Outside, a sphere whose near side is on the samples' radius (3.5 m) meets the region, and
    one whose near side is 0.3 m past it does not."""
    dirs = fibonacci_directions(32)
    c = np.array([10.0, 10.0, 10.0])
    blob = Region(Point3(*c), Sampled(c + 3.5 * dirs, dirs, 7.0, 7.0))
    for other, meet in ((sphere(10.5, 10, 10, 2), True), (shell_region(10.5, 10, 10, 10, 12), False),
                        (sphere(14.5, 10, 10, 2), True), (sphere(14.8, 10, 10, 2), False)):
        assert regions_intersect(blob, other, 2.0) == regions_intersect(other, blob, 2.0) == meet
        assert loop_regions_intersect(blob, other, 2.0) == loop_regions_intersect(other, blob, 2.0) == meet
        scene = scene_of([blob, other])
        assert intersecting_pairs(scene) == ([(0, 1)] if meet else [])
        assert validate_bounds(scene, Tour(waypoints=[c])).count_bound_applicable is not meet


def test_intersect_symmetry():
    rng = np.random.default_rng(11)
    pool = [
        sphere(0, 0, 0, 2),
        sphere(1.2, 0.4, 0, 1.5),
        shell_region(0.5, 0, 0, 1, 2.5),
        random_star_region(rng, (0.8, 0.0, 0.0)),
        random_star_region(rng, (4.0, 4.0, 4.0)),
    ]
    d_min_global = min(r.d_min for r in pool)
    for a in pool:
        for b in pool:
            assert regions_intersect(a, b, d_min_global) == regions_intersect(b, a, d_min_global)


def _ellipsoid_samples(center, axes, n=400, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = center + dirs * axes
    normals = pts - center
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    radii = np.linalg.norm(pts - center, axis=1)
    d_max = max(farthest_pair_distance(pts), 2 * float(radii.max()))
    return Region(
        center=Point3.from_array(np.asarray(center, dtype=float)),
        shape=Sampled(pts, normals, d_min=2 * float(radii.min()), d_max=d_max),
    )


def test_sampled_overlap_matches_voxel_oracle():
    # Two ellipsoid-like sampled regions, one a translated copy overlapping
    # halfway along x; oracle voxelizes the true ellipsoid solids.
    axes = np.array([2.0, 1.0, 1.0])
    a = _ellipsoid_samples(np.zeros(3), axes, seed=1)
    b = _ellipsoid_samples(np.array([2.0, 0.0, 0.0]), axes, seed=2)
    far = _ellipsoid_samples(np.array([10.0, 0.0, 0.0]), axes, seed=3)

    def inside(center):
        def f(p):
            q = (np.asarray(p) - center) / axes
            return float(q @ q) <= 1.0

        return f

    res = 0.05 * a.d_min
    assert voxel_overlap(inside(np.zeros(3)), inside(np.array([2.0, 0, 0])),
                         (-2.5, -1.5, -1.5), (4.5, 1.5, 1.5), res)
    assert regions_intersect(a, b, a.d_min)
    assert not voxel_overlap(inside(np.zeros(3)), inside(np.array([10.0, 0, 0])),
                             (-2.5, -1.5, -1.5), (12.5, 1.5, 1.5), 0.25)
    assert not regions_intersect(a, far, a.d_min)


# ---------------------------------------------------------------- farthest pair


def test_max_diameter_sphere_antipodal_convention():
    a, b = max_diameter_segment(sphere(0, 0, 0, 2))
    assert a.tolist() == [-1.0, 0.0, 0.0]
    assert b.tolist() == [1.0, 0.0, 0.0]


def test_max_diameter_axis_samples():
    pts = np.array(
        [[-2, 0, 0], [2, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1],
         [0.5, 0.5, 0], [-0.5, -0.5, 0]],
        dtype=float,
    )
    normals = pts / np.linalg.norm(pts, axis=1)[:, None]
    region = Region(center=Point3(0, 0, 0), shape=Sampled(pts, normals, d_min=1.0, d_max=4.0))
    a, b = max_diameter_segment(region)
    assert a.tolist() == [-2.0, 0.0, 0.0] and b.tolist() == [2.0, 0.0, 0.0]
    assert math.isclose(math.dist(a, b), 4.0)


def test_max_diameter_matches_pairwise_scan():
    rng = np.random.default_rng(19)
    region = random_star_region(rng, (0.5, 0.5, 0.5), n=200)
    a, b = max_diameter_segment(region)
    i, j, d = brute_farthest_pair(region.shape.points)
    assert math.isclose(math.dist(a, b), d, rel_tol=1e-12)


def test_max_diameter_within_bounds():
    rng = np.random.default_rng(23)
    for k in range(10):
        region = random_star_region(rng, rng.uniform(-3, 3, size=3), n=150)
        a, b = max_diameter_segment(region)
        seg = math.dist(a, b)
        assert region.d_min <= seg <= region.d_max * (1 + 1e-9)


@pytest.mark.parametrize("duplicates", [False, True])
def test_sq_distances_bitwise_equal_to_summed_diff(duplicates):
    rng = np.random.default_rng(31)
    for n in (1, 2, 17, 300):
        pts = rng.uniform(-500.0, 500.0, size=(n, 3))
        if duplicates:
            pts[n // 2 :] = pts[: n - n // 2]
        diff = pts[:, None, :] - pts[None, :, :]
        assert np.array_equal(sq_distances(pts[:, None], pts), np.sum(diff * diff, axis=2))
        block = pts[: (n + 1) // 2]
        diff = block[:, None, :] - pts[None, :, :]
        assert np.array_equal(sq_distances(block[:, None], pts), np.sum(diff * diff, axis=2))


def kernel_rows(rng, shape):
    """Rows of ``shape`` (..., 3) drawn from a pool at mixed scales that holds duplicate
    rows, signed zeros, and coordinates near 2**52 and +-1e20."""
    count = int(np.prod(shape[:-1]))
    m = max(count, 16)
    pool = rng.normal(size=(m, 3)) * rng.choice([1e-3, 1.0, 1e5], size=(m, 1))
    pool[1::5] = np.where(rng.random(pool[1::5].shape) < 0.5, -0.0, 0.0)
    pool[2::9] = 2.0**52 + rng.integers(-4, 5, size=pool[2::9].shape)
    pool[3::11] = rng.choice([-1e20, 1e20], size=pool[3::11].shape) * rng.uniform(1, 2, pool[3::11].shape)
    pool[m // 2 :: 7] = pool[: len(pool[m // 2 :: 7])]
    return pool[rng.permutation(m)[:count]].reshape(shape)


# Every broadcast shape src/ passes to the kernel: blocks against points, one
# point against rows, row pairs, centers against their samples, two points.
KERNEL_SHAPES = [((64, 1, 3), (300, 3)), ((3,), (500, 3)), ((400, 3), (400, 3)),
                 ((40, 1, 3), (40, 16, 3)), ((3,), (3,))]
KERNEL_IDS = ["blocks", "point-rows", "row-pairs", "center-samples", "two-points"]


@pytest.mark.parametrize("a_shape,b_shape", KERNEL_SHAPES, ids=KERNEL_IDS)
def test_sq_distances_is_the_summed_diff_on_every_broadcast_shape(a_shape, b_shape):
    rng = np.random.default_rng(47)
    # Two (3,) points make one value per call; many calls make a last-bit difference likely.
    for _ in range(2000 if a_shape == b_shape == (3,) else 20):
        a, b = kernel_rows(rng, a_shape), kernel_rows(rng, b_shape)
        diff = a - b
        want = np.sum(diff * diff, axis=-1)
        got = sq_distances(a, b)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(sq_distances(b, a), want)


@pytest.mark.parametrize("a_shape,b_shape", KERNEL_SHAPES, ids=KERNEL_IDS)
def test_distances_is_bitwise_the_row_norm(a_shape, b_shape):
    rng = np.random.default_rng(53)
    for _ in range(2000 if a_shape == b_shape == (3,) else 20):
        a, b = kernel_rows(rng, a_shape), kernel_rows(rng, b_shape)
        want = np.linalg.norm(b - a, axis=-1)
        got = distances(a, b)
        assert np.shape(got) == want.shape
        assert np.asarray(got).tobytes() == want.tobytes()


def _vector_families() -> np.ndarray:
    """(21 009, 3) vectors: mixed scales, subnormal and huge components, and hand-picked ones."""
    rng = np.random.default_rng(61)
    # Each vector at its own scale, and each component at its own scale too.
    mixed = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-300.0, 145.0, size=(20000, 1))
    mixed[::2] *= 10.0 ** rng.uniform(-8.0, 8.0, size=(10000, 3))
    tiny = 5e-324 * rng.integers(-2**20, 2**20, size=(500, 3))  # subnormal components
    huge = 1e153 * rng.uniform(-4.4, 4.4, size=(500, 3))  # squares near the float range's top
    special = [
        [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [-0.0, 3.0, -4.0],
        [5e-324, -5e-324, 0.0], [2.2250738585072014e-308, -1e-310, 1e-320],
        [1e153, -1e153, 1e153], [4.4e153, 4.4e153, -4.4e153], [1e153, 1e-300, -5e-324],
    ]
    return np.concatenate([mixed, tiny, huge, special])


def test_norm_is_bitwise_numpys_norm_of_one_vector():
    """Every single-vector length goes through ``geom._norm``, so it must keep numpy's bits."""
    for v in _vector_families():
        assert geom._norm(v).hex() == float(np.linalg.norm(v)).hex(), v.tolist()


def test_stacked_dots_are_bitwise_one_vector_dots():
    """Batched one-vector lengths and dots go through ``geom._dots``: each row keeps the bits of
    ``_norm`` and of ``a.dot(b)``, which the elementwise kernel does not."""
    v = _vector_families()
    w = v[::-1] * 10.0 ** np.random.default_rng(62).uniform(-5.0, 5.0, size=(len(v), 1))
    norms = np.sqrt(geom._dots(v, v))
    for k, x in enumerate(v):
        assert norms[k].hex() == geom._norm(x).hex(), x.tolist()
    dots = geom._dots(v, w)
    for k, (x, y) in enumerate(zip(v, w)):
        assert dots[k].hex() == x.dot(y).hex(), (x.tolist(), y.tolist())
    assert np.count_nonzero(np.sqrt(np.sum(v * v, axis=1)) != norms) > 1000


# ---------------------------------------------------------------- tour length


def test_tour_length_open_path():
    t = Tour(waypoints=[(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert math.isclose(tour_length(t), 2.0)


def test_polyline_length_closed_square():
    square = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float)
    assert math.isclose(polyline_length(square, closed=True), 4.0)


@given(
    k=st.sampled_from((0, 1, 2, 3, 17)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-6, 1.0, 1e4, 2.0**40)),
)
def test_polyline_length_is_bitwise_the_norm_diff_sum(k, seed, scale):
    points = np.random.default_rng(seed).normal(size=(k, 3)) * scale
    for closed in (False, True):
        got = polyline_length(points, closed=closed)
        assert got == norm_diff_polyline_length(points, closed=closed)
        assert type(got) is float


def test_ring_edges_give_the_closed_polyline_length_bitwise():
    # A 1-D norm and a row norm differ in the last bit on about one row in
    # ten, so 2 000 rings all but surely include closing edges where they do.
    # The rings are taken in one call, as the detour core holds them: each
    # ring's rows follow the last's.
    rng = np.random.default_rng(14)
    rings = [rng.normal(size=(int(rng.integers(2, 70)), 3)) * rng.choice([1e-3, 1.0, 1e5]) for _ in range(2000)]
    count = np.array([len(ring) for ring in rings])
    start = np.cumsum(count) - count
    edges, lengths = _ring_edges(np.concatenate(rings), start, count)
    for ring, s, length in zip(rings, start, lengths):
        assert length == polyline_length(ring, closed=True)
        assert edges[s : s + len(ring)].tobytes() == np.linalg.norm(np.roll(ring, -1, 0) - ring, axis=1).tobytes()


def test_tour_length_degenerate():
    assert tour_length(Tour(waypoints=[(1, 2, 3)])) == 0.0
    assert polyline_length(np.array([(1.0, 2.0, 3.0)]), closed=True) == 0.0
    assert tour_length(Tour(waypoints=np.empty((0, 3)))) == 0.0


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def test_tour_length_rigid_invariance():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(12, 3))
    base = Tour(waypoints=pts)
    for _ in range(5):
        rot = _random_rotation(rng)
        shift = rng.uniform(-10, 10, size=3)
        moved = pts @ rot.T + shift
        t = Tour(waypoints=moved)
        assert math.isclose(tour_length(t), tour_length(base), rel_tol=1e-9)


def test_tour_length_reversal_invariance():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2, 2, size=(9, 3))
    fwd = Tour(waypoints=pts)
    rev = Tour(waypoints=pts[::-1])
    assert math.isclose(tour_length(fwd), tour_length(rev), rel_tol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tour_rejects_non_finite_coordinate(bad):
    with pytest.raises(ContractError, match="non-finite"):
        Tour(waypoints=[(0.0, 0.0, 0.0), (1.0, bad, 2.0)])


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 2), (4, 4), (2, 3, 1)])
def test_tour_rejects_shape_other_than_k_by_3(shape):
    with pytest.raises(ContractError, match=r"shape \(k, 3\)"):
        Tour(waypoints=np.zeros(shape))


def test_tour_waypoints_are_a_read_only_copy():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    t = Tour(waypoints=pts)
    assert t.waypoints.shape == (2, 3) and t.waypoints.dtype == np.float64
    with pytest.raises(ValueError):
        t.waypoints[1, 0] = 9.0
    pts[1, 0] = 9.0  # the caller's array stays writable and is not shared
    assert t.length == 5.0
