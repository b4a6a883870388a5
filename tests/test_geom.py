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
    region_contains,
    regions_intersect,
    tour_length,
)
from tspn.geom import farthest_pair_distance, pairwise_sq_distances, polyline_length, touch_tolerance
from tspn.planner import _ring_edges

from oracles import (
    brute_closest_sample, brute_farthest_pair, fibonacci_directions, norm_diff_polyline_length,
    voxel_overlap,
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
            assert region_contains(region, Point3(*q), tol=touch_tolerance(region))


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


# ---------------------------------------------------------------- intersection


def test_spheres_overlap_and_miss():
    assert regions_intersect(sphere(0, 0, 0, 2), sphere(1.5, 0, 0, 2))
    assert not regions_intersect(sphere(0, 0, 0, 2), sphere(3, 0, 0, 2))


def test_sphere_tangent_counts_as_intersecting():
    assert regions_intersect(sphere(0, 0, 0, 2), sphere(2.0, 0, 0, 2))


def test_sphere_inside_shell_hole_does_not_intersect():
    hole = shell_region(0, 0, 0, 6, 8)
    assert not regions_intersect(hole, sphere(0, 0, 0, 2))
    assert regions_intersect(hole, sphere(3.0, 0, 0, 2))


def test_intersect_symmetry():
    rng = np.random.default_rng(11)
    pool = [
        sphere(0, 0, 0, 2),
        sphere(1.2, 0.4, 0, 1.5),
        shell_region(0.5, 0, 0, 1, 2.5),
        random_star_region(rng, (0.8, 0.0, 0.0)),
        random_star_region(rng, (4.0, 4.0, 4.0)),
    ]
    for a in pool:
        for b in pool:
            assert regions_intersect(a, b) == regions_intersect(b, a)


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
    assert regions_intersect(a, b)
    assert not voxel_overlap(inside(np.zeros(3)), inside(np.array([10.0, 0, 0])),
                             (-2.5, -1.5, -1.5), (12.5, 1.5, 1.5), 0.25)
    assert not regions_intersect(a, far)


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
def test_pairwise_sq_distances_bitwise_equal_to_summed_diff(duplicates):
    rng = np.random.default_rng(31)
    for n in (1, 2, 17, 300):
        pts = rng.uniform(-500.0, 500.0, size=(n, 3))
        if duplicates:
            pts[n // 2 :] = pts[: n - n // 2]
        diff = pts[:, None, :] - pts[None, :, :]
        assert np.array_equal(pairwise_sq_distances(pts, pts), np.sum(diff * diff, axis=2))
        block = pts[: (n + 1) // 2]
        diff = block[:, None, :] - pts[None, :, :]
        assert np.array_equal(pairwise_sq_distances(block, pts), np.sum(diff * diff, axis=2))


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
    rng = np.random.default_rng(14)
    for _ in range(2000):
        ring = rng.normal(size=(int(rng.integers(2, 70)), 3)) * rng.choice([1e-3, 1.0, 1e5])
        edges, length = _ring_edges(ring)
        assert length == polyline_length(ring, closed=True)
        assert edges.tobytes() == np.linalg.norm(np.roll(ring, -1, 0) - ring, axis=1).tobytes()


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
