import math

import numpy as np

from tspn import Point3, Region, Scene, SceneObject, Sphere, TspConfig, tour_length
from tspn.planner import (
    build_detour,
    center_visit,
    detour_length_limit,
    missed_objects,
    plan_nondisjoint_detailed,
    validate_bounds,
)


def poly_min_dist(pts: np.ndarray, c: np.ndarray) -> float:
    """Min distance from a polyline (as segments) to a point."""
    a, b = pts[:-1], pts[1:]
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0] = 1.0
    t = np.clip(np.sum((c - a) * ab, axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(proj - c, axis=1)))


def sphere_region(center, d):
    return Region(center=Point3(*center), shape=Sphere(d))


# ------------------------------------------------------------------- budget


def test_detour_budget_unit_ratio():
    plan = build_detour(sphere_region((0, 0, 0), 2.0), 2.0)
    assert plan.length <= 6.0 * math.pi * (1.0 + 1e-9)
    assert plan.length > 0.0


def test_detour_budget_large_owner():
    plan = build_detour(sphere_region((5, -3, 2), 10.0), 5.0)
    assert plan.length <= 60.0 * math.pi * (1.0 + 1e-9)


def test_detour_budget_formula():
    assert math.isclose(detour_length_limit(2.0, 2.0), 6.0 * math.pi)
    assert math.isclose(detour_length_limit(10.0, 5.0), 60.0 * math.pi)


def test_detour_budget_random_sweep():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = float(rng.uniform(1.0, 8.0))
        owner_d = d * float(rng.uniform(1.0, 4.0))
        plan = build_detour(sphere_region(rng.uniform(-5, 5, 3), owner_d), d)
        assert plan.length <= detour_length_limit(owner_d, d) * (1.0 + 1e-9)


def test_spike_lengths_equal_global_d_min():
    d = 3.0
    plan = build_detour(sphere_region((0, 0, 0), 3.9), d)
    assert len(plan.spikes) > 0
    for c_in, c_out in plan.spikes:
        assert math.isclose(math.dist(c_in, c_out), d, rel_tol=1e-9)


def test_detour_degenerate_region():
    # Owner far smaller than the touch scale collapses to a point visit.
    plan = build_detour(sphere_region((1, 1, 1), 1e-9), 1.0)
    assert len(plan.stitched) == 1
    assert plan.length == 0.0


# ------------------------------------------------------------------- coverage


def test_detour_touches_eight_boundary_balls_at_assorted_latitudes():
    # Central d=2 sphere; d=2 balls whose centers sit on its boundary at
    # fixed assorted latitudes must all be intersected by the stitched path.
    owner = sphere_region((0, 0, 0), 2.0)
    plan = build_detour(owner, 2.0)
    pts = plan.stitched
    lats = np.deg2rad(np.array([-75, -50, -25, -5, 15, 40, 60, 80]))
    lons = np.deg2rad(np.array([0, 45, 90, 135, 180, 225, 270, 315]))
    for lat, lon in zip(lats, lons):
        z = np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )
        assert poly_min_dist(pts, z) <= 1.0 + 1e-9


def test_detour_random_boundary_ball_coverage():
    # Balls of diameter >= d_min whose centers lie on the owner boundary
    # (random directions) are always touched, across owner ratios.
    rng = np.random.default_rng(29)
    for trial in range(25):
        d = float(rng.uniform(2.0, 6.0))
        owner_d = d * float(rng.uniform(1.0, 1.35))
        center = rng.uniform(-10, 10, size=3)
        plan = build_detour(sphere_region(center, owner_d), d)
        pts = plan.stitched
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            ball_center = center + (owner_d / 2.0) * u
            rho = 0.5 * d * float(rng.uniform(1.0, 1.3))
            assert poly_min_dist(pts, ball_center) <= rho + 1e-9


# ------------------------------------------------------------------- splicing


def make_scene(objs, d_min, d_max, cube=100.0):
    return Scene(objects=tuple(objs), d_min_global=d_min, d_max_global=d_max, cube_edge=cube)


def sphere_obj(oid, center, d):
    return SceneObject(id=oid, region=sphere_region(center, d))


def test_nondisjoint_reduces_to_center_visit_when_disjoint():
    rng = np.random.default_rng(31)
    objs = []
    centers = []
    while len(objs) < 7:
        c = rng.uniform(0, 80, size=3)
        if all(np.linalg.norm(c - e) > 6.0 for e in centers):
            centers.append(c)
            objs.append(sphere_obj(f"o{len(objs)}", c, float(rng.uniform(4.0, 6.0))))
    scene = make_scene(objs, 4.0, 6.0)
    start = Point3(0, 0, 0)
    cfg = TspConfig()
    direct = center_visit(start, scene, cfg)
    spliced = plan_nondisjoint_detailed(start, scene, cfg).tour
    assert direct.waypoints.tolist() == spliced.waypoints.tolist()
    assert direct.visits == spliced.visits


def test_nondisjoint_two_overlapping_spheres():
    a = sphere_obj("a", (20, 0, 0), 2.0)
    b = sphere_obj("b", (21.5, 0, 0), 2.0)
    scene = make_scene([a, b], 2.0, 2.0)
    start = Point3(0, 0, 0)
    tour = plan_nondisjoint_detailed(start, scene, TspConfig()).tour
    assert missed_objects(tour, scene) == []
    # straight-line to the cluster + detour budget + slack for the splice
    limit = 19.0 + 6.0 * math.pi + 2.0 * 2.0
    assert tour_length(tour) <= limit


def test_nondisjoint_random_scene_full_coverage_and_bounds():
    rng = np.random.default_rng(101)
    for trial in range(5):
        centers = [rng.uniform(10, 90, size=3)]
        while len(centers) < 20:
            if rng.uniform() < 0.3:
                base = centers[rng.integers(len(centers))]
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                centers.append(base + u * rng.uniform(1.0, 5.4))
            else:
                centers.append(rng.uniform(10, 90, size=3))
        objs = [
            sphere_obj(f"obj-{i:03d}", c, float(rng.uniform(5.4, 8.2)))
            for i, c in enumerate(centers)
        ]
        scene = make_scene(objs, 5.4, 8.2)
        detail = plan_nondisjoint_detailed(Point3(0, 0, 0), scene, TspConfig())
        assert missed_objects(detail.tour, scene) == []
        ids = sorted(v.object_id for v in detail.tour.visits)
        assert ids == sorted(o.id for o in scene.objects)
        report = validate_bounds(scene, detail.tour, detail.detours)
        for row in report.detour_bounds:
            assert row.holds, f"detour for {row.owner_id} exceeds its budget"


def test_nondisjoint_detour_entered_at_nearest_endpoint():
    a = sphere_obj("a", (30, 0, 0), 4.0)
    b = sphere_obj("b", (32, 0, 0), 4.0)
    scene = make_scene([a, b], 4.0, 4.0)
    detail = plan_nondisjoint_detailed(Point3(0, 0, 0), scene, TspConfig())
    assert len(detail.detours) == 1
    tour_pts = detail.tour.waypoints
    stitched = detail.detours[0].stitched
    # the spliced block appears contiguously in the final trajectory
    joined = tour_pts.tolist()
    fwd = stitched.tolist()
    rev = stitched[::-1].tolist()

    def contains_block(seq, block):
        m = len(block)
        return any(seq[i : i + m] == block for i in range(len(seq) - m + 1))

    assert contains_block(joined, fwd) or contains_block(joined, rev)
