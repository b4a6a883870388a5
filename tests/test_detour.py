import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, TspConfig, tour_length
from tspn.geom import max_diameter_segment
from tspn.planner import (
    _boundary_normal,
    _plane_basis,
    build_detour,
    center_visit,
    detour_length_limit,
    fibonacci_sphere,
    missed_objects,
    plan_nondisjoint_detailed,
    validate_bounds,
)

from oracles import np_cross_plane_basis, row_list_build_detour


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


def test_detour_without_owner_id_is_held_to_the_budget_it_was_built_within():
    # The bound is the plan's own budget, so an unnamed owner is not held
    # to a budget of zero.
    a = sphere_obj("a", (30, 0, 0), 8.0)
    scene = make_scene([a, sphere_obj("b", (36, 0, 0), 6.0)], 6.0, 8.0)
    tour = center_visit(Point3(0, 0, 0), scene)
    rows = []
    for owner_id in ("", "a"):
        plan = build_detour(a.region, 6.0, owner_id=owner_id)
        assert plan.limit == detour_length_limit(8.0, 6.0)
        (row,) = validate_bounds(scene, tour, (plan,)).detour_bounds
        assert row.owner_id == owner_id
        assert (row.limit, row.actual) == (plan.limit, plan.length) and row.holds
        rows.append((row.limit, row.actual))
    assert rows[0] == rows[1]


# ------------------------------------------------------------------- bitwise oracle


def detour_owner(rng, kind: str, long_axis) -> Region:
    """A sphere, shell or sampled region about a random center.

    A sampled region is an irregular star-shaped cloud stretched up to 3x
    along one direction. With ``long_axis`` 0, 1 or 2 its farthest pair is
    the two samples on that coordinate axis through the center, so the
    detour axis is a coordinate axis, with two zero components.
    """
    c = rng.uniform(-50.0, 50.0, size=3)
    r = float(rng.uniform(1.0, 6.0))
    if kind == "sphere":
        return Region(center=Point3(*c), shape=Sphere(2.0 * r))
    if kind == "shell":
        return Region(center=Point3(*c), shape=Shell(2.0 * r * float(rng.uniform(0.3, 1.0)), 2.0 * r))
    u = rng.normal(size=(int(rng.integers(8, 40)), 3))
    offsets = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.5, 1.0, size=(len(u), 1)) * r
    stretch = np.ones(3)
    stretch[rng.integers(3) if long_axis is None else long_axis] = rng.uniform(1.0, 3.0)
    offsets *= stretch
    if long_axis is not None:
        tip = np.zeros(3)
        tip[long_axis] = 1.05 * float(np.linalg.norm(offsets, axis=1).max())
        offsets = np.vstack([offsets, tip, -tip])
    radii = np.linalg.norm(offsets, axis=1)
    return Region(
        center=Point3(*c),
        shape=Sampled(points=c + offsets, normals=offsets / radii[:, None],
                      d_min=2.0 * float(radii.min()), d_max=2.0 * float(radii.max())),
    )


def assert_same_detour(got, want):
    assert got.owner_id == want.owner_id
    assert (got.length, got.limit) == (want.length, want.limit)
    assert len(got.perimeters) == len(want.perimeters)
    for g, w in zip((got.axis, got.spikes, got.stitched, *got.perimeters),
                    (want.axis, want.spikes, want.stitched, *want.perimeters)):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def same_detour(owner, d, owner_id=""):
    """Run both detours on ``owner`` at spacing ``d``, check they agree, and return one."""
    want = row_list_build_detour(owner, d, owner_id=owner_id)
    assert_same_detour(build_detour(owner, d, owner_id=owner_id), want)
    return want


def detour_case(seed, kind, long_axis, ratio):
    """Build one owner and run both detours on it; ``ratio`` is owner d_max over d_min_global."""
    owner = detour_owner(np.random.default_rng(seed), kind, long_axis)
    return owner, same_detour(owner, owner.d_max / ratio, owner_id=f"{kind}-{seed}")


def horned_ball() -> Region:
    """A unit ball of samples with two horns 20 m out at +-50 degrees in the xy-plane.

    The farthest pair is the two horn tips, so most cutting planes along it
    miss the ball and meet too few samples to trace a ring.
    """
    a = math.radians(50.0)
    horns = 20.0 * np.array([[math.cos(a), math.sin(a), 0.0], [math.cos(a), -math.sin(a), 0.0]])
    points = np.vstack([fibonacci_sphere(64), horns])
    normals = points / np.linalg.norm(points, axis=1)[:, None]
    return Region(center=Point3(0.0, 0.0, 0.0),
                  shape=Sampled(points=points, normals=normals, d_min=2.0, d_max=40.0))


def axial_normal_ellipsoid() -> Region:
    """A 3:1:1 ellipsoid of samples whose every normal is its farthest-pair direction.

    No normal has a part in a cutting plane, so every spike points away from the axis.
    """
    points = fibonacci_sphere(64) * (3.0, 1.0, 1.0)
    i, j = max_diameter_segment(Region(center=Point3(0.0, 0.0, 0.0),
                                       shape=Sampled(points=points, normals=points, d_min=2.0, d_max=6.0)))
    u = (j - i) / np.linalg.norm(j - i)
    return Region(center=Point3(0.0, 0.0, 0.0),
                  shape=Sampled(points=points, normals=np.tile(u, (len(points), 1)), d_min=2.0, d_max=6.0))


def detour_branches(owner, d, plan) -> set:
    """What ``plan``, built for ``owner`` at spacing ``d``, shows of the branches it took."""
    if not plan.perimeters:
        return {"point"}
    poles = not np.array_equal(plan.stitched[0], plan.perimeters[0][0])
    anchors = plan.spikes[int(poles) : len(plan.spikes) - poles].mean(axis=1)
    axis_dir = plan.axis[1] - plan.axis[0]
    axis_len = float(np.linalg.norm(axis_dir))
    u = axis_dir / axis_len
    normals = [_boundary_normal(owner, p) for p in anchors]
    return {
        ("poles", poles),
        ("anchors", len(anchors) > 0),
        ("rings", min(len(plan.perimeters), 2)),
        ("zeros", int(np.count_nonzero(axis_dir == 0.0))),
        # A plane that cuts a sampled region's axis but meets fewer than three of its
        # samples leaves no ring.
        ("sampled ring dropped", isinstance(owner.shape, Sampled)
         and len(plan.perimeters) < max(1, math.ceil(axis_len / d) - 1)),
        # A normal along the axis has no in-plane part, so the spike runs away from the axis.
        ("axial normal", any(np.linalg.norm(n - (n @ u) * u) < 1e-12 for n in normals)),
    }


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("sphere", "shell", "sampled")),
    long_axis=st.sampled_from((None, 0, 1, 2)),
    ratio=st.floats(0.3, 6.0),
)
@example(seed=1, kind="sampled", long_axis=1, ratio=5.0)
@example(seed=2, kind="sampled", long_axis=2, ratio=0.4)
@example(seed=3, kind="sphere", long_axis=None, ratio=4.0)
def test_detour_is_bitwise_the_row_list_oracle(seed, kind, long_axis, ratio):
    detour_case(seed, kind, long_axis, ratio)


def test_detour_oracle_sweep_reaches_every_branch():
    # Multi-plane owners, rings without anchors, poles both in and out of
    # the budget, and axes along every coordinate axis.
    # A sampled plane left without a ring comes only from the first hand-built owner;
    # the second takes the in-plane radius for every spike.
    seen = set()
    for seed in range(6):
        for kind in ("sphere", "shell", "sampled"):
            for long_axis in (None, 0, 1, 2) if kind == "sampled" else (None,):
                for ratio in (0.3, 0.6, 1.0, 1.5, 3.0, 6.0):
                    owner, plan = detour_case(seed, kind, long_axis, ratio)
                    seen |= detour_branches(owner, owner.d_max / ratio, plan)
    for owner, d in ((horned_ball(), 2.0), (axial_normal_ellipsoid(), 1.0)):
        seen |= detour_branches(owner, d, same_detour(owner, d))
    assert {("poles", True), ("poles", False), ("anchors", True), ("anchors", False),
            ("rings", 1), ("rings", 2), ("zeros", 0), ("zeros", 2),
            ("sampled ring dropped", True), ("axial normal", True)} <= seen


@given(v=st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3e-9)) | st.floats(-10, 10),
                  min_size=3, max_size=3))
@example(v=[1.0, 0.0, 0.0])
@example(v=[0.0, -1.0, 0.0])
@example(v=[-0.0, 0.0, 1.0])
@example(v=[1.0, 1.0, 0.5])
def test_plane_basis_is_bitwise_np_cross(v):
    axis = np.array(v)
    norm = np.linalg.norm(axis)
    if not norm > 0:
        return
    axis = axis / norm
    for got, want in zip(_plane_basis(axis), np_cross_plane_basis(axis)):
        assert got.tobytes() == want.tobytes()
