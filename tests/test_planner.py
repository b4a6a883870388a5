import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tspn import (
    Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, Tour, TspConfig, tour_length,
)
from tspn.bench import SceneConfig, generate_scene
from tspn.errors import InvalidRegionError
from tspn.geom import contains, touch_tolerance
from tspn.planner import (
    BoundReport,
    ONLINE_PACKING_ALPHA,
    REGION_COUNT_COEFF,
    alpha_fat_baseline,
    center_visit,
    maximal_independent_set,
    missed_objects,
    online_tour_lower_bound,
    plan_nondisjoint_detailed,
    region_count_bound,
    scene_is_disjoint,
    validate_bounds,
)

from oracles import sampled_tspn_optimum, unpruned_alpha_fat_baseline


def sphere_obj(oid, center, d):
    return SceneObject(id=oid, region=Region(center=Point3(*center), shape=Sphere(d)))


def make_scene(objs, d_min, d_max, cube=100.0):
    return Scene(objects=tuple(objs), d_min_global=d_min, d_max_global=d_max, cube_edge=cube)


def disjoint_sphere_scene(rng, n, d_min, d_max, cube=100.0):
    objs = []
    centers = []
    while len(objs) < n:
        c = rng.uniform(0, cube, size=3)
        if all(np.linalg.norm(c - e) > d_max for e in centers):
            centers.append(c)
            d = float(rng.uniform(d_min, d_max))
            objs.append(sphere_obj(f"obj-{len(objs):03d}", c, d))
    return make_scene(objs, d_min, d_max, cube)


# ------------------------------------------------------------------ center visit


def test_center_visit_single_sphere_straight_approach():
    scene = make_scene([sphere_obj("a", (10, 0, 0), 2.0)], 2.0, 2.0)
    tour = center_visit(Point3(0, 0, 0), scene)
    assert tour.waypoints.tolist() == [[0, 0, 0], [9, 0, 0]]
    assert math.isclose(tour_length(tour), 9.0)
    assert tour.visits[0].object_id == "a" and tour.visits[0].waypoint_index == 1


def test_center_visit_start_inside_region():
    scene = make_scene([sphere_obj("a", (0.2, 0, 0), 2.0)], 2.0, 2.0)
    start = Point3(0, 0, 0)
    tour = center_visit(start, scene)
    assert tour.waypoints.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert tour_length(tour) == 0.0


def test_center_visit_empty_scene():
    scene = make_scene([], 1.0, 2.0)
    tour = center_visit(Point3(1, 2, 3), scene)
    assert tour.waypoints.tolist() == [[1, 2, 3]]
    assert tour.visits == ()


def test_center_visit_visits_each_object_once():
    rng = np.random.default_rng(0)
    scene = disjoint_sphere_scene(rng, 12, 3.0, 5.0)
    tour = center_visit(Point3(0, 0, 0), scene, TspConfig())
    ids = [v.object_id for v in tour.visits]
    assert sorted(ids) == sorted(o.id for o in scene.objects)
    assert missed_objects(tour, scene) == []


def test_center_visit_degenerate_centers():
    # Coincident, repeated and collinear centers, and every scene size up
    # to 5: each object is visited once, at a point of its own region.
    rng = np.random.default_rng(16)
    base = rng.uniform(0, 20, size=(4, 3))
    cases = [
        np.concatenate([base, base, base[:2]]),
        np.full((7, 3), 10.0),
        np.array([[3.0 * i, 1.0, 1.0] for i in (4, 0, 6, 2, 5, 1, 3)]),
    ]
    cases += [rng.uniform(0, 20, size=(n, 3)) for n in range(6)]
    for centers in cases:
        scene = make_scene([sphere_obj(f"o{i}", c, 2.0) for i, c in enumerate(centers)], 2.0, 2.0)
        tour = center_visit(Point3(-5, 0, 0), scene)
        assert len(tour.waypoints) == len(centers) + 1
        assert sorted(v.object_id for v in tour.visits) == sorted(o.id for o in scene.objects)
        for v in tour.visits:
            region = scene.get(v.object_id).region
            row = tour.waypoints[v.waypoint_index : v.waypoint_index + 1]
            assert contains(region, row, touch_tolerance(scene.d_min_global))[0]
        assert missed_objects(tour, scene) == []


def test_center_visit_factor_against_brute_force_tspn():
    # Disjoint 5-sphere scenes: planner length within the analytic factor
    # (with solver slack) of a brute-force touch-point optimum.
    rng = np.random.default_rng(42)
    for trial in range(5):
        scene = disjoint_sphere_scene(rng, 5, 4.0, 7.0, cube=60.0)
        start = Point3(0, 0, 0)
        tour = center_visit(start, scene, TspConfig())
        centers = np.array([o.region.center.as_array() for o in scene.objects])
        radii = np.array([o.region.d_max / 2.0 for o in scene.objects])
        opt = sampled_tspn_optimum(start.as_array(), centers, radii, n_samples=200)
        factor = (REGION_COUNT_COEFF * scene.d_max_global / scene.d_min_global + 1.0) * 1.10
        assert tour_length(tour) <= factor * opt + 1e-9


# ------------------------------------------------------------------ independent set


def test_mis_disjoint_keeps_everything():
    rng = np.random.default_rng(5)
    scene = disjoint_sphere_scene(rng, 8, 2.0, 4.0)
    res = maximal_independent_set(scene)
    assert sorted(res.kept) == sorted(o.id for o in scene.objects)
    assert res.assignment == {}


def test_mis_prefers_smaller_d_max():
    big = sphere_obj("big", (0, 0, 0), 3.0)
    small = sphere_obj("small", (1.0, 0, 0), 2.0)
    scene = make_scene([big, small], 2.0, 3.0)
    res = maximal_independent_set(scene)
    assert res.kept == ("small",)
    assert res.assignment == {"big": "small"}


def test_mis_chain_tie_break_by_id():
    # A-B overlap and B-C overlap, A-C do not; equal diameters.
    a = sphere_obj("a", (0, 0, 0), 2.0)
    b = sphere_obj("b", (1.5, 0, 0), 2.0)
    c = sphere_obj("c", (3.0, 0, 0), 2.0)
    scene = make_scene([a, b, c], 2.0, 2.0)
    res = maximal_independent_set(scene)
    assert res.kept == ("a", "c")
    assert res.assignment == {"b": "a"}


def test_mis_kept_pairwise_disjoint_and_maximal():
    rng = np.random.default_rng(17)
    for trial in range(10):
        centers = rng.uniform(0, 30, size=(15, 3))
        objs = [
            sphere_obj(f"o{i:02d}", c, float(rng.uniform(3.0, 6.0))) for i, c in enumerate(centers)
        ]
        scene = make_scene(objs, 3.0, 6.0, cube=30.0)
        res = maximal_independent_set(scene)
        by_id = {o.id: o for o in scene.objects}
        from tspn import regions_intersect

        kept = [by_id[k] for k in res.kept]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not regions_intersect(kept[i].region, kept[j].region, scene.d_min_global)
        assert set(res.kept) | set(res.assignment) == {o.id for o in scene.objects}
        for removed, keeper in res.assignment.items():
            removed_region, keeper_region = by_id[removed].region, by_id[keeper].region
            assert regions_intersect(removed_region, keeper_region, scene.d_min_global)


def test_mis_idempotent_on_kept_set():
    rng = np.random.default_rng(23)
    centers = rng.uniform(0, 25, size=(12, 3))
    objs = [sphere_obj(f"o{i:02d}", c, 4.0) for i, c in enumerate(centers)]
    scene = make_scene(objs, 4.0, 4.0, cube=25.0)
    res = maximal_independent_set(scene)
    kept_scene = make_scene(
        [o for o in scene.objects if o.id in res.kept], 4.0, 4.0, cube=25.0
    )
    again = maximal_independent_set(kept_scene)
    assert set(again.kept) == set(res.kept)
    assert again.assignment == {}


# ------------------------------------------------------------------ bound report


def test_count_bound_formula_value():
    assert math.isclose(region_count_bound(2.0, 100.0), 27.0 / 40.0 * 104.0)
    assert math.isclose(region_count_bound(2.0, 100.0), 70.2)


def test_online_lower_bound_formula_value():
    assert math.isclose(online_tour_lower_bound(100, 5.4), 0.25 * 100 * 0.4786 * 5.4)
    assert math.isclose(online_tour_lower_bound(100, 5.4), 64.611)


def test_validate_bounds_on_disjoint_scene():
    rng = np.random.default_rng(9)
    scene = disjoint_sphere_scene(rng, 10, 4.0, 6.0)
    tour = center_visit(Point3(0, 0, 0), scene, TspConfig())
    report = validate_bounds(scene, tour)
    assert isinstance(report, BoundReport)
    assert report.count_bound_applicable
    assert report.count_bound_holds is True
    assert report.online_lower_bound_holds is True and report.length_over_lower_bound > 1.0
    assert report.n_objects == 10
    # recompute at high precision
    L = tour_length(tour)
    expected = 27.0 / (20.0 * scene.d_min_global) * (L + 2.0 * scene.d_min_global)
    assert math.isclose(report.count_bound, expected, rel_tol=1e-12)


def test_validate_bounds_flags_nondisjoint_not_applicable():
    a = sphere_obj("a", (0, 0, 0), 2.0)
    b = sphere_obj("b", (1.0, 0, 0), 2.0)
    scene = make_scene([a, b], 2.0, 2.0)
    tour = center_visit(Point3(5, 0, 0), scene, TspConfig())
    report = validate_bounds(scene, tour)
    assert not report.count_bound_applicable
    assert report.count_bound_holds is None
    assert report.online_lower_bound_holds is None and report.length_over_lower_bound is None


def test_validate_bounds_reports_no_disjoint_only_verdict_on_co_centred_regions():
    # The inverted count bound would read 0.694 here: a tour shorter than its "lower bound".
    scene = make_scene([sphere_obj(f"o{i}", (0, 0, 0), 8.0) for i in range(20)], 8.0, 8.0)
    plan = plan_nondisjoint_detailed(Point3(2, 0, 0), scene)
    report = validate_bounds(scene, plan.tour, plan.detours)
    assert math.isclose(report.tour_length, 71.1168497, rel_tol=1e-8)
    assert report.tour_length < 8.0 * 20 / REGION_COUNT_COEFF - 2 * 8.0
    assert report.count_bound_holds is report.online_lower_bound_holds is report.length_over_lower_bound is None


def test_scene_disjoint_helper():
    rng = np.random.default_rng(2)
    assert scene_is_disjoint(disjoint_sphere_scene(rng, 6, 2.0, 3.0))
    overlap = make_scene(
        [sphere_obj("a", (0, 0, 0), 2.0), sphere_obj("b", (1, 0, 0), 2.0)], 2.0, 2.0
    )
    assert not scene_is_disjoint(overlap)


def test_validate_bounds_alpha_constant():
    assert ONLINE_PACKING_ALPHA == 0.4786


# ------------------------------------------------------------------ baseline


def test_alpha_fat_single_sphere_geometry():
    from tspn.planner import alpha_fat_baseline

    scene = make_scene([sphere_obj("a", (30, 0, 0), 6.0)], 6.0, 6.0)
    start = Point3(0, 0, 0)
    tour = alpha_fat_baseline(start, scene, samples_per_region=108)
    assert len(tour.waypoints) == 2
    rep = tour.waypoints[1]
    length = tour_length(tour)
    assert math.isclose(length, math.dist(start.as_array(), rep), rel_tol=1e-12)
    assert length >= math.dist(start.as_array(), (30, 0, 0)) - 3.0


def test_alpha_fat_runtime_decreases_with_fewer_samples():
    import time

    from tspn.planner import alpha_fat_baseline

    rng = np.random.default_rng(12)
    scene = disjoint_sphere_scene(rng, 50, 5.4, 8.2)
    start = Point3(0, 0, 0)

    # Best of 15 each, interleaved, so a slow spell of the machine hits both
    # sample counts rather than one, and no one spell decides either best.
    best = {108: float("inf"), 12: float("inf")}
    for _ in range(15):
        for samples in best:
            t0 = time.perf_counter()
            alpha_fat_baseline(start, scene, samples_per_region=samples)
            best[samples] = min(best[samples], time.perf_counter() - t0)
    dense, sparse = best[108], best[12]
    assert sparse < dense, f"12 samples {sparse:.4f}s not faster than 108 samples {dense:.4f}s"


def test_alpha_fat_distance_rows_decrease_with_fewer_samples(monkeypatch):
    # The work behind the runtime test, counted: the rows of points that
    # alpha_fat_baseline measures distances to.
    import tspn.planner as planner
    from tspn.geom import distances

    rng = np.random.default_rng(12)
    scene = disjoint_sphere_scene(rng, 50, 5.4, 8.2)
    rows = {}
    for samples in (108, 12):
        rows[samples] = 0

        def counting(a, b, samples=samples):
            rows[samples] += np.size(b) // 3
            return distances(a, b)

        monkeypatch.setattr(planner, "distances", counting)
        alpha_fat_baseline(Point3(0, 0, 0), scene, samples_per_region=samples)
    assert 0 < rows[12] < rows[108], rows


def test_alpha_fat_touches_every_region():
    from tspn.planner import alpha_fat_baseline

    rng = np.random.default_rng(14)
    scene = disjoint_sphere_scene(rng, 10, 4.0, 6.0)
    tour = alpha_fat_baseline(Point3(0, 0, 0), scene, samples_per_region=32)
    assert missed_objects(tour, scene) == []
    assert sorted(v.object_id for v in tour.visits) == sorted(o.id for o in scene.objects)


def baseline_scene(rng, n: int, offset: float) -> Scene:
    """n spheres, shells and sampled regions around a few shared centers.

    Regions often share a center, with equal or different sizes, and half
    the shells have inner == outer. At an offset of 2**52 m or more every
    sample lands on a float grid of 1 m or coarser, so exact distance ties
    run across samples, picks and regions.
    """
    pool = offset + np.round(rng.uniform(-12.0, 12.0, size=(max(1, n // 2), 3)))
    objs = []
    for i in range(n):
        c = pool[rng.integers(len(pool))]
        d = float(rng.choice([4.0, 6.0, 8.0]))
        kind = rng.integers(3)
        shape = Sphere(d) if kind == 0 else Shell(d * float(rng.choice([0.5, 1.0])), d)
        if kind == 2:
            u = rng.normal(size=(int(rng.integers(8, 24)), 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            pts = c + u * (d * rng.uniform(0.3, 0.5, size=len(u)))[:, None]
            radii = np.linalg.norm(pts - c, axis=1)
            # A coarse grid can round a point onto the center, or two onto one direction
            # from it; keep the shell then.
            sampled = Sampled(points=pts, normals=u, d_min=2 * float(radii.min()),
                              d_max=2 * float(radii.max()))
            with contextlib.suppress(InvalidRegionError):
                shape = Region(center=Point3(*c), shape=sampled).shape
        objs.append(SceneObject(id=f"o{i}", region=Region(center=Point3(*c), shape=shape)))
    d_min = min((o.region.d_min for o in objs), default=1.0)
    d_max = max((o.region.d_max for o in objs), default=1.0)
    return Scene(objects=tuple(objs), d_min_global=d_min, d_max_global=d_max)


def baseline_start(rng, scene: Scene, offset: float, where: str) -> Point3:
    """A free start, or one at a region's center (a shell's, when there is
    one), or one near a region's center: inside it unless it is a shell."""
    if where == "free" or len(scene) == 0:
        return Point3(*(offset + rng.uniform(-20.0, 20.0, size=3)))
    shells = [o.region for o in scene.objects if isinstance(o.region.shape, Shell)]
    if shells and where == "center":
        region = shells[0]
    else:
        region = scene.objects[rng.integers(len(scene))].region
    c = region.center.as_array()
    if where == "center":
        return Point3(*c)
    return Point3(*(c + rng.uniform(-0.2, 0.2, size=3) * region.d_min))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 14),
    samples=st.sampled_from((4, 5, 12, 108)),
    offset=st.sampled_from((0.0, 2.0**52, 2.0**53)),
    where=st.sampled_from(("free", "center", "inside")),
)
@example(seed=0, n=0, samples=4, offset=0.0, where="free")
@example(seed=1, n=1, samples=5, offset=0.0, where="inside")
@example(seed=2, n=2, samples=12, offset=0.0, where="center")
# In the next three a later pick ties a region's best at another sample index.
@example(seed=0, n=14, samples=108, offset=2.0**53, where="free")
@example(seed=2, n=14, samples=108, offset=2.0**52, where="center")
@example(seed=9, n=14, samples=12, offset=2.0**52, where="center")
def test_alpha_fat_matches_unpruned_reference(seed, n, samples, offset, where):
    rng = np.random.default_rng(seed)
    scene = baseline_scene(rng, n, offset)
    start = baseline_start(rng, scene, offset, where)
    got = alpha_fat_baseline(start, scene, samples_per_region=samples)
    want = unpruned_alpha_fat_baseline(start, scene, samples_per_region=samples)
    assert np.array_equal(got.waypoints, want.waypoints)
    assert got.visits == want.visits


def test_alpha_fat_prune_keeps_a_tie_that_rounding_hides():
    # At 2**52 m the samples sit on a grid of 1 m (0.5 m just below 2**52).
    # The first pick is b's sample at the start, sqrt(24) from r's sample 11.
    # a's sample nearest to it, p = c_r + 3 * Q8, is picked next; Q8 is one
    # of r's farthest samples, |Q8|**2 = 6. p is also sqrt(24) from r's sample 8, so
    # the tie moves r's representative to the lower index 8. The three points
    # are collinear and |c_r - p| = sqrt(54) rounds above sqrt(24) + sqrt(6),
    # so a prune without slack would skip r and keep sample 11.
    o = 2.0**52
    objs = [
        SceneObject(id="r", region=Region(center=Point3(o, o, o), shape=Sphere(4.0))),
        SceneObject(id="a", region=Region(center=Point3(o + 7, o + 3, o - 2.5), shape=Sphere(2.0))),
        SceneObject(id="b", region=Region(center=Point3(o + 2, o + 5, o - 5), shape=Sphere(2.0))),
    ]
    scene = Scene(objects=tuple(objs), d_min_global=2.0, d_max_global=4.0)
    start = Point3(o + 2, o + 5, o - 4)
    got = alpha_fat_baseline(start, scene, samples_per_region=12)
    want = unpruned_alpha_fat_baseline(start, scene, samples_per_region=12)
    assert np.array_equal(got.waypoints, want.waypoints)
    assert got.visits == want.visits


def tie_scene(rng, n: int, kind: str, offset: float) -> Scene:
    """n regions whose boundary samples tie often.

    "spheres" and "shells": equal outer diameters on a 2 m integer lattice
    of 5**3 points, so centers repeat. "copies": every object copies one of
    a few ``baseline_scene`` regions (spheres, shells and sampled regions
    around shared centers), so whole sample sets repeat.
    """
    if kind == "copies":
        pool = [o.region for o in baseline_scene(rng, max(1, n // 3), offset).objects]
        regions = [pool[k] for k in rng.integers(len(pool), size=n)]
    else:
        centers = offset + 2.0 * rng.integers(-2, 3, size=(n, 3))
        inner = rng.choice([2.0, 4.0], size=n)
        regions = [Region(center=Point3(*c), shape=Sphere(4.0) if kind == "spheres" else Shell(float(d), 4.0))
                   for c, d in zip(centers, inner)]
    objs = tuple(SceneObject(id=f"o{i}", region=r) for i, r in enumerate(regions))
    return Scene(objects=objs, d_min_global=min(r.d_min for r in regions),
                 d_max_global=max(r.d_max for r in regions))


@pytest.mark.parametrize("kind", ["spheres", "shells", "copies"])
@pytest.mark.parametrize("offset", [0.0, 2.0**52])
def test_alpha_fat_tree_matches_dense_prim_on_ties(kind, offset):
    # The baseline walks the tree its greedy records; the reference runs a
    # dense Prim over the final representatives. Repeated centers and sample
    # sets put exact ties in the picks and in each region's parent.
    rng = np.random.default_rng(18)
    for _ in range(12):
        n = int(rng.integers(2, 41))
        scene = tie_scene(rng, n, kind, offset)
        start = Point3(*(offset + 2.0 * rng.integers(-3, 4, size=3)))
        for samples in (4, 12, 108):
            got = alpha_fat_baseline(start, scene, samples_per_region=samples)
            want = unpruned_alpha_fat_baseline(start, scene, samples_per_region=samples)
            assert np.array_equal(got.waypoints, want.waypoints), (n, samples)
            assert got.visits == want.visits, (n, samples)


def test_alpha_fat_tree_matches_dense_prim_at_workload_size():
    # 250 car-sized spheres in a 100 m cube with the default 108 samples.
    scene = generate_scene(SceneConfig(n_objects=250, d_min=5.4, d_max=8.2, cube_edge=100.0,
                                       disjoint=True, seed=1))
    start = Point3(0, 0, 0)
    got = alpha_fat_baseline(start, scene, samples_per_region=108)
    want = unpruned_alpha_fat_baseline(start, scene, samples_per_region=108)
    assert np.array_equal(got.waypoints, want.waypoints)
    assert got.visits == want.visits


def test_alpha_fat_memory_stays_below_dense_matrix():
    # A dense 3000 x 3000 float64 matrix alone is 72 MB.
    n = 3000
    scene = generate_scene(SceneConfig(n_objects=n, d_min=5.4, d_max=8.2, cube_edge=300.0,
                                       disjoint=True, seed=17))
    tracemalloc.start()
    try:
        tour = alpha_fat_baseline(Point3(0, 0, 0), scene, samples_per_region=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(v.object_id for v in tour.visits) == sorted(o.id for o in scene.objects)
    assert len(tour.waypoints) == 2 * n
    assert peak < 8 * n * n / 8, peak


def test_empty_tour_misses_every_object():
    rng = np.random.default_rng(15)
    scene = disjoint_sphere_scene(rng, 5, 4.0, 6.0)
    empty = Tour(waypoints=np.empty((0, 3)))
    assert empty.waypoints.shape == (0, 3)
    assert tour_length(empty) == 0.0
    assert missed_objects(empty, scene) == [o.id for o in scene.objects]
