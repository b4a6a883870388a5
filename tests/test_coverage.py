"""Grid-backed coverage passes against the dense scans they replace.

``plan_nondisjoint_detailed``'s patch and visit passes and
``missed_objects`` take a region's candidate waypoints from
``candidate_pairs`` around its center. ``tests/oracles.py`` keeps the
bitwise references: the dense region-by-waypoint scans, and a per-point
walk that compares each waypoint's Python-integer cell keys with the
center's (``cell_edge``, ``cell_keys``).
"""

import contextlib
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere, Tour
from tspn.bench import SceneConfig, generate_scene
from tspn.errors import ContractError, InvalidRegionError
from tspn.geom import (
    EPS_TOL, closest_point_on_region, contains, first_touch_indices, touch_tolerance,
)
from tspn.planner import _patch_and_visit, missed_objects, plan_nondisjoint_detailed

from oracles import (
    cell_edge,
    dense_missed_objects,
    dense_patch_and_visit,
    dense_plan_nondisjoint_detailed,
    one_row_contains_closest_point_on_region,
    per_point_first_touch_indices,
    reach_of,
)

KINDS = (("sphere",), ("shell",), ("sampled",), ("sphere", "shell", "sampled"))


def overlap_scene(rng, n: int, offset: float, kinds) -> Scene:
    """n overlapping regions around a few shared centers, ``offset`` m from the origin.

    Some regions share a center exactly. Half the shells have
    inner == outer. At an offset of 2**52 m every coordinate sits on a
    float grid of 0.5 or 1 m.
    """
    pool = offset + np.round(rng.uniform(-10.0, 10.0, size=(max(1, n // 3), 3)))
    objs = []
    for i in range(n):
        c = pool[rng.integers(len(pool))] + rng.integers(2) * rng.uniform(-3.0, 3.0, size=3)
        d = float(rng.uniform(4.0, 8.0))
        kind = kinds[rng.integers(len(kinds))]
        shape = Sphere(d) if kind == "sphere" else Shell(d * float(rng.choice([0.5, 1.0])), d)
        if kind == "sampled":
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
    d_min = min(o.region.d_min for o in objs)
    d_max = max(o.region.d_max for o in objs)
    return Scene(objects=tuple(objs), d_min_global=d_min, d_max_global=d_max)


def touch_distance(region, d_min_global) -> float:
    """Largest center distance ``contains`` accepts along the region's farthest extent."""
    s = region.shape
    tol = touch_tolerance(d_min_global)
    if isinstance(s, Sampled):
        return float(np.linalg.norm(s.points - region.center.as_array(), axis=1).max()) + tol
    return region.d_max / 2.0 + tol


def probe_waypoints(rng, scene: Scene, m: int) -> np.ndarray:
    """m random waypoints near the scene, plus waypoints on the edges of the coverage test.

    For a few regions: points at the touch distance, one ulp past it and
    at the region's reach along each axis, and a point moved onto the
    nearest grid-cell boundary in each coordinate.
    """
    centers = np.array([o.region.center.as_array() for o in scene.objects])
    lo, hi = centers.min(axis=0) - 6.0, centers.max(axis=0) + 6.0
    rows = [lo + rng.uniform(size=3) * (hi - lo) for _ in range(m)]
    cell = cell_edge(max(reach_of(o.region, scene.d_min_global) for o in scene.objects))
    for k in rng.choice(len(scene), size=min(3, len(scene)), replace=False):
        region = scene.objects[k].region
        c = region.center.as_array()
        t = touch_distance(region, scene.d_min_global)
        for dist in (t, math.nextafter(t, math.inf), reach_of(region, scene.d_min_global)):
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = dist
                rows += [c + e, c - e]
        rows.append(np.round(c / cell) * cell)
    rng.shuffle(rows)
    return np.array(rows).reshape(-1, 3)


def scene_start(rng, scene: Scene, where: str) -> Point3:
    region = scene.objects[rng.integers(len(scene))].region
    c = region.center.as_array()
    if where == "free":
        return Point3(*(c + rng.uniform(-20.0, 20.0, size=3)))
    if where == "center":
        return Point3(*c)
    return Point3(*(c + rng.uniform(-0.2, 0.2, size=3) * region.d_min))


def assert_same_plan(got, want):
    assert np.array_equal(got.tour.waypoints, want.tour.waypoints)
    assert got.tour.visits == want.tour.visits
    assert got.patched_ids == want.patched_ids


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ContractError it raises.

    At 2**52 m a touch point or spike tip can round off its region; both
    passes then refuse the plan with the same message.
    """
    try:
        return fn(*args)
    except ContractError as e:
        return str(e)


# ------------------------------------------------------------------ plan and audit vs dense


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    offset=st.sampled_from((0.0, 2.0**30, 2.0**52)),
    kinds=st.sampled_from(KINDS),
    where=st.sampled_from(("free", "center", "inside")),
)
@example(seed=0, n=16, offset=0.0, kinds=KINDS[3], where="free")
@example(seed=1, n=16, offset=2.0**52, kinds=KINDS[1], where="center")
@example(seed=2, n=12, offset=0.0, kinds=KINDS[2], where="inside")
def test_plan_nondisjoint_matches_dense_passes(seed, n, offset, kinds, where):
    rng = np.random.default_rng(seed)
    scene = overlap_scene(rng, n, offset, kinds)
    start = scene_start(rng, scene, where)
    got = outcome(plan_nondisjoint_detailed, start, scene)
    want = outcome(dense_plan_nondisjoint_detailed, start, scene)
    if isinstance(want, str):
        assert got == want
        return
    assert_same_plan(got, want)
    assert missed_objects(got.tour, scene) == dense_missed_objects(got.tour, scene)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    m=st.integers(0, 12),
    offset=st.sampled_from((0.0, 2.0**30, 2.0**52)),
    kinds=st.sampled_from(KINDS),
)
@example(seed=0, n=16, m=0, offset=0.0, kinds=KINDS[3])
@example(seed=3, n=16, m=4, offset=2.0**52, kinds=KINDS[3])
def test_patch_visit_and_audit_match_dense_passes(seed, n, m, offset, kinds):
    rng = np.random.default_rng(seed)
    scene = overlap_scene(rng, n, offset, kinds)
    arr = probe_waypoints(rng, scene, m)
    tour = Tour(waypoints=arr)
    assert missed_objects(tour, scene) == dense_missed_objects(tour, scene)
    got = outcome(_patch_and_visit, arr, scene)
    want = outcome(dense_patch_and_visit, arr, scene)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    m=st.integers(0, 12),
    offset=st.sampled_from((0.0, -(2.0**40), 2.0**52, 1e20, -1e20)),
    kinds=st.sampled_from(KINDS),
)
@example(seed=0, n=1, m=0, offset=0.0, kinds=KINDS[0])
@example(seed=5, n=16, m=12, offset=1e20, kinds=KINDS[3])
def test_first_touch_indices_match_the_per_point_walk(seed, n, m, offset, kinds):
    # At +-1e20 every coordinate rounds onto a few floats 16 384 m apart,
    # and an int64 cast of a cell key would overflow.
    rng = np.random.default_rng(seed)
    scene = overlap_scene(rng, n, offset, kinds)
    regions = [o.region for o in scene.objects]
    arr = probe_waypoints(rng, scene, m)
    for points in (arr, arr[:1], arr[:0]):
        assert np.array_equal(first_touch_indices(scene, points),
                              per_point_first_touch_indices(regions, points, scene.d_min_global))


def test_empty_and_sparse_tours_miss_what_the_dense_audit_misses():
    rng = np.random.default_rng(5)
    scene = overlap_scene(rng, 30, 0.0, KINDS[3])
    empty = Tour(waypoints=np.empty((0, 3)))
    assert missed_objects(empty, scene) == dense_missed_objects(empty, scene)
    assert missed_objects(empty, scene) == [o.id for o in scene.objects]
    nothing = Scene(objects=(), d_min_global=1.0, d_max_global=1.0)
    assert first_touch_indices(nothing, np.zeros((2, 3))).shape == (0,)
    planned = plan_nondisjoint_detailed(Point3(0, 0, 0), scene).tour.waypoints
    for step in (2, 5, 40):
        sparse = Tour(waypoints=planned[::step])
        missed = missed_objects(sparse, scene)
        assert missed == dense_missed_objects(sparse, scene)
        assert missed and len(missed) < len(scene)


def test_patch_pass_skips_regions_an_earlier_spike_touches():
    # Two far-off waypoints and a tight cluster: the first region's spike
    # lands where it also touches later regions, which get no spike.
    rng = np.random.default_rng(7)
    scene = overlap_scene(rng, 12, 0.0, KINDS[0])
    arr = np.array([[-60.0, 0.0, 0.0], [60.0, 5.0, 0.0]])
    before = missed_objects(Tour(waypoints=arr), scene)
    got = _patch_and_visit(arr, scene)
    assert got[2] and len(got[2]) < len(before) == len(scene)
    want = dense_patch_and_visit(arr, scene)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]


def test_patch_pass_with_tips_that_are_first_touches():
    # "m" and "c" need spikes. m's tip (0, 7, 0), inserted after waypoint 1,
    # also touches "b" (missed, so it gets no spike of its own) and "late",
    # whose first touch was input waypoint 3. "m2" is nearest m's tip, so its
    # spike goes between that tip and the copy of waypoint 1 after it, and
    # its tip (2, 7, 0) is the first touch of "z".
    objs = [
        sphere_obj("m", (0, 10, 0), 6.0),
        sphere_obj("late", (8, 7, 0), 17.0),
        sphere_obj("b", (-1, 7, 0), 3.0),
        sphere_obj("m2", (3, 7, 0), 2.0),
        sphere_obj("z", (2, 7.8, 0), 1.8),
        sphere_obj("c", (20, -26, 0), 4.0),
    ]
    scene = Scene(objects=tuple(objs), d_min_global=1.8, d_max_global=17.0)
    arr = np.array([[-20.0, 0, 0], [0, 0, 0], [20, -20, 0], [16, 7, 0]])
    assert first_touch_indices(scene, arr).tolist() == [-1, 3, -1, -1, -1, -1]
    got = _patch_and_visit(arr, scene)
    want = dense_patch_and_visit(arr, scene)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]
    assert got[2] == ["m", "m2", "c"]
    assert got[0][2:5].tolist() == [[0, 7, 0], [2, 7, 0], [0, 7, 0]]
    first = {v.object_id: v.waypoint_index for v in got[1]}
    assert first == {"m": 2, "late": 2, "b": 2, "m2": 3, "z": 3, "c": 7}


def reach_limit_scene() -> Scene:
    """A sampled region whose farthest samples sit exactly at the validated limit.

    Its boundary samples along -x, -y and -z are d_max/2 * (1 + EPS_TOL) +
    EPS_TOL from the center, so a waypoint at its reach along those axes
    touches it. The center is at the origin, on a grid-cell corner, and the
    region has the largest reach in the scene.
    """
    d_max = 8.0
    far = d_max / 2.0 * (1.0 + EPS_TOL) + EPS_TOL
    dirs = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                     [1, 1, 1], [1, -1, 1], [-1, 1, -1]], dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.array([far, far, far, 2.0, 2.0, 2.0, 2.5, 2.5, 2.5])
    sampled = Sampled(points=dirs * radii[:, None], normals=dirs, d_min=4.0, d_max=d_max)
    objs = [
        SceneObject(id="far", region=Region(center=Point3(0, 0, 0), shape=sampled)),
        SceneObject(id="ball", region=Region(center=Point3(0, 0, 0), shape=Sphere(4.0))),
        SceneObject(id="twin", region=Region(center=Point3(0, 0, 0), shape=Shell(6.0, 6.0))),
    ]
    return Scene(objects=tuple(objs), d_min_global=4.0, d_max_global=d_max)


def test_waypoint_at_the_largest_reach_is_found():
    # The reach is the grid's cell edge less its relative 1e-9, so a cell
    # edge even one ulp below the reach puts these waypoints two cells away.
    scene = reach_limit_scene()
    far = scene.objects[0].region
    reach = reach_of(far, scene.d_min_global)
    assert reach == max(reach_of(o.region, scene.d_min_global) for o in scene.objects)
    for axis in range(3):
        p = np.zeros(3)
        p[axis] = -reach
        assert contains(far, p[None], touch_tolerance(scene.d_min_global))[0]
        beyond = p.copy()
        beyond[axis] = math.nextafter(-reach, -math.inf)
        for rows, missed in (([p], ["ball", "twin"]), ([beyond], ["far", "ball", "twin"])):
            tour = Tour(waypoints=rows)
            assert missed_objects(tour, scene) == dense_missed_objects(tour, scene) == missed
        arr = np.array([[9.0, 9.0, 9.0], p, [0.0, 0.0, 3.0]])
        got = _patch_and_visit(arr, scene)
        want = dense_patch_and_visit(arr, scene)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        assert got[1][0].waypoint_index == 1 and got[2] == ["ball"]


# ------------------------------------------------------------------ plan edge cases


def sphere_obj(oid, center, d):
    return SceneObject(id=oid, region=Region(center=Point3(*center), shape=Sphere(d)))


def test_plan_single_region():
    scene = Scene(objects=(sphere_obj("a", (10, 0, 0), 2.0),), d_min_global=2.0, d_max_global=2.0)
    plan = plan_nondisjoint_detailed(Point3(0, 0, 0), scene)
    assert plan.tour.waypoints.tolist() == [[0, 0, 0], [9, 0, 0]]
    assert plan.tour.visits[0].waypoint_index == 1
    assert plan.detours == () and plan.patched_ids == ()


def test_plan_start_inside_a_region():
    objs = [sphere_obj("a", (0.2, 0, 0), 4.0), sphere_obj("b", (2.0, 0, 0), 4.0),
            sphere_obj("c", (30, 0, 0), 4.0)]
    scene = Scene(objects=tuple(objs), d_min_global=4.0, d_max_global=4.0)
    start = Point3(0, 0, 0)
    plan = plan_nondisjoint_detailed(start, scene)
    assert_same_plan(plan, dense_plan_nondisjoint_detailed(start, scene))
    assert plan.tour.waypoints[0].tolist() == [0, 0, 0]
    assert plan.tour.visits[0].waypoint_index == 0  # the start already touches "a"
    assert missed_objects(plan.tour, scene) == []


def test_plan_coincident_centers_and_twin_shells():
    # Spheres and shells on one center, twin shells (inner == outer) among them.
    shapes = [Sphere(4.0), Shell(4.0, 4.0), Shell(6.0, 6.0), Shell(3.0, 8.0), Sphere(8.0)]
    for c in ((5.0, 5.0, 5.0), (2.0**52, 2.0**52, 2.0**52)):
        objs = [SceneObject(id=f"s{i}", region=Region(center=Point3(*c), shape=shape))
                for i, shape in enumerate(shapes)]
        objs.append(SceneObject(id="t", region=Region(center=Point3(c[0] + 5.0, c[1], c[2]),
                                                      shape=Shell(5.0, 5.0))))
        scene = Scene(objects=tuple(objs), d_min_global=3.0, d_max_global=8.0)
        for start in (Point3(*c), Point3(c[0] - 20.0, c[1], c[2])):
            plan = plan_nondisjoint_detailed(start, scene)
            assert_same_plan(plan, dense_plan_nondisjoint_detailed(start, scene))
            assert missed_objects(plan.tour, scene) == []
            for v in plan.tour.visits:
                region = scene.get(v.object_id).region
                row = plan.tour.waypoints[v.waypoint_index : v.waypoint_index + 1]
                assert contains(region, row, touch_tolerance(scene.d_min_global))[0]


def test_plan_overlapping_scene_with_patch_visits():
    scene = generate_scene(SceneConfig(n_objects=20, d_min=5.4, d_max=8.2, cube_edge=30.0,
                                       disjoint=False, overlap_rate=0.35, seed=1))
    plan = plan_nondisjoint_detailed(Point3(0, 0, 0), scene)
    assert len(plan.patched_ids) >= 1
    assert_same_plan(plan, dense_plan_nondisjoint_detailed(Point3(0, 0, 0), scene))
    assert missed_objects(plan.tour, scene) == []


# ------------------------------------------------------------------ closest point


def closest_point_region(kind: str, c) -> Region:
    shape = {"sphere": Sphere(4.0), "shell": Shell(2.0, 4.0), "twin": Shell(3.0, 3.0)}[kind]
    return Region(center=Point3(*c), shape=shape)


def closest_point_probes(rng, region: Region) -> list[np.ndarray]:
    """Points inside, outside, on either sphere (on an axis and off it) and at the center."""
    c = region.center.as_array()
    r_in = region.d_min / 2.0 if isinstance(region.shape, Shell) else 0.0
    r_out = region.d_max / 2.0
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    probes = [c.copy()]
    for r in (r_in, r_out, 0.5 * (r_in + r_out), 0.5 * r_in, 2.0 * r_out):
        for e in np.eye(3):
            probes += [c + r * e, c - r * e]
        for rr in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
            probes.append(c + rr * u)
    return probes


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("sphere", "shell", "twin")),
    offset=st.sampled_from((0.0, 2.0**52, -1234.5)),
)
def test_closest_point_bitwise_equals_one_row_contains(seed, kind, offset):
    rng = np.random.default_rng(seed)
    region = closest_point_region(kind, offset + rng.uniform(-10.0, 10.0, size=3))
    for p in closest_point_probes(rng, region):
        got = closest_point_on_region(region, p)
        want = one_row_contains_closest_point_on_region(region, p)
        assert got.tobytes() == want.tobytes(), (p, got, want)
