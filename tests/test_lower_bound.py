"""Every planner's tour against the gap-MST lower bound, and center-visit's against the
fixed-order dual bound.

A tour from the start touches each region within its reach of the center
(``oracles.reach_of``), so it is at least as long as the minimum spanning
tree over the start and the centers whose edges weigh the gaps between
reaches (``oracles.gap_mst_length``), and as the dual bound of any path
touching those reach balls in its visit order (``oracles.fixed_order_dual``).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sphere, TspConfig
from tspn.geom import touch_tolerance
from tspn.planner import DEFAULT_SAMPLES_PER_REGION, PLANNERS, center_visit

from oracles import fixed_order_dual, gap_mst_length, reach_of, scene_of
from test_contains import random_region
from test_coverage import KINDS, overlap_scene


def disjoint_scene(rng, n: int, kinds):
    """n regions of the given kinds, centers more than 10 m apart: past any two outer radii
    (at most 5 m each), so every planner, ``online`` too, takes the scene."""
    centers: list[np.ndarray] = []
    while len(centers) < n:
        c = rng.uniform(-30.0, 30.0, size=3)
        if all(np.linalg.norm(c - e) > 10.0 for e in centers):
            centers.append(c)
    return scene_of([random_region(rng, kinds[rng.integers(len(kinds))], c) for c in centers])


def gap_bound(start: Point3, scene) -> float:
    reach = [reach_of(o.region, scene.d_min_global) for o in scene.objects]
    return gap_mst_length(start.as_array(), scene.centers, reach)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), kinds=st.sampled_from(KINDS),
       disjoint=st.booleans())
def test_every_tour_is_at_least_the_gap_mst(seed, n, kinds, disjoint):
    rng = np.random.default_rng(seed)
    scene = disjoint_scene(rng, n, kinds) if disjoint else overlap_scene(rng, n, 0.0, kinds)
    start = Point3(*rng.uniform(-35.0, 35.0, size=3))
    bound = gap_bound(start, scene)
    for method, plan in PLANNERS.items():
        if method == "online" and not disjoint:
            continue  # online plans only scenes whose outer balls are disjoint
        tour, _ = plan(start, scene, np.random.default_rng(seed), TspConfig(), DEFAULT_SAMPLES_PER_REGION)
        assert tour.length >= bound * (1.0 - 1e-12), (method, tour.length, bound)


def visit_order_dual(start: Point3, scene, tour, u) -> float:
    """``fixed_order_dual`` over the tour's visit order, each region's ball its reach."""
    row = {oid: k for k, oid in enumerate(scene.ids)}
    order = [row[v.object_id] for v in tour.visits]
    return fixed_order_dual(start.as_array(), scene.centers[order], scene.reach[order], u)


def leg_directions(tour) -> np.ndarray:
    """Each leg's unit direction, or zero for a leg of length zero."""
    legs = np.diff(tour.waypoints, axis=0)
    norms = np.linalg.norm(legs, axis=1, keepdims=True)
    return np.divide(legs, norms, out=np.zeros_like(legs), where=norms > 0)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), kinds=st.sampled_from(KINDS))
def test_center_visit_is_at_least_the_fixed_order_dual(seed, n, kinds):
    rng = np.random.default_rng(seed)
    scene = disjoint_scene(rng, n, kinds)
    start = Point3(*rng.uniform(-35.0, 35.0, size=3))
    tour = center_visit(start, scene)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for u in (leg_directions(tour), directions * rng.uniform(0.0, 1.0, size=(n, 1))):
        bound = visit_order_dual(start, scene, tour, u)
        assert tour.length >= bound - 1e-12 * (1.0 + abs(bound)), (tour.length, bound)


def test_a_straight_approach_meets_both_bounds():
    region = Region(Point3(10.0, 0.0, 0.0), Sphere(4.0))
    scene = scene_of([region])
    start = Point3(0.0, 0.0, 0.0)
    tour, _ = PLANNERS["center-visit"](start, scene, None, TspConfig(), DEFAULT_SAMPLES_PER_REGION)
    assert tour.waypoints.tolist() == [[0.0, 0.0, 0.0], [8.0, 0.0, 0.0]]
    # Each bound reaches past the sphere by its touch tolerance (and the 1e-9 validation slack).
    for bound in (gap_bound(start, scene), visit_order_dual(start, scene, tour, leg_directions(tour))):
        assert 0.0 < tour.length - bound <= 1.001 * touch_tolerance(4.0)
