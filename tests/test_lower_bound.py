"""Every planner's tour against the gap-MST lower bound.

A tour from the start touches each region within its reach of the center
(``oracles.reach_of``), so it is at least as long as the minimum spanning
tree over the start and the centers whose edges weigh the gaps between
reaches (``oracles.gap_mst_length``).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspn import Point3, Region, Sphere, TspConfig
from tspn.geom import touch_tolerance
from tspn.planner import DEFAULT_SAMPLES_PER_REGION, PLANNERS

from oracles import gap_mst_length, reach_of, scene_of
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


def test_a_straight_approach_meets_the_gap_mst():
    region = Region(Point3(10.0, 0.0, 0.0), Sphere(4.0))
    scene = scene_of([region])
    start = Point3(0.0, 0.0, 0.0)
    tour, _ = PLANNERS["center-visit"](start, scene, None, TspConfig(), DEFAULT_SAMPLES_PER_REGION)
    assert tour.waypoints.tolist() == [[0.0, 0.0, 0.0], [8.0, 0.0, 0.0]]
    # The bound reaches past the sphere by its touch tolerance (and the 1e-9 validation slack).
    assert 0.0 < tour.length - gap_bound(start, scene) <= 1.001 * touch_tolerance(region, 4.0)
