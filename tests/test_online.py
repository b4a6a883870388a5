import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspn import (
    ContractError,
    DegenerateDetectionError,
    Point3,
    Region,
    Scene,
    SceneObject,
    Sphere,
    TspConfig,
    tour_length,
)
from tspn.planner import (
    SimulationOracle,
    center_visit,
    online_tour_lower_bound,
    plan_online,
)

from oracles import full_lattice_plan_online


def spread_centers(rng, n, d_max, cube=100.0):
    centers = []
    while len(centers) < n:
        c = rng.uniform(0, cube, size=3)
        if all(np.linalg.norm(c - e) > d_max * 1.001 for e in centers):
            centers.append(c)
    return [(f"obj-{i:03d}", Point3.from_array(c)) for i, c in enumerate(centers)]


def test_single_object_straight_approach():
    centers = [("a", Point3(10, 0, 0))]
    oracle = SimulationOracle(centers, 4.0, 4.0, diameters={"a": 4.0})
    tour, outcomes = plan_online(Point3(0, 0, 0), centers, 4.0, 4.0, oracle)
    step = 4.0 / 10.0
    assert abs(tour_length(tour) - 8.0) <= step + 1e-9
    assert len(outcomes) == 1
    assert outcomes[0].object_id == "a"
    assert outcomes[0].realized_diameter == 4.0
    # detected position lies inside the realized ball
    assert math.dist(outcomes[0].detected_at, (10, 0, 0)) <= 2.0 + 1e-9


def test_all_max_diameters_matches_offline_center_visit():
    rng = np.random.default_rng(0)
    d_min, d_max = 4.0, 6.0
    centers = spread_centers(rng, 8, d_max)
    oracle = SimulationOracle(centers, d_min, d_max, diameters={oid: d_max for oid, _ in centers})
    start = Point3(0, 0, 0)
    cfg = TspConfig()
    tour, outcomes = plan_online(start, centers, d_min, d_max, oracle, cfg)
    scene = Scene(
        objects=tuple(
            SceneObject(id=oid, region=Region(center=c, shape=Sphere(d_max)))
            for oid, c in centers
        ),
        d_min_global=d_max,
        d_max_global=d_max,
    )
    offline = center_visit(start, scene, cfg)
    step = d_min / 10.0
    assert abs(tour_length(tour) - tour_length(offline)) <= step * len(centers) + 1e-6


def test_every_object_detected_across_seeds():
    rng = np.random.default_rng(5)
    d_min, d_max = 3.0, 5.0
    centers = spread_centers(rng, 12, d_max)
    for seed in range(6):
        oracle = SimulationOracle(centers, d_min, d_max, seed=seed)
        tour, outcomes = plan_online(Point3(0, 0, 0), centers, d_min, d_max, oracle)
        assert len(outcomes) == len(centers)
        detected_ids = {o.object_id for o in outcomes}
        assert detected_ids == {oid for oid, _ in centers}
        for o in outcomes:
            assert d_min <= o.realized_diameter <= d_max


def test_online_length_exceeds_packing_lower_bound():
    rng = np.random.default_rng(13)
    d_min, d_max = 5.4, 8.2
    centers = spread_centers(rng, 20, d_max)
    for seed in range(5):
        oracle = SimulationOracle(centers, d_min, d_max, seed=seed)
        tour, _ = plan_online(Point3(0, 0, 0), centers, d_min, d_max, oracle)
        assert tour_length(tour) >= online_tour_lower_bound(len(centers), d_min)


def test_larger_realized_diameters_never_lengthen_coupled_runs():
    rng = np.random.default_rng(21)
    d_min, d_max = 4.0, 8.0
    centers = spread_centers(rng, 10, d_max)
    step = d_min / 10.0
    for seed in range(5):
        base_rng = np.random.default_rng(seed)
        u = base_rng.uniform(size=len(centers))
        small = {oid: d_min + ui * (d_max - d_min) * 0.5 for (oid, _), ui in zip(centers, u)}
        large = {
            oid: v + 0.5 * (d_max - v) for oid, v in small.items()
        }  # componentwise >= small
        t_small, _ = plan_online(
            Point3(0, 0, 0), centers, d_min, d_max,
            SimulationOracle(centers, d_min, d_max, diameters=small),
        )
        t_large, _ = plan_online(
            Point3(0, 0, 0), centers, d_min, d_max,
            SimulationOracle(centers, d_min, d_max, diameters=large),
        )
        slack = step * len(centers) + 1e-9
        assert tour_length(t_large) <= tour_length(t_small) + slack


def test_online_rejects_overlapping_outer_balls():
    centers = [("a", Point3(0, 0, 0)), ("b", Point3(3.0, 0, 0))]
    oracle = SimulationOracle(centers, 2.0, 4.0, seed=0)
    with pytest.raises(ContractError):
        plan_online(Point3(-5, 0, 0), centers, 2.0, 4.0, oracle)


def test_online_degenerate_oracle_raises():
    centers = [("a", Point3(10, 0, 0))]

    def never_fires(object_id, position):
        return False

    with pytest.raises(DegenerateDetectionError):
        plan_online(Point3(0, 0, 0), centers, 2.0, 4.0, never_fires)


def test_online_deterministic_given_seed():
    rng = np.random.default_rng(33)
    centers = spread_centers(rng, 6, 5.0)
    a1 = plan_online(
        Point3(0, 0, 0), centers, 3.0, 5.0, SimulationOracle(centers, 3.0, 5.0, seed=4)
    )
    a2 = plan_online(
        Point3(0, 0, 0), centers, 3.0, 5.0, SimulationOracle(centers, 3.0, 5.0, seed=4)
    )
    assert a1[0].waypoints.tolist() == a2[0].waypoints.tolist()


def test_close_centers_rejected_naming_the_closest_pair():
    # (b, c) are 3 m apart, (a, d) 3.5 m: both within d_max, (b, c) is closest.
    centers = [("a", Point3(0, 0, 0)), ("b", Point3(20, 0, 0)),
               ("c", Point3(20, 3, 0)), ("d", Point3(0, 3.5, 0))]
    oracle = SimulationOracle(centers, 2.0, 4.0, diameters={oid: 4.0 for oid, _ in centers})
    with pytest.raises(ContractError) as err:
        plan_online(Point3(0, 0, 0), centers, 2.0, 4.0, oracle)
    assert str(err.value) == (
        "centers 'b' and 'c' closer than d_max; online planning assumes disjoint outer balls"
    )


def test_close_centers_tie_names_the_first_pair_in_input_order():
    centers = [("p", Point3(10, 0, 0)), ("q", Point3(0, 0, 0)),
               ("r", Point3(10, 4, 0)), ("s", Point3(0, 4, 0))]
    oracle = SimulationOracle(centers, 2.0, 4.0, diameters={oid: 4.0 for oid, _ in centers})
    with pytest.raises(ContractError, match="centers 'p' and 'r' closer than d_max"):
        plan_online(Point3(0, 0, 0), centers, 2.0, 4.0, oracle)


class CountingOracle:
    """Wraps an oracle and counts its polls per object."""

    def __init__(self, inner):
        self.inner = inner
        self.polls = Counter()

    def __call__(self, object_id, position):
        self.polls[object_id] += 1
        return self.inner(object_id, position)

    def realized_diameter(self, object_id):
        return self.inner.realized_diameter(object_id)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.floats(0.5, 6.0),
    st.floats(1.0, 3.0),
    st.sampled_from(["drawn", "all d_max"]),
    st.booleans(),
)
def test_poll_window_matches_full_lattice_reference(seed, n, d_min, spread, sizes, start_near):
    rng = np.random.default_rng(seed)
    d_max = d_min * spread
    centers = spread_centers(rng, n, d_max)
    if start_near:  # often inside the first ball, where the window starts at the leg's start
        start = Point3.from_array(centers[0][1].as_array() + rng.normal(size=3) * d_max / 4.0)
    else:
        start = Point3.from_array(rng.uniform(0.0, 100.0, size=3))
    diameters = {oid: d_max for oid, _ in centers} if sizes == "all d_max" else None

    def oracle():
        return SimulationOracle(centers, d_min, d_max, seed=seed, diameters=diameters)

    counting = CountingOracle(oracle())
    tour, outcomes = plan_online(start, centers, d_min, d_max, counting)
    want_tour, want_outcomes = full_lattice_plan_online(start, centers, d_min, d_max, oracle())
    assert tour.waypoints.tolist() == want_tour.waypoints.tolist()
    assert tour.visits == want_tour.visits
    assert [(o.object_id, o.realized_diameter, o.detected_at.tolist()) for o in outcomes] == [
        (o.object_id, o.realized_diameter, o.detected_at.tolist()) for o in want_outcomes
    ]
    step = d_min / 10.0
    assert max(counting.polls.values()) <= math.ceil(d_max / (2.0 * step)) + 2
