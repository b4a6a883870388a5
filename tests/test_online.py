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
    Shell,
    tour_length,
)
from tspn.planner import (
    SimulationOracle,
    center_visit,
    online_tour_lower_bound,
    plan_online,
)

from oracles import drawn_diameters, full_lattice_plan_online


def hollow_scene(centers, d_min, d_max):
    """Hollow balls (shells from d_min to d_max) at the given (id, Point3) centers."""
    return Scene(
        objects=tuple(
            SceneObject(id=oid, region=Region(center=c, shape=Shell(d_min, d_max)))
            for oid, c in centers
        ),
        d_min_global=d_min,
        d_max_global=d_max,
    )


def spread_centers(rng, n, d_min, d_max, cube=100.0):
    """A hollow-ball scene of n centers more than d_max apart, uniform in the cube."""
    centers = []
    while len(centers) < n:
        c = rng.uniform(0, cube, size=3)
        if all(np.linalg.norm(c - e) > d_max * 1.001 for e in centers):
            centers.append(c)
    return hollow_scene(
        [(f"obj-{i:03d}", Point3.from_array(c)) for i, c in enumerate(centers)], d_min, d_max
    )


def test_single_object_straight_approach():
    scene = hollow_scene([("a", Point3(10, 0, 0))], 4.0, 4.0)
    oracle = SimulationOracle(scene, [4.0])
    tour, outcomes = plan_online(Point3(0, 0, 0), scene, oracle)
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
    scene = spread_centers(rng, 8, d_min, d_max)
    oracle = SimulationOracle(scene, [d_max] * len(scene))
    start = Point3(0, 0, 0)
    tour, outcomes = plan_online(start, scene, oracle)
    offline = center_visit(start, scene)
    step = d_min / 10.0
    assert abs(tour_length(tour) - tour_length(offline)) <= step * len(scene) + 1e-6


def test_every_object_detected_across_seeds():
    rng = np.random.default_rng(5)
    d_min, d_max = 3.0, 5.0
    scene = spread_centers(rng, 12, d_min, d_max)
    for seed in range(6):
        oracle = SimulationOracle(scene, drawn_diameters(scene, seed))
        tour, outcomes = plan_online(Point3(0, 0, 0), scene, oracle)
        assert len(outcomes) == len(scene)
        detected_ids = {o.object_id for o in outcomes}
        assert detected_ids == {o.id for o in scene.objects}
        for o in outcomes:
            assert d_min <= o.realized_diameter <= d_max


def test_online_length_exceeds_packing_lower_bound():
    rng = np.random.default_rng(13)
    d_min, d_max = 5.4, 8.2
    scene = spread_centers(rng, 20, d_min, d_max)
    for seed in range(5):
        oracle = SimulationOracle(scene, drawn_diameters(scene, seed))
        tour, _ = plan_online(Point3(0, 0, 0), scene, oracle)
        assert tour_length(tour) >= online_tour_lower_bound(len(scene), d_min)


def test_larger_realized_diameters_never_lengthen_coupled_runs():
    rng = np.random.default_rng(21)
    d_min, d_max = 4.0, 8.0
    scene = spread_centers(rng, 10, d_min, d_max)
    step = d_min / 10.0
    for seed in range(5):
        base_rng = np.random.default_rng(seed)
        u = base_rng.uniform(size=len(scene))
        small = [d_min + ui * (d_max - d_min) * 0.5 for ui in u]
        large = [v + 0.5 * (d_max - v) for v in small]  # componentwise >= small
        t_small, _ = plan_online(Point3(0, 0, 0), scene, SimulationOracle(scene, small))
        t_large, _ = plan_online(Point3(0, 0, 0), scene, SimulationOracle(scene, large))
        slack = step * len(scene) + 1e-9
        assert tour_length(t_large) <= tour_length(t_small) + slack


def test_online_rejects_overlapping_outer_balls():
    scene = hollow_scene([("a", Point3(0, 0, 0)), ("b", Point3(3.0, 0, 0))], 2.0, 4.0)
    oracle = SimulationOracle(scene, drawn_diameters(scene, 0))
    with pytest.raises(ContractError):
        plan_online(Point3(-5, 0, 0), scene, oracle)


def test_online_degenerate_oracle_raises():
    scene = hollow_scene([("a", Point3(10, 0, 0))], 2.0, 4.0)

    def never_fires(object_id, position):
        return False

    with pytest.raises(DegenerateDetectionError):
        plan_online(Point3(0, 0, 0), scene, never_fires)


def test_oracle_without_realized_diameter_gets_the_clamped_estimate():
    rng = np.random.default_rng(17)
    d_min, d_max = 3.0, 5.0
    scene = spread_centers(rng, 12, d_min, d_max)
    diameters = drawn_diameters(scene, 6)
    radius = {o.id: d / 2.0 for o, d in zip(scene.objects, diameters)}
    center = {o.id: o.region.center.as_array() for o in scene.objects}

    def plain(object_id, position):
        return float(np.linalg.norm(position - center[object_id])) <= radius[object_id]

    _, outcomes = plan_online(Point3(0, 0, 0), scene, plain)
    _, known = plan_online(Point3(0, 0, 0), scene, SimulationOracle(scene, diameters))
    assert [o.detected_at.tolist() for o in outcomes] == [o.detected_at.tolist() for o in known]
    for o in outcomes:
        gap = float(np.linalg.norm(o.detected_at - center[o.object_id]))
        assert o.realized_diameter == min(max(2.0 * gap, d_min), d_max)


def test_online_deterministic_given_seed():
    rng = np.random.default_rng(33)
    scene = spread_centers(rng, 6, 3.0, 5.0)
    a1 = plan_online(Point3(0, 0, 0), scene, SimulationOracle(scene, drawn_diameters(scene, 4)))
    a2 = plan_online(Point3(0, 0, 0), scene, SimulationOracle(scene, drawn_diameters(scene, 4)))
    assert a1[0].waypoints.tolist() == a2[0].waypoints.tolist()


@pytest.mark.parametrize("centers, first", [
    # (b, c) are 3 m apart, (a, d) 3.5 m: c is the first row with an
    # earlier center within d_max.
    ([(0, 0, 0), (20, 0, 0), (20, 3, 0), (0, 3.5, 0)], "'b' and 'c'"),
    # (a, b) are 3.5 m apart, (c, d) 3 m: b is the first such row, though
    # (c, d) is the closer pair.
    ([(0, 0, 0), (3.5, 0, 0), (20, 0, 0), (20, 3, 0)], "'a' and 'b'"),
])
def test_close_centers_rejected_naming_the_first_pair_in_row_order(centers, first):
    scene = hollow_scene([(oid, Point3(*c)) for oid, c in zip("abcd", centers)], 2.0, 4.0)
    oracle = SimulationOracle(scene, [4.0] * len(scene))
    with pytest.raises(ContractError) as err:
        plan_online(Point3(0, 0, 0), scene, oracle)
    assert str(err.value) == (
        f"centers {first} closer than d_max; online planning assumes disjoint outer balls"
    )


def test_close_centers_tie_names_the_first_pair_in_input_order():
    scene = hollow_scene([("p", Point3(10, 0, 0)), ("q", Point3(0, 0, 0)),
                          ("r", Point3(10, 4, 0)), ("s", Point3(0, 4, 0))], 2.0, 4.0)
    oracle = SimulationOracle(scene, [4.0] * len(scene))
    with pytest.raises(ContractError, match="centers 'p' and 'r' closer than d_max"):
        plan_online(Point3(0, 0, 0), scene, oracle)


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
    scene = spread_centers(rng, n, d_min, d_max)
    if start_near:  # often inside the first ball, where the window starts at the leg's start
        start = Point3.from_array(scene.centers[0] + rng.normal(size=3) * d_max / 4.0)
    else:
        start = Point3.from_array(rng.uniform(0.0, 100.0, size=3))
    if sizes == "all d_max":
        diameters = [d_max] * n
    else:
        diameters = drawn_diameters(scene, seed)

    def oracle():
        return SimulationOracle(scene, diameters)

    counting = CountingOracle(oracle())
    tour, outcomes = plan_online(start, scene, counting)
    want_tour, want_outcomes = full_lattice_plan_online(start, scene, oracle())
    assert tour.waypoints.tolist() == want_tour.waypoints.tolist()
    assert tour.visits == want_tour.visits
    assert [(o.object_id, o.realized_diameter, o.detected_at.tolist()) for o in outcomes] == [
        (o.object_id, o.realized_diameter, o.detected_at.tolist()) for o in want_outcomes
    ]
    step = d_min / 10.0
    assert max(counting.polls.values()) <= math.ceil(d_max / (2.0 * step)) + 2
