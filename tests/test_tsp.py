import math

import numpy as np
import pytest

from tspn import SizeLimitError, TspConfig, exact_tour, heuristic_tour, solve_tour
from tspn.geom import tour_length

from oracles import brute_force_tsp


def as_points(arr):
    return np.asarray(arr, dtype=float)


UNIT_SQUARE = as_points([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])


def test_exact_unit_square():
    t = exact_tour(UNIT_SQUARE)
    assert math.isclose(tour_length(t), 4.0)


def test_exact_two_points():
    t = exact_tour(as_points([[0, 0, 0], [3, 4, 0]]))
    assert math.isclose(tour_length(t), 10.0)


def test_exact_empty_and_single():
    assert tour_length(exact_tour(np.empty((0, 3)))) == 0.0
    assert tour_length(exact_tour(as_points([[1, 1, 1]]))) == 0.0


def test_exact_size_guard():
    pts = as_points(np.random.default_rng(0).uniform(size=(13, 3)))
    with pytest.raises(SizeLimitError):
        exact_tour(pts, exact_max_n=12)


def test_exact_matches_permutation_search():
    rng = np.random.default_rng(42)
    for _ in range(5):
        arr = rng.uniform(size=(9, 3))
        t = exact_tour(as_points(arr))
        assert math.isclose(tour_length(t), brute_force_tsp(arr), rel_tol=1e-9)


def test_exact_is_permutation_of_input():
    rng = np.random.default_rng(1)
    arr = rng.uniform(size=(8, 3))
    pts = as_points(arr)
    t = exact_tour(pts)
    assert sorted(map(tuple, t.waypoints.tolist())) == sorted(
        map(tuple, arr.tolist())
    )


def test_heuristic_unit_square():
    t = heuristic_tour(UNIT_SQUARE, TspConfig())
    assert math.isclose(tour_length(t), 4.0)


def test_heuristic_collinear():
    pts = as_points([[i, 0, 0] for i in range(10)])
    t = heuristic_tour(pts, TspConfig())
    assert math.isclose(tour_length(t), 18.0)


def test_heuristic_within_5pct_of_exact_on_50_instances():
    rng = np.random.default_rng(2024)
    cfg = TspConfig()
    for k in range(50):
        arr = rng.uniform(size=(10, 3))
        pts = as_points(arr)
        h = tour_length(heuristic_tour(pts, cfg))
        e = tour_length(exact_tour(pts))
        assert h <= 1.05 * e + 1e-12, f"instance {k}: {h} vs exact {e}"
        assert h >= e - 1e-9


def test_heuristic_is_permutation_of_input():
    rng = np.random.default_rng(3)
    arr = rng.uniform(size=(40, 3))
    t = heuristic_tour(as_points(arr), TspConfig())
    assert sorted(map(tuple, t.waypoints.tolist())) == sorted(
        map(tuple, arr.tolist())
    )


def test_heuristic_deterministic():
    rng = np.random.default_rng(4)
    arr = rng.uniform(size=(30, 3))
    cfg = TspConfig()
    t1 = heuristic_tour(as_points(arr), cfg)
    t2 = heuristic_tour(as_points(arr), cfg)
    assert t1.waypoints.tolist() == t2.waypoints.tolist()


def _rigid(arr, rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return arr @ rot.T + rng.uniform(-5, 5, size=3)


def test_solvers_rigid_invariance():
    rng = np.random.default_rng(6)
    arr = rng.uniform(size=(9, 3))
    base_exact = tour_length(exact_tour(as_points(arr)))
    base_heur = tour_length(heuristic_tour(as_points(arr), TspConfig()))
    for _ in range(3):
        moved = _rigid(arr, rng)
        assert math.isclose(tour_length(exact_tour(as_points(moved))), base_exact, rel_tol=1e-9)
        assert math.isclose(
            tour_length(heuristic_tour(as_points(moved), TspConfig())), base_heur, rel_tol=1e-9
        )


def test_two_opt_never_worse_than_nearest_neighbor():
    from tspn.tsp import _distance_matrix, _nearest_neighbor_order_from, _two_opt

    rng = np.random.default_rng(8)
    arr = rng.uniform(size=(25, 3))
    dist = _distance_matrix(arr)
    order = _nearest_neighbor_order_from(dist, 0)

    def closed_len(o):
        return sum(dist[o[i], o[(i + 1) % len(o)]] for i in range(len(o)))

    nn_len = closed_len(order)
    prev = nn_len
    for passes in (1, 2, 5, 50):
        improved = _two_opt(list(order), dist, passes)
        cur = closed_len(improved)
        assert cur <= prev + 1e-12
        prev = cur


def test_solve_tour_dispatch():
    pts = UNIT_SQUARE
    assert math.isclose(tour_length(solve_tour(pts, TspConfig(solver="exact"))), 4.0)
    assert math.isclose(tour_length(solve_tour(pts, TspConfig(solver="heuristic"))), 4.0)


def test_config_validation():
    with pytest.raises(Exception):
        TspConfig(solver="annealing")
    with pytest.raises(Exception):
        TspConfig(exact_max_n=14)
    with pytest.raises(Exception):
        TspConfig(two_opt_max_passes=0)
