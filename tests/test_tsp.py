import hashlib
import math
import signal
import tracemalloc

import numpy as np
import pytest

from tspn import SizeLimitError, TspConfig
from tspn.geom import polyline_length
from tspn.tsp import (
    CANDIDATES,
    candidate_lists,
    exact_order,
    heuristic_order,
    local_search,
    nearest_neighbor_order,
    solve_order,
)

from oracles import (
    brute_force_tsp,
    bucketed_exact_order,
    dense_candidate_lists,
    dense_distance_matrix,
    dense_heuristic_order,
    dense_nearest_neighbor,
)


def as_points(arr):
    return np.asarray(arr, dtype=float)


UNIT_SQUARE = as_points([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])


def exact_length(pts):
    return polyline_length(pts[exact_order(pts)], closed=True)


def heuristic_length(pts):
    return polyline_length(pts[heuristic_order(pts)], closed=True)


def test_exact_unit_square():
    assert math.isclose(exact_length(UNIT_SQUARE), 4.0)


def test_exact_two_points():
    assert math.isclose(exact_length(as_points([[0, 0, 0], [3, 4, 0]])), 10.0)


def test_exact_empty_and_single():
    assert exact_length(np.empty((0, 3))) == 0.0
    assert exact_length(as_points([[1, 1, 1]])) == 0.0


def test_exact_size_guard():
    pts = as_points(np.random.default_rng(0).uniform(size=(13, 3)))
    with pytest.raises(SizeLimitError):
        exact_order(pts)


def test_exact_matches_permutation_search():
    rng = np.random.default_rng(42)
    for _ in range(5):
        arr = rng.uniform(size=(9, 3))
        assert math.isclose(exact_length(as_points(arr)), brute_force_tsp(arr), rel_tol=1e-9)


def exact_instances(rng, n):
    """Uniform points, integer-lattice points (many tied distances) and collinear points."""
    lattice = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    t = rng.choice(20, size=n, replace=False)[:, None]
    yield rng.uniform(-5.0, 5.0, size=(n, 3))
    yield lattice[rng.choice(len(lattice), size=n, replace=False)].astype(float)
    yield rng.uniform(-5.0, 5.0, size=3) + t * rng.normal(size=3)


def test_exact_matches_bucketed_oracle():
    # 13 sizes x 8 draws x 3 kinds = 312 instances.
    rng = np.random.default_rng(15)
    for n in range(13):
        for _ in range(8):
            for pts in exact_instances(rng, n):
                assert exact_order(pts) == bucketed_exact_order(pts)


def test_exact_is_permutation_of_input():
    rng = np.random.default_rng(1)
    arr = rng.uniform(size=(8, 3))
    pts = as_points(arr)
    assert sorted(map(tuple, pts[exact_order(pts)].tolist())) == sorted(
        map(tuple, arr.tolist())
    )


def test_heuristic_unit_square():
    assert math.isclose(heuristic_length(UNIT_SQUARE), 4.0)


def test_heuristic_collinear():
    pts = as_points([[i, 0, 0] for i in range(10)])
    assert math.isclose(heuristic_length(pts), 18.0)


def test_heuristic_within_5pct_of_exact_on_50_instances():
    rng = np.random.default_rng(2024)
    for k in range(50):
        arr = rng.uniform(size=(10, 3))
        pts = as_points(arr)
        h = heuristic_length(pts)
        e = exact_length(pts)
        assert h <= 1.05 * e + 1e-12, f"instance {k}: {h} vs exact {e}"
        assert h >= e - 1e-9


def test_heuristic_is_permutation_of_input():
    rng = np.random.default_rng(3)
    arr = rng.uniform(size=(40, 3))
    assert sorted(map(tuple, arr[heuristic_order(as_points(arr))].tolist())) == sorted(
        map(tuple, arr.tolist())
    )


def test_heuristic_deterministic():
    rng = np.random.default_rng(4)
    arr = rng.uniform(size=(30, 3))
    assert heuristic_order(as_points(arr)) == heuristic_order(as_points(arr))


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
    base_exact = exact_length(as_points(arr))
    base_heur = heuristic_length(as_points(arr))
    for _ in range(3):
        moved = _rigid(arr, rng)
        assert math.isclose(exact_length(as_points(moved)), base_exact, rel_tol=1e-9)
        assert math.isclose(heuristic_length(as_points(moved)), base_heur, rel_tol=1e-9)


def _closed_len(order, pts):
    return sum(math.dist(pts[order[i]], pts[order[(i + 1) % len(order)]]) for i in range(len(order)))


def _search_inputs(pts):
    return candidate_lists(pts, min(CANDIDATES, len(pts) - 1))


def test_two_opt_never_worse_than_nearest_neighbor():
    # Uniform, clustered and lattice (tie-heavy) inputs, on both sides of
    # the multi-start thresholds.
    rng = np.random.default_rng(8)
    cases = [rng.uniform(size=(n, 3)) for n in (5, 12, 25, 33, 120)]
    cases.append(np.repeat(rng.uniform(0, 50, size=(8, 3)), 15, axis=0) + rng.normal(size=(120, 3)))
    cases.append(rng.integers(0, 4, size=(90, 3)).astype(float))
    for pts in cases:
        cand, cand_d = _search_inputs(pts)
        start = nearest_neighbor_order(pts, cand, 0)
        improved = local_search(start, pts, cand, cand_d, 1e-12)
        assert sorted(improved) == list(range(len(pts)))
        assert _closed_len(improved, pts) <= _closed_len(start, pts) + 1e-9
        final = heuristic_order(pts)
        assert _closed_len(final, pts) <= _closed_len(start, pts) + 1e-9


def test_candidate_lists_match_dense_argsort():
    # Lattice points tie constantly and share x values across blocks; the
    # clustered points make the x window of a block grow several times.
    rng = np.random.default_rng(11)
    for n in (2, 3, 11, 40, 700):
        lattice = rng.integers(0, 5, size=(n, 3)).astype(float)
        uniform = rng.uniform(-3, 3, size=(n, 3))
        clustered = rng.normal(size=(n, 3)) * [0.1, 5.0, 5.0] + rng.choice([0.0, 3.0, 40.0], size=(n, 1))
        for pts in (lattice, uniform, clustered):
            for k in sorted({1, min(4, n - 1), min(CANDIDATES, n - 1)}):
                idx, d = candidate_lists(pts, k)
                want_idx, want_d = dense_candidate_lists(pts, k)
                assert idx.tolist() == want_idx.tolist(), (n, k)
                assert d.tolist() == want_d.tolist(), (n, k)


def test_nearest_neighbor_order_matches_dense_walk():
    # Lattice points make the candidate lists run dry and exercise the scan.
    rng = np.random.default_rng(12)
    for pts in (rng.uniform(size=(150, 3)), rng.integers(0, 4, size=(150, 3)).astype(float)):
        cand, _ = _search_inputs(pts)
        dist = dense_distance_matrix(pts)
        for start in (0, 77):
            assert nearest_neighbor_order(pts, cand, start) == dense_nearest_neighbor(dist, start)


@pytest.mark.parametrize("n", [3, 7, 12, 13, 32, 33, 200])
def test_heuristic_order_is_deterministic_permutation_from_zero(n):
    rng = np.random.default_rng(100 + n)
    pts = rng.uniform(0, 100, size=(n, 3))
    order = heuristic_order(pts)
    assert order[0] == 0
    assert sorted(order) == list(range(n))
    assert heuristic_order(pts.copy()) == order


def test_no_improving_two_opt_move_among_candidates():
    # The search stops at a local optimum: no 2-opt move that adds an edge
    # to a candidate closer than the tour edge it removes gains anything.
    rng = np.random.default_rng(13)
    for pts in (rng.uniform(0, 100, size=(300, 3)), rng.integers(0, 6, size=(200, 3)).astype(float)):
        order = heuristic_order(pts)
        cand = _search_inputs(pts)[0].tolist()
        n = len(order)
        pos = {v: i for i, v in enumerate(order)}
        for a in range(n):
            for step in (1, -1):
                b = order[(pos[a] + step) % n]
                d_ab = math.dist(pts[a], pts[b])
                for c in cand[a]:
                    d_ac = math.dist(pts[a], pts[c])
                    d = order[(pos[c] + step) % n]
                    if d_ac >= d_ab or c == b or d == a:
                        continue
                    gain = d_ab + math.dist(pts[c], pts[d]) - d_ac - math.dist(pts[b], pts[d])
                    assert gain <= 1e-9, (a, c, step, gain)


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_mean_length_within_half_percent_of_dense_heuristic(n):
    rng = np.random.default_rng(5000 + n)
    new = ref = 0.0
    for _ in range(20):
        pts = rng.uniform(0, 100, size=(n, 3))
        new += _closed_len(heuristic_order(pts), pts)
        ref += _closed_len(dense_heuristic_order(pts), pts)
    assert new <= 1.005 * ref, (new / 20, ref / 20)


def test_heuristic_order_memory_stays_below_dense_matrix():
    # A dense 5000 x 5000 float64 matrix alone is 200 MB.
    pts = np.random.default_rng(14).uniform(0, 300, size=(5000, 3))
    tracemalloc.start()
    try:
        order = heuristic_order(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(order) == list(range(5000))
    assert peak < 25 * 2**20, peak


def _degenerate_inputs():
    rng = np.random.default_rng(15)
    base = rng.uniform(0, 10, size=(6, 3))
    yield "duplicates", np.concatenate([base, base, base[:3]])
    yield "identical", np.full((9, 3), 2.5)
    yield "identical-40", np.full((40, 3), -1.0)
    yield "collinear", np.array([[float(i), 0.0, 0.0] for i in (5, 0, 9, 2, 7, 1, 8, 3, 6, 4)])
    yield "collinear-duplicates", np.array([[float(i % 4), 2 * float(i % 4), 0.0] for i in range(50)])
    for n in range(6):
        yield f"n={n}", rng.uniform(0, 10, size=(n, 3))


def test_heuristic_order_degenerate_inputs():
    for name, pts in _degenerate_inputs():
        order = heuristic_order(pts)
        n = len(pts)
        assert sorted(order) == list(range(n)), name
        assert order[:1] == [0][:n], name
        assert heuristic_order(pts) == order, name
        if name == "collinear":
            assert math.isclose(_closed_len(order, pts), 18.0), name
        if name.startswith("identical"):
            assert _closed_len(order, pts) == 0.0, name
        if 0 < n <= 5:
            assert math.isclose(_closed_len(order, pts), _closed_len(exact_order(pts), pts)), name


def test_solve_order_dispatch():
    pts = UNIT_SQUARE
    for solver in ("exact", "heuristic"):
        assert math.isclose(polyline_length(pts[solve_order(pts, TspConfig(solver))], closed=True), 4.0)


def test_config_validation():
    with pytest.raises(Exception):
        TspConfig(solver="annealing")


# SHA-256 of heuristic_order's output, as comma-separated indices, recorded
# before Or-opt moves were applied as reversals. Between them the instances
# apply Or-opt moves of 1-3 points on both sides of the segment, in both
# orientations; n = 4, 5, 6 sit next to or-opt's size guard, and the grid
# instance ties distances constantly.
ORDER_PINS = {
    "uniform-4": "f5d6a7e59f87f89176b7218781fca506e6037fc9bb6ad1ac584ca6f8a3fc0c7e",
    "uniform-5": "fa6c43f6af13955f596a6ecb1fd16dc8b1cf95beb88ca68e59c6acde291e524e",
    "uniform-6": "fd5bd691032d8a80531a40dfa68bcfd59a84f2a2291d515f4978c222a335d277",
    "uniform-13": "54b8fa38262e4c67c76f2f0bce00ce0ce23d9f64daacc83a0197620cab07d900",
    "uniform-33": "15d1a745d7c4b2ef01ebffd468f2498e61e385a9ad87ce80183d0d990103355c",
    "uniform-200": "8f70b4e50fc5293cd60eaca9dfbce71cd4ff2c048ab4ac00e3dd94dc02409d5e",
    "uniform-1000": "ed278b1af41ee501ed77d7fe6c26d4996dfa59ae8487b3b09680b12955829e0b",
    "uniform-10000": "24a0b285be962f0be8d863db2bbf034a84ff9a7224607cce400ce436614af0da",
    "grid-400": "d86ebf5c47e0417fd2a0a7edd06a4a5a797d63d69c1a3fda0fd459c17d30ced1",
    # 100 distinct points, each about four times over: zero-length tour edges.
    "repeat-400": "d193112b2b2a945f2c808a012af84d475bfa7d39249002964781ae5dec13c00e",
    # One line in space: every move gain is a near-cancelling sum.
    "line-300": "0bef5973416e0982ede166e16feacd9ca0363a72384ae617fff9018f62d43f61",
}


def _pinned_instance(name):
    kind, n = name.split("-")
    n = int(n)
    if kind == "grid":
        return np.round(np.random.default_rng(7).uniform(0.0, 200.0, size=(n, 3)) / 10.0) * 10.0
    rng = np.random.default_rng(n)
    if kind == "repeat":
        base = rng.uniform(0.0, 1000.0, size=(n // 4, 3))
        return base[rng.integers(0, n // 4, size=n)]
    if kind == "line":
        return np.array([3.0, -7.0, 11.0]) + rng.uniform(0.0, 1000.0, size=(n, 1)) * np.array([0.6, 0.3, -0.2])
    return rng.uniform(0.0, 1000.0, size=(n, 3))


# The largest pin takes about a second. A search that keeps finding "improving"
# moves, as it does when local_search's kept edge lengths go stale, fails at
# this limit instead of stalling the suite.
PIN_SECONDS = 60.0


def _pin_timed_out(signum, frame):
    raise TimeoutError


@pytest.mark.parametrize("name", ORDER_PINS)
def test_heuristic_order_pinned(name):
    points, order = _pinned_instance(name), None
    previous = signal.signal(signal.SIGALRM, _pin_timed_out)
    signal.setitimer(signal.ITIMER_REAL, PIN_SECONDS)
    try:
        order = heuristic_order(points)
    except TimeoutError:
        pass  # failed below, clear of a traceback taken mid-search
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert order is not None, f"heuristic_order ran past {PIN_SECONDS:g} s"
    assert hashlib.sha256(",".join(map(str, order)).encode()).hexdigest() == ORDER_PINS[name]
