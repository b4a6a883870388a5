"""Euclidean point-tour solvers.

Two solvers behind one config: a dynamic-programming exact oracle for
small instances (subset DP over vertex sets) and a nearest-neighbor +
2-opt heuristic for production sizes. Both take the points as a (n, 3)
array, emit closed tours over them and are deterministic for a fixed
input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SizeLimitError
from .geom import Tour, pairwise_sq_distances

# Hard cap on the exact solver: 2^13 subset table is the largest we allow.
EXACT_N_CEILING = 13


@dataclass(frozen=True)
class TspConfig:
    solver: str = "heuristic"
    exact_max_n: int = 12
    two_opt_max_passes: int = 50

    def __post_init__(self):
        if self.solver not in ("exact", "heuristic"):
            raise ContractError(f"unknown solver {self.solver!r}")
        if self.exact_max_n > EXACT_N_CEILING:
            raise ContractError(f"exact_max_n must be <= {EXACT_N_CEILING}")
        if self.two_opt_max_passes < 1:
            raise ContractError("two_opt_max_passes must be >= 1")


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    d = pairwise_sq_distances(pts, pts)
    return np.sqrt(d, out=d)


def exact_order(points: np.ndarray, exact_max_n: int = 12) -> list[int]:
    """Visiting order of the minimum-length closed tour (subset DP).

    Among equally-optimal tours the lexicographically smallest visiting
    order (by input index, starting at point 0) is returned.
    """
    n = len(points)
    if n > exact_max_n:
        raise SizeLimitError(f"exact solver capped at {exact_max_n} points, got {n}")
    if n == 0:
        return []
    if n == 1:
        return [0]
    if n == 2:
        return [0, 1]

    dist = _distance_matrix(points)
    full = 1 << n

    # g[mask, j] = shortest path starting at 0, visiting exactly the set
    # `mask` (which contains 0 and j), ending at j.
    g = np.full((full, n), np.inf)
    g[1 | (1 << 0), 0] = 0.0  # mask {0}, at 0
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(full):
        if mask & 1:
            masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
            members = [j for j in range(1, n) if mask & (1 << j)]
            for j in members:
                prev = mask ^ (1 << j)
                cand = g[prev, :] + dist[:, j]
                g[mask, j] = cand.min()

    full_mask = full - 1
    best = float((g[full_mask, 1:] + dist[1:, 0]).min())

    # Greedy lexicographic reconstruction validated against the optimum:
    # completion cost of (last -> rest -> 0) equals g over the reversed path.
    tol = 1e-9 * max(1.0, best)
    order = [0]
    used = 1
    cost = 0.0
    last = 0
    for _ in range(n - 1):
        remaining = [j for j in range(1, n) if not (used & (1 << j))]
        chosen = None
        for c in sorted(remaining):
            rest_mask = 0
            for j in remaining:
                if j != c:
                    rest_mask |= 1 << j
            completion = g[rest_mask | 1 | (1 << c), c]
            total = cost + dist[last, c] + completion
            if total <= best + tol:
                chosen = c
                break
        if chosen is None:  # numeric fallback: take the cheapest completion
            chosen = min(
                remaining,
                key=lambda c: cost
                + dist[last, c]
                + g[(sum(1 << j for j in remaining if j != c)) | 1 | (1 << c), c],
            )
        cost += dist[last, chosen]
        order.append(chosen)
        used |= 1 << chosen
        last = chosen
    return order


def exact_tour(points: np.ndarray, exact_max_n: int = 12) -> Tour:
    """Minimum-length closed tour by subset dynamic programming."""
    return Tour(waypoints=points[exact_order(points, exact_max_n=exact_max_n)], closed=True)


def _nearest_neighbor_order_from(dist: np.ndarray, start: int) -> list[int]:
    n = dist.shape[0]
    order = [start]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    cur = start
    for _ in range(n - 1):
        row = dist[cur].copy()
        row[visited] = np.inf
        cur = int(np.argmin(row))
        visited[cur] = True
        order.append(cur)
    return order


def _two_opt(order: list[int], dist: np.ndarray, max_passes: int) -> list[int]:
    """Sweep 2-opt on a closed tour; best reversal per anchor edge."""
    n = len(order)
    if n < 4:
        return order
    tour = np.array(order, dtype=int)
    for _ in range(max_passes):
        improved = False
        for i in range(n - 2):
            a, b = tour[i], tour[i + 1]
            # Candidate second edges (j, j+1), j > i+1; skip the wrap pair of i=0.
            j_hi = n - 1 if i > 0 else n - 2
            js = np.arange(i + 2, j_hi + 1)
            if js.size == 0:
                continue
            c = tour[js]
            d = tour[(js + 1) % n]
            delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
            k = int(np.argmin(delta))
            if delta[k] < -1e-12:
                j = int(js[k])
                tour[i + 1 : j + 1] = tour[i + 1 : j + 1][::-1]
                improved = True
        if not improved:
            break
    return [int(v) for v in tour]


def _or_opt(order: list[int], dist: np.ndarray, max_passes: int) -> list[int]:
    """Relocate short segments (length 1..3) to their best position.

    Complements 2-opt: segment relocation escapes local optima that pure
    edge reversal cannot. Deltas are evaluated incrementally.
    """
    n = len(order)
    if n < 5:
        return order
    tour = list(order)
    for _ in range(max_passes):
        improved = False
        for seg_len in (1, 2, 3):
            if n - seg_len < 3:
                continue
            i = 0
            while i < n:
                seg = [tour[(i + k) % n] for k in range(seg_len)]
                prev = tour[(i - 1) % n]
                nxt = tour[(i + seg_len) % n]
                if prev in seg or nxt in seg:
                    i += 1
                    continue
                remove_gain = dist[prev, seg[0]] + dist[seg[-1], nxt] - dist[prev, nxt]
                rest = [v for v in tour if v not in seg]
                ra = np.array(rest, dtype=int)
                rb = np.roll(ra, -1)
                ins_fwd = dist[ra, seg[0]] + dist[seg[-1], rb] - dist[ra, rb]
                ins_rev = dist[ra, seg[-1]] + dist[seg[0], rb] - dist[ra, rb]
                k_f = int(np.argmin(ins_fwd))
                k_r = int(np.argmin(ins_rev))
                best_ins, k, rev = (
                    (float(ins_fwd[k_f]), k_f, False)
                    if ins_fwd[k_f] <= ins_rev[k_r]
                    else (float(ins_rev[k_r]), k_r, True)
                )
                if best_ins - remove_gain < -1e-12:
                    placed = list(reversed(seg)) if rev else seg
                    tour = rest[: k + 1] + placed + rest[k + 1 :]
                    improved = True
                i += 1
        if not improved:
            break
    return tour


def _closed_length(order: list[int], dist: np.ndarray) -> float:
    idx = np.array(order, dtype=int)
    return float(dist[idx, np.roll(idx, -1)].sum())


# Above this size the heuristic drops multi-start and segment relocation;
# plain 2-opt is within a few percent there and much faster.
_INTENSIVE_SEARCH_MAX_N = 32


def heuristic_order(points: np.ndarray, config: TspConfig | None = None) -> list[int]:
    """Visiting order from nearest-neighbor + 2-opt / Or-opt local search.

    Small instances search several deterministic construction starts and
    add segment-relocation moves, keeping the gap to the exact optimum
    within a few percent; large instances use a single nearest-neighbor
    start with 2-opt sweeps. Output never beats the exact optimum and is
    reproducible for a fixed input order.
    """
    if config is None:
        config = TspConfig()
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return list(range(n))
    dist = _distance_matrix(points)

    if n <= 12:
        starts = list(range(n))
    elif n <= _INTENSIVE_SEARCH_MAX_N:
        starts = sorted({0, n // 4, n // 2, (3 * n) // 4})
    else:
        starts = [0]
    best_order: list[int] | None = None
    best_len = np.inf
    for s in starts:
        order = _nearest_neighbor_order_from(dist, s)
        order = _two_opt(order, dist, config.two_opt_max_passes)
        if n <= _INTENSIVE_SEARCH_MAX_N:
            order = _or_opt(order, dist, config.two_opt_max_passes)
            order = _two_opt(order, dist, config.two_opt_max_passes)
        length = _closed_length(order, dist)
        if length < best_len - 1e-12:
            best_len = length
            best_order = order
    assert best_order is not None
    # Canonical rotation: tours are cyclic, present them starting at point 0.
    z = best_order.index(0)
    return best_order[z:] + best_order[:z]


def heuristic_tour(points: np.ndarray, config: TspConfig | None = None) -> Tour:
    """Nearest-neighbor construction plus 2-opt / Or-opt local search."""
    return Tour(waypoints=points[heuristic_order(points, config)], closed=True)


def solve_order(points: np.ndarray, config: TspConfig) -> list[int]:
    """Visiting order from the configured solver."""
    if config.solver == "exact":
        return exact_order(points, exact_max_n=config.exact_max_n)
    return heuristic_order(points, config)


def solve_tour(points: np.ndarray, config: TspConfig) -> Tour:
    """Dispatch to the configured solver."""
    return Tour(waypoints=points[solve_order(points, config)], closed=True)
