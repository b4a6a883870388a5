"""Euclidean point-tour solvers.

Two solvers behind one config: a dynamic-programming exact oracle for
small instances (subset DP over vertex sets) and, for every size, a
nearest-neighbour start improved by 2-opt and Or-opt over k-nearest
candidate lists with don't-look bits (Bentley, "Fast algorithms for
geometric traveling salesman problems", ORSA J. Comput. 1992). Only the
exact oracle builds an n x n distance matrix. Both take the points as a
(n, 3) array, return the visiting order of a closed tour over them and
are deterministic for a fixed input order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SizeLimitError
from .geom import pairwise_sq_distances, polyline_length

# Cap on the exact solver: its subset table has 2^n rows.
EXACT_MAX_N = 12


@dataclass(frozen=True)
class TspConfig:
    solver: str = "heuristic"

    def __post_init__(self):
        if self.solver not in ("exact", "heuristic"):
            raise ContractError(f"unknown solver {self.solver!r}")


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    d = pairwise_sq_distances(pts, pts)
    return np.sqrt(d, out=d)


def exact_order(points: np.ndarray) -> list[int]:
    """Visiting order of the minimum-length closed tour (Held & Karp subset DP).

    Among equally-optimal tours the lexicographically smallest visiting
    order (by input index, starting at point 0) is returned.
    """
    n = len(points)
    if n > EXACT_MAX_N:
        raise SizeLimitError(f"exact solver capped at {EXACT_MAX_N} points, got {n}")
    if n <= 2:
        return list(range(n))

    dist = _distance_matrix(points)
    full = 1 << n
    bits = 1 << np.arange(n)
    # g[mask, j] = shortest path starting at 0, visiting exactly the set
    # `mask` (which contains 0 and j), ending at j. Ascending odd masks
    # reach every subset before its supersets.
    g = np.full((full, n), np.inf)
    g[1, 0] = 0.0
    for mask in range(3, full, 2):
        js = np.flatnonzero(mask & bits)[1:]
        g[mask, js] = (g[mask ^ bits[js]] + dist[:, js].T).min(axis=1)
    best = float((g[full - 1, 1:] + dist[1:, 0]).min())

    # Greedy lexicographic reconstruction validated against the optimum:
    # the completion (c -> the rest of ``left`` -> 0) costs g[left | 1, c].
    tol = 1e-9 * max(1.0, best)
    order = [0]
    left = full - 2
    cost = 0.0
    while left:
        last = order[-1]
        totals = [(cost + dist[last, c] + g[left | 1, c], c) for c in range(1, n) if left >> c & 1]
        # The lowest index that completes an optimal tour; failing that
        # (numeric fallback), the cheapest completion.
        chosen = next((c for total, c in totals if total <= best + tol), min(totals)[1])
        cost += dist[last, chosen]
        order.append(chosen)
        left ^= 1 << chosen
    return order


# Candidate-list size: each point keeps its k nearest neighbours.
CANDIDATES = 10
# Rows per block of the candidate search.
_CANDIDATE_ROWS = 64


def candidate_lists(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each point's k nearest other points.

    Rows are sorted by distance, ties broken by the lower index. Points
    are taken in order of x, in blocks of rows, and each block's squared
    distances go only to a window of x-neighbours around it. The window
    grows until, for every row, the first points left and right of it are
    farther in x alone than the row's k-th distance, so nothing outside
    can be a candidate or a tie. Memory stays O(block * n).
    """
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    xs = pts[:, 0]
    idx = np.empty((n, k), dtype=np.intp)
    d2k = np.empty((n, k))
    radius = 0.0
    for lo in range(0, n, _CANDIDATE_ROWS):
        hi = min(n, lo + _CANDIDATE_ROWS)
        rows = np.arange(hi - lo)
        w_lo, w_hi = max(0, lo - k), min(n, hi + k)
        while True:
            # Widen the window to every point within ``radius`` in x.
            w_lo = min(w_lo, int(np.searchsorted(xs, xs[lo] - radius, "left")))
            w_hi = max(w_hi, int(np.searchsorted(xs, xs[hi - 1] + radius, "right")))
            d2 = pairwise_sq_distances(pts[lo:hi], pts[w_lo:w_hi])
            d2[rows, lo - w_lo + rows] = np.inf
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            left_clear = w_lo == 0 or bool(np.all((xs[lo:hi] - xs[w_lo - 1]) ** 2 > kth))
            if left_clear and (w_hi == n or bool(np.all((xs[w_hi] - xs[lo:hi]) ** 2 > kth))):
                break
            # The window's k-th distances bound the true ones from above.
            radius = max(2.0 * radius, float(np.sqrt(kth.max())) * (1.0 + 1e-9))
        # The next block is a neighbour in x: start it a little past this
        # block's reach, which on uniform points rarely needs a retry.
        radius = 1.25 * float(np.sqrt(kth.max()))
        # Everything up to the k-th smallest distance, ties at it included;
        # sorted by (row, distance, index), then the first k of each row.
        r, c = np.nonzero(d2 <= kth[:, None])
        dr = d2[r, c]
        c = order[w_lo + c]
        keep = np.lexsort((c, dr, r))[(np.searchsorted(r, rows)[:, None] + np.arange(k)).ravel()]
        idx[order[lo:hi]] = c[keep].reshape(-1, k)
        d2k[order[lo:hi]] = dr[keep].reshape(-1, k)
    return idx, np.sqrt(d2k, out=d2k)


def nearest_neighbor_order(points: np.ndarray, cand: np.ndarray, start: int) -> list[int]:
    """Nearest-neighbour tour from ``start``, walking the candidate lists.

    When every candidate of the current point is visited, the unvisited
    points are scanned instead. Ties go to the lower index either way.
    """
    n = len(points)
    near = cand.tolist()
    # The list answers the walk's per-point lookups; the array masks the scan.
    seen = [False] * n
    visited = np.zeros(n, dtype=bool)
    order = [start]
    seen[start] = visited[start] = True
    cur = start
    for _ in range(n - 1):
        for nxt in near[cur]:
            if not seen[nxt]:
                break
        else:
            d2 = pairwise_sq_distances(points[cur : cur + 1], points)[0]
            d2[visited] = np.inf
            nxt = int(np.argmin(d2))
        seen[nxt] = visited[nxt] = True
        order.append(nxt)
        cur = nxt
    return order


def local_search(
    order: list[int], points: np.ndarray, cand: np.ndarray, cand_dist: np.ndarray, eps: float
) -> list[int]:
    """2-opt and Or-opt over candidate lists, driven by don't-look bits.

    A point is examined when it is queued: 2-opt removes one of its two
    tour edges, Or-opt moves a segment of 1-3 points that it starts, and
    either move is tried only with candidates closer than the length it
    gives up. The first improving move is applied and the endpoints of
    every changed edge are queued again. When the queue runs dry after
    moves were made, every point is queued once more, so the result is a
    local optimum of both neighbourhoods. A move counts only if it
    shortens the tour by more than ``eps``. The tour is a list of point
    indices plus its inverse, the position of each point.
    """
    n = len(order)
    tour = list(order)
    pos = [0] * n
    for i, v in enumerate(tour):
        pos[v] = i
    # The next and previous position of each position, looked up rather
    # than computed with ``% n``.
    nxt = list(range(1, n)) + [0]
    prv = [n - 1] + list(range(n - 1))
    near = [list(zip(c, d)) for c, d in zip(cand.tolist(), cand_dist.tolist())]
    xyz = [tuple(p) for p in points.tolist()]
    dist = math.dist
    queue: deque[int] = deque()
    queued = [False] * n

    def push(*cities: int) -> None:
        for v in cities:
            if not queued[v]:
                queued[v] = True
                queue.append(v)

    def reverse(i: int, j: int) -> None:
        # Reverse cyclic positions i..j, or the complement if that is shorter:
        # both leave the same cycle.
        m = (j - i) % n + 1
        if 2 * m > n:
            i, j, m = nxt[j], prv[i], n - m
        for _ in range(m // 2):
            u, v = tour[i], tour[j]
            tour[i] = v
            pos[v] = i
            tour[j] = u
            pos[u] = j
            i = nxt[i]
            j = prv[j]

    def two_opt(a: int) -> bool:
        i = pos[a]
        pa = xyz[a]
        for step in (nxt, prv):
            b = tour[step[i]]
            pb = xyz[b]
            d_ab = dist(pa, pb)
            for c, d_ac in near[a]:
                if d_ac >= d_ab:
                    break
                j = pos[c]
                d = tour[step[j]]
                if c == b or d == a:
                    continue
                pd = xyz[d]
                if d_ac + dist(pb, pd) - d_ab - dist(xyz[c], pd) < -eps:
                    if step is nxt:
                        reverse(nxt[i], j)  # b..c
                    else:
                        reverse(j, prv[i])  # c..b
                    push(b, c, d)
                    return True
        return False

    def move_segment(s: int, seg: tuple[int, ...], u: int) -> None:
        # Move the segment that starts at position s to just after point u,
        # in the order ``seg``, shifting whichever side between them is shorter.
        length = len(seg)
        j = pos[u]
        ahead = (j - s - length + 1) % n
        behind = n - length - ahead
        if ahead <= behind:
            for t in range(ahead):
                v = tour[(s + length + t) % n]
                k = (s + t) % n
                tour[k] = v
                pos[v] = k
            base = s + ahead
        else:
            for t in range(behind - 1, -1, -1):
                v = tour[(j + 1 + t) % n]
                k = (j + 1 + t + length) % n
                tour[k] = v
                pos[v] = k
            base = j + 1
        for t, v in enumerate(seg):
            k = (base + t) % n
            tour[k] = v
            pos[v] = k

    def or_opt(a: int) -> bool:
        # Segments of 1-3 points that start at a, reinserted next to a
        # candidate of either end, in either orientation.
        i = pos[a]
        i1 = nxt[i]
        i2 = nxt[i1]
        p = tour[prv[i]]
        pp = xyz[p]
        for seg, q in (((a,), tour[i1]), ((a, tour[i1]), tour[i2]), ((a, tour[i1], tour[i2]), tour[nxt[i2]])):
            if n < len(seg) + 3:
                break
            last = seg[-1]
            pq = xyz[q]
            gain = dist(pp, xyz[a]) + dist(xyz[last], pq) - dist(pp, pq)
            if gain <= eps:
                continue
            for e, other in ((a, last), (last, a)) if last != a else ((a, a),):
                po = xyz[other]
                for c, d_ec in near[e]:
                    if d_ec >= gain:
                        break
                    if c in seg:
                        continue
                    j = pos[c]
                    pc = xyz[c]
                    for step in (nxt, prv):
                        dn = tour[step[j]]
                        if dn in seg:
                            continue
                        pdn = xyz[dn]
                        if d_ec + dist(po, pdn) - dist(pc, pdn) - gain < -eps:
                            # Whichever of c and dn comes first is followed
                            # by its new neighbour in the segment.
                            if (a == e) != (step is nxt):
                                seg = seg[::-1]
                            move_segment(i, seg, c if step is nxt else dn)
                            push(p, q, a, last, c, dn)
                            return True
        return False

    moved = True
    while moved:
        moved = False
        push(*tour)
        while queue:
            a = queue.popleft()
            while two_opt(a) or or_opt(a):
                moved = True
            queued[a] = False
    return tour


def heuristic_order(points: np.ndarray) -> list[int]:
    """Visiting order from a nearest-neighbour start and candidate-list local search.

    Each point keeps its ``CANDIDATES`` nearest neighbours; the start tour
    walks those lists and ``local_search`` improves it with 2-opt and
    Or-opt until neither finds a move. Small instances try several starts:
    every point up to 12 points, four up to 32. No n x n array is built.
    Output never beats the exact optimum, begins at point 0 and is
    reproducible for a fixed input order.
    """
    n = len(points)
    if n <= 2:
        return list(range(n))
    points = np.asarray(points, dtype=float)
    k = min(CANDIDATES, n - 1)
    cand, cand_dist = candidate_lists(points, k)
    # Well above the rounding error of a four-distance delta at this
    # coordinate scale, so no move can undo another.
    eps = 1e-12 * max(1.0, float(np.abs(points).max()))

    if n <= 12:
        starts = list(range(n))
    elif n <= 32:
        starts = sorted({0, n // 4, n // 2, (3 * n) // 4})
    else:
        starts = [0]
    best_order: list[int] | None = None
    best_len = np.inf
    for s in starts:
        start = nearest_neighbor_order(points, cand, s)
        order = local_search(start, points, cand, cand_dist, eps)
        length = polyline_length(points[order], closed=True)
        if length < best_len - 1e-12:
            best_len = length
            best_order = order
    assert best_order is not None
    # Canonical rotation: tours are cyclic, present them starting at point 0.
    z = best_order.index(0)
    return best_order[z:] + best_order[:z]


def solve_order(points: np.ndarray, config: TspConfig) -> list[int]:
    """Visiting order from the configured solver."""
    if config.solver == "exact":
        return exact_order(points)
    return heuristic_order(points)
