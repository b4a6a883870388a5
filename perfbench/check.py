"""Output checks written independently of tspn.

Everything here works on plain numpy arrays and parsed JSON, so a defect
in the planner cannot hide itself by also breaking its own audit. A region
counts as touched when some trajectory *segment* reaches it, not only a
waypoint.
"""

from __future__ import annotations

import math

import numpy as np

# Constants of the paper's bounds, restated rather than imported.
COUNT_COEFF = 27.0 / 20.0
ONLINE_ALPHA = 0.4786
# Containment slack: exact solids get float noise, sampled boundaries a
# share of their d_min (the sampling resolution).
EXACT_SLACK = 1e-6
SAMPLED_SLACK = 0.05
LENGTH_RTOL = 1e-9


class CheckError(Exception):
    """An output that breaks a property the benchmark checks."""


def polyline_length(w: np.ndarray) -> float:
    if len(w) < 2:
        return 0.0
    return float(np.sqrt(((w[1:] - w[:-1]) ** 2).sum(axis=1)).sum())


def lower_estimate(n: int, d_min: float) -> float:
    """Inverted count bound: the shortest tour that could visit n disjoint regions."""
    return max(d_min * n / COUNT_COEFF - 2.0 * d_min, 0.0)


def segment_distances(w: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from each center to the nearest point of the polyline ``w``."""
    if len(w) == 1:
        return np.sqrt(((centers - w[0]) ** 2).sum(axis=1))
    a, d = w[:-1], w[1:] - w[:-1]
    dd = (d * d).sum(axis=1)
    dd_safe = np.where(dd > 0.0, dd, 1.0)
    out = np.empty(len(centers))
    for lo in range(0, len(centers), 64):
        c = centers[lo : lo + 64, None, :]
        t = np.clip(((c - a) * d).sum(axis=2) / dd_safe, 0.0, 1.0)
        gap = a + t[:, :, None] * d - c
        out[lo : lo + 64] = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
    return out


def check_trajectory(doc: dict, start: np.ndarray) -> np.ndarray:
    """Waypoints of a trajectory file, after checking its start and length_m."""
    w = np.asarray(doc["waypoints_m"], dtype=float).reshape(-1, 3)
    if len(w) == 0 or not np.all(np.isfinite(w)):
        raise CheckError("trajectory has no waypoints or a non-finite one")
    if not np.array_equal(w[0], start):
        raise CheckError(f"trajectory starts at {w[0].tolist()}, not at {start.tolist()}")
    length = polyline_length(w)
    if not math.isclose(float(doc["length_m"]), length, rel_tol=LENGTH_RTOL, abs_tol=1e-9):
        raise CheckError(f"length_m {doc['length_m']!r} but waypoints give {length!r}")
    return w


def check_touches_spheres(w: np.ndarray, centers: np.ndarray, radii: np.ndarray, d_min: float):
    gap = segment_distances(w, centers) - radii
    missed = np.nonzero(gap > EXACT_SLACK * d_min)[0]
    if missed.size:
        raise CheckError(f"{missed.size} sphere regions untouched, first index {int(missed[0])}")


def _sampled_touched(w: np.ndarray, center: np.ndarray, points: np.ndarray, slack: float) -> bool:
    rel = points - center
    radii = np.sqrt((rel * rel).sum(axis=1))
    dirs = rel / radii[:, None]
    r_lo, r_hi = float(radii.min()), float(radii.max()) + slack
    step = slack / 4.0
    for a, b in zip(w[:-1], w[1:]) if len(w) > 1 else [(w[0], w[0])]:
        d = b - a
        dd = float(d @ d)
        # Parameter interval of the segment inside the outer bounding ball.
        if dd == 0.0:
            ts = np.zeros(1)
        else:
            f = a - center
            half_b = float(f @ d) / dd
            disc = half_b * half_b - (float(f @ f) - r_hi * r_hi) / dd
            if disc < 0.0:
                continue
            t0, t1 = max(-half_b - math.sqrt(disc), 0.0), min(-half_b + math.sqrt(disc), 1.0)
            if t0 > t1:
                continue
            count = max(2, int(math.ceil((t1 - t0) * math.sqrt(dd) / step)) + 1)
            ts = np.append(np.linspace(t0, t1, count), np.clip(-half_b, t0, t1))
        p = a + ts[:, None] * d - center
        r = np.sqrt((p * p).sum(axis=1))
        if np.any(r <= r_lo + slack):
            return True
        u = p / np.maximum(r, 1e-300)[:, None]
        nearest = np.argmax(u @ dirs.T, axis=1)
        if np.any(r <= radii[nearest] + slack):
            return True
    return False


def check_touches_sampled(w: np.ndarray, regions: list[tuple[np.ndarray, np.ndarray, float]]):
    """Brute nearest-direction radial test along every segment near each region."""
    for i, (center, points, d_min) in enumerate(regions):
        if not _sampled_touched(w, center, points, SAMPLED_SLACK * d_min):
            raise CheckError(f"sampled region {i} untouched")


def check_count_bound(length: float, n: int, d_min: float):
    bound = COUNT_COEFF / d_min * (length + 2.0 * d_min)
    if n > bound:
        raise CheckError(f"count bound broken on a disjoint scene: {n} regions > {bound}")


def check_online(length: float, outcomes: list, centers: dict, radii: dict, d_min: float, d_max: float):
    lb = 0.25 * len(centers) * ONLINE_ALPHA * d_min
    if length < lb:
        raise CheckError(f"online tour {length} below the packing lower bound {lb}")
    if sorted(o["object_id"] for o in outcomes) != sorted(centers):
        raise CheckError("online outcomes do not cover every object exactly once")
    for o in outcomes:
        oid, realized = o["object_id"], float(o["realized_diameter_m"])
        if not (d_min <= realized <= d_max) or realized != 2.0 * radii[oid]:
            raise CheckError(f"{oid}: realized diameter {realized} is not the scene's")
        gap = float(np.linalg.norm(np.asarray(o["detected_at_m"], dtype=float) - centers[oid]))
        if gap > realized / 2.0 * (1.0 + 1e-12):
            raise CheckError(f"{oid}: detected {gap} m from its center, radius {realized / 2.0}")


def check_report(report: dict, length: float, disjoint: bool):
    """The program's own bound report must agree with the recomputed figures."""
    if not math.isclose(float(report["tour_length_m"]), length, rel_tol=LENGTH_RTOL, abs_tol=1e-9):
        raise CheckError(f"report length {report['tour_length_m']} but waypoints give {length}")
    if report["count_bound_applicable"] != disjoint:
        raise CheckError(f"report says count bound applicable={report['count_bound_applicable']}")
    if disjoint and report["count_bound_holds"] is not True:
        raise CheckError("report says the count bound fails on a disjoint scene")
