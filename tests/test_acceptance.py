"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import csv
import math
import time

import numpy as np

from tspn import Point3, Region, Scene, SceneObject, Sphere, TspConfig, tour_length
from tspn.bench import SceneConfig, generate_scene, run_comparison
from tspn.cli import main as cli_main
from tspn.geom import regions_intersect
from tspn.planner import (
    ONLINE_PACKING_ALPHA,
    REGION_COUNT_COEFF,
    SimulationOracle,
    build_detour,
    center_visit,
    detour_length_limit,
    maximal_independent_set,
    missed_objects,
    online_tour_lower_bound,
    plan_nondisjoint_detailed,
    plan_online,
    region_count_bound,
)
from tspn.geom import polyline_length
from tspn.tsp import exact_order, heuristic_order
from tspn.viewscore import GrayImage, ObjectMask, edge_orientation_histogram, viewing_score

from oracles import drawn_diameters, manual_sobel, sampled_tspn_optimum
from test_viewscore import uniform_orientation_image

CAR = dict(d_min=5.4, d_max=8.2)


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_benchmark_ratio():
    t0 = time.monotonic()
    cfg = SceneConfig(n_objects=100, cube_edge=100.0, disjoint=True, seed=1000, **CAR)
    report = run_comparison([cfg], ["center-visit", "alpha-fat"], seeds=10)
    elapsed = time.monotonic() - t0
    cv = report.mean_length("center-visit", 100)
    af = report.mean_length("alpha-fat", 100)
    assert not report.has_invalid_rows
    assert cv <= 0.70 * af, f"ratio {cv / af:.4f} exceeds 0.70"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"mean lengths {cv:.1f} vs {af:.1f} m, ratio {cv / af:.3f} <= 0.70, "
               f"{elapsed:.1f}s < 60s")


def test_criterion_2_runtime_ordering():
    results = {}
    for n, seeds in ((100, 10), (250, 5)):
        cfg = SceneConfig(n_objects=n, cube_edge=100.0, disjoint=True, seed=5000 + n, **CAR)
        report = run_comparison([cfg], ["center-visit", "alpha-fat"], seeds=seeds)
        cv = report.mean_runtime("center-visit", n)
        af = report.mean_runtime("alpha-fat", n)
        assert cv < af, f"n={n}: center-visit {cv:.4f}s not faster than alpha-fat {af:.4f}s"
        results[n] = (cv, af)
    _report(2, "center-visit faster at both sizes: "
               + ", ".join(f"n={n}: {c:.3f}s < {a:.3f}s" for n, (c, a) in results.items()))


def test_criterion_3_tsp_oracle_gap():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        pts = rng.uniform(size=(10, 3))
        h = polyline_length(pts[heuristic_order(pts)], closed=True)
        e = polyline_length(pts[exact_order(pts)], closed=True)
        worst = max(worst, h / e)
        assert h <= 1.05 * e + 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(3, f"worst heuristic/exact ratio {worst:.4f} <= 1.05 over 50 instances, "
               f"{elapsed:.1f}s < 10s")


def _disjoint_scene(rng, n, d_min, d_max, cube):
    centers = []
    while len(centers) < n:
        c = rng.uniform(0, cube, size=3)
        if all(np.linalg.norm(c - e) > d_max for e in centers):
            centers.append(c)
    objs = [
        SceneObject(
            id=f"obj-{i:03d}",
            region=Region(center=Point3.from_array(c), shape=Sphere(float(rng.uniform(d_min, d_max)))),
        )
        for i, c in enumerate(centers)
    ]
    return Scene(objects=tuple(objs), d_min_global=d_min, d_max_global=d_max, cube_edge=cube)


def test_criterion_4_center_visit_factor_audit():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        scene = _disjoint_scene(rng, 5, 4.0, 7.0, cube=60.0)
        start = Point3(0, 0, 0)
        tour = center_visit(start, scene, TspConfig())
        centers = np.array([o.region.center.as_array() for o in scene.objects])
        radii = np.array([o.region.d_max / 2.0 for o in scene.objects])
        opt = sampled_tspn_optimum(start.as_array(), centers, radii, n_samples=200)
        factor = (REGION_COUNT_COEFF * scene.d_max_global / scene.d_min_global + 1.0) * 1.10
        ratio = tour_length(tour) / opt
        worst = max(worst, ratio / factor)
        assert tour_length(tour) <= factor * opt + 1e-9
    _report(4, f"20 scenes of 5 spheres: worst length/limit fraction {worst:.3f} <= 1")


def test_criterion_5_count_bound_sweep():
    checked = 0
    for n in (10, 50, 100):
        for k in range(10):
            cfg = SceneConfig(n_objects=n, cube_edge=100.0, disjoint=True,
                              seed=31_000 + n * 100 + k, **CAR)
            scene = generate_scene(cfg)
            tour = center_visit(Point3(0, 0, 0), scene, TspConfig())
            bound = region_count_bound(scene.d_min_global, tour_length(tour))
            assert n <= bound, f"n={n} seed {k}: bound {bound:.2f} violated"
            checked += 1
    _report(5, f"count bound held on all {checked} disjoint scenes (n in (10, 50, 100))")


def test_criterion_6_detour_bound_and_coverage():
    rng = np.random.default_rng(66)
    worst_ratio = 0.0
    neighbors_checked = 0
    for _ in range(20):
        d = float(rng.uniform(2.0, 7.0))
        owner_d = d * float(rng.uniform(1.0, 1.35))
        center = rng.uniform(-20, 20, size=3)
        owner = Region(center=Point3.from_array(center), shape=Sphere(owner_d))
        plan = build_detour(owner, d)
        limit = detour_length_limit(owner_d, d) * 1.05
        assert plan.length <= limit
        worst_ratio = max(worst_ratio, plan.length / limit)
        pts = plan.stitched
        seg_a, seg_b = pts[:-1], pts[1:]
        ab = seg_b - seg_a
        denom = np.sum(ab * ab, axis=1)
        denom[denom == 0] = 1.0
        n_balls = int(rng.integers(5, 11))
        for _ in range(n_balls):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            ball_c = center + (owner_d / 2.0) * u
            rho = 0.5 * d * float(rng.uniform(1.0, 1.3))
            t = np.clip(np.sum((ball_c - seg_a) * ab, axis=1) / denom, 0.0, 1.0)
            dmin = float(np.min(np.linalg.norm(seg_a + t[:, None] * ab - ball_c, axis=1)))
            assert dmin <= rho + 1e-9, "stitched path missed a boundary ball"
            neighbors_checked += 1
    _report(6, f"20 detours: all within 1.05x budget (worst {worst_ratio:.3f}), "
               f"{neighbors_checked} boundary balls all intersected")


def test_criterion_7_mis_properties_and_coverage():
    patched = 0
    for k in range(100):
        cfg = SceneConfig(n_objects=14, cube_edge=100.0, disjoint=False,
                          overlap_rate=0.35, seed=90_000 + k, **CAR)
        scene = generate_scene(cfg)
        res = maximal_independent_set(scene)
        by_id = {o.id: o for o in scene.objects}
        kept = [by_id[i] for i in res.kept]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not regions_intersect(kept[i].region, kept[j].region)
        for removed, keeper in res.assignment.items():
            assert regions_intersect(by_id[removed].region, by_id[keeper].region)
        assert set(res.kept) | set(res.assignment) == {o.id for o in scene.objects}
        detail = plan_nondisjoint_detailed(Point3(0, 0, 0), scene, TspConfig())
        assert missed_objects(detail.tour, scene) == []
        patched += len(detail.patched_ids)
    _report(7, f"100 non-disjoint scenes: MIS invariants held, 100% coverage "
               f"({patched} patch visits across all scenes)")


def test_criterion_8_online_lower_bound():
    rng = np.random.default_rng(88)
    d_min, d_max = CAR["d_min"], CAR["d_max"]
    centers = []
    while len(centers) < 50:
        c = rng.uniform(0, 100, size=3)
        if all(np.linalg.norm(c - e) > d_max * 1.0001 for e in centers):
            centers.append(c)
    centers = [(f"obj-{i:03d}", Point3.from_array(c)) for i, c in enumerate(centers)]
    lb = online_tour_lower_bound(50, d_min)
    assert math.isclose(lb, 0.25 * 50 * ONLINE_PACKING_ALPHA * d_min)
    shortest = np.inf
    for seed in range(20):
        oracle = SimulationOracle(centers, drawn_diameters(centers, d_min, d_max, seed))
        tour, outcomes = plan_online(Point3(0, 0, 0), centers, d_min, d_max, oracle)
        assert len(outcomes) == 50
        assert {o.object_id for o in outcomes} == {oid for oid, _ in centers}
        length = tour_length(tour)
        shortest = min(shortest, length)
        assert length >= lb
    _report(8, f"20 online runs of 50 objects: min length {shortest:.1f} m >= bound {lb:.1f} m, "
               f"all detections complete")


def test_criterion_9_viewing_score_fixtures():
    # constant image -> exactly zero
    flat = GrayImage.from_array(np.full((16, 16), 42.0))
    mask = ObjectMask.from_array(np.ones((16, 16), dtype=bool))
    assert viewing_score(flat, mask) == 0.0

    # uniform orientations, full-frame mask -> ln 360
    img = uniform_orientation_image()
    full = ObjectMask.from_array(np.ones((img.height, img.width), dtype=bool))
    s_full = viewing_score(img, full, edge_fraction=0.99)
    assert abs(s_full - math.log(360.0)) < 1e-9

    # half mask -> exactly half the score
    bits = np.zeros((img.height, img.width), dtype=bool)
    bits[:, : img.width // 2] = True
    s_half = viewing_score(img, ObjectMask.from_array(bits), edge_fraction=0.99)
    assert abs(s_half - 0.5 * s_full) <= 1e-12 * s_full

    # 5x5 hand-computed gradient fixture, bin for bin
    arr = np.zeros((5, 5))
    for r in range(5):
        for c in range(5):
            if r + c >= 5:
                arr[r, c] = 100.0
    expected_gradients = {
        (1, 1): (0.0, 0.0), (1, 2): (100.0, 100.0), (1, 3): (300.0, 300.0),
        (2, 1): (100.0, 100.0), (2, 2): (300.0, 300.0), (2, 3): (300.0, 300.0),
        (3, 1): (300.0, 300.0), (3, 2): (300.0, 300.0), (3, 3): (100.0, 100.0),
    }
    for r, c, gx, gy in manual_sobel(arr):
        assert (gx, gy) == expected_gradients[(r, c)]
    hist = edge_orientation_histogram(GrayImage.from_array(arr), edge_fraction=0.1)
    want = np.zeros(360, dtype=int)
    want[45] = 8
    assert np.array_equal(hist.bins, want)
    _report(9, f"score fixtures exact: 0.0, ln360={s_full:.6f}, half={s_half:.6f}, "
               f"5x5 histogram bin-for-bin")


def test_criterion_10_cli_determinism(tmp_path):
    scenes = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        assert cli_main(["gen-scene", "--n", "15", "--dmin", "5.4", "--dmax", "8.2",
                         "--disjoint", "--seed", "7", "--out", str(path)]) == 0
        scenes.append(path.read_bytes())
    assert scenes[0] == scenes[1]

    trajs = []
    for name in ("t1.json", "t2.json"):
        path = tmp_path / name
        assert cli_main(["plan", "--scene", str(tmp_path / "s1.json"), "--start", "0,0,0",
                         "--seed", "7", "--out", str(path)]) == 0
        trajs.append(path.read_bytes())
    assert trajs[0] == trajs[1]

    reports = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert cli_main(["compare", "--profile", "car", "--n", "8", "--seeds", "2",
                         "--seed", "11", "--out", str(path)]) == 0
        with open(path) as f:
            rows = [row[:4] for row in csv.reader(f)]  # runtime column excluded
        reports.append(rows)
    assert reports[0] == reports[1]
    _report(10, "gen-scene, plan and compare artifacts byte-identical across runs "
                "(runtime fields excluded)")
