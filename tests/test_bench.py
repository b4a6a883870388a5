import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspn import CapacityError, Point3, Tour, tour_length
from tspn.bench import (
    AGG_CSV_HEADER,
    ROWS_CSV_HEADER,
    SceneConfig,
    generate_scene,
    report_aggregates_csv,
    report_rows_csv,
    run_comparison,
    scene_from_json,
    scene_to_json,
    tour_from_json,
    tour_to_json,
)
from tspn.errors import ContractError
from tspn.geom import Visit
from tspn.planner import center_visit, plan_nondisjoint_detailed
from tspn.tsp import TspConfig


CAR = dict(d_min=5.4, d_max=8.2)


def test_generate_empty_scene():
    scene = generate_scene(SceneConfig(n_objects=0, seed=1, **CAR))
    assert len(scene) == 0


def test_generate_scene_deterministic_serialization():
    cfg = SceneConfig(n_objects=25, seed=7, **CAR)
    a = scene_to_json(generate_scene(cfg))
    b = scene_to_json(generate_scene(cfg))
    assert a == b


def test_disjoint_scene_pairwise_distances_exceed_d_max():
    scene = generate_scene(SceneConfig(n_objects=100, seed=3, disjoint=True, **CAR))
    centers = np.array([o.region.center.as_array() for o in scene.objects])
    n = len(centers)
    for i in range(n):
        for j in range(i + 1, n):
            assert np.linalg.norm(centers[i] - centers[j]) > 8.2


def test_diameters_within_bounds_and_seeded():
    scene = generate_scene(SceneConfig(n_objects=40, seed=11, **CAR))
    for obj in scene.objects:
        assert 5.4 <= obj.region.d_max <= 8.2
    again = generate_scene(SceneConfig(n_objects=40, seed=11, **CAR))
    assert [o.region.d_max for o in scene.objects] == [o.region.d_max for o in again.objects]


def test_packing_capacity_error_names_achieved_count():
    cfg = SceneConfig(n_objects=500, d_min=8.0, d_max=9.0, cube_edge=20.0, seed=5)
    with pytest.raises(CapacityError) as err:
        generate_scene(cfg)
    assert err.value.placed > 0
    assert str(err.value.placed) in str(err.value)


def test_nondisjoint_scene_has_overlaps():
    from tspn.planner import scene_is_disjoint

    cfg = SceneConfig(
        n_objects=20, seed=9, disjoint=False, overlap_rate=0.4, **CAR
    )
    scene = generate_scene(cfg)
    assert len(scene) == 20
    assert not scene_is_disjoint(scene)


def test_scene_json_roundtrip():
    scene = generate_scene(SceneConfig(n_objects=12, seed=21, **CAR))
    text = scene_to_json(scene)
    doc = json.loads(text)
    assert set(doc) == {"cube_edge_m", "d_min_m", "d_max_m", "objects"}
    assert doc["objects"][0]["shape"]["kind"] == "sphere"
    back = scene_from_json(text)
    assert scene_to_json(back) == text


def test_tour_json_roundtrip():
    scene = generate_scene(SceneConfig(n_objects=8, seed=2, **CAR))
    tour = center_visit(Point3(0, 0, 0), scene, TspConfig())
    text = tour_to_json(tour)
    back = tour_from_json(text)
    assert math.isclose(tour_length(back), tour_length(tour), rel_tol=1e-12)
    assert tour_to_json(back) == text


@pytest.mark.parametrize("kind", ["overlapping", "one-waypoint", "empty"])
def test_tour_json_text_roundtrip(kind):
    if kind == "overlapping":
        scene = generate_scene(SceneConfig(n_objects=12, disjoint=False, overlap_rate=0.5,
                                           seed=6, **CAR))
        tour = plan_nondisjoint_detailed(Point3(1.5, -2.0, 0.25), scene, TspConfig()).tour
    elif kind == "one-waypoint":
        tour = center_visit(Point3(1.5, -2.0, 0.25), generate_scene(SceneConfig(0, **CAR)))
    else:
        tour = Tour(waypoints=np.empty((0, 3)))
    text = tour_to_json(tour)
    assert tour_to_json(tour_from_json(text)) == text


# Finite floats of every size, and the values where float formatting has edge cases.
COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
                     2.0**52, 2.0**52 + 1.0, -(2.0**53) + 2.0, 0.1, 1.0 / 3.0]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=40),
       ids=st.lists(st.text(max_size=6), max_size=4))
@example(rows=[], ids=[])
@example(rows=[(-0.0, 5e-324, 1e300)], ids=['"q"', "\\", "\u00e9\u6c34", "\n"])
@example(rows=[(2.0**52, -(2.0**52) - 2.0, 1e-300)] * 3, ids=["a", "a"])
def test_tour_json_equals_the_indented_json_encoder(rows, ids):
    waypoints = np.array(rows, dtype=float).reshape(-1, 3)
    visits = [Visit(s, k % len(waypoints)) for k, s in enumerate(ids)] if len(waypoints) else []
    tour = Tour(waypoints=waypoints, visits=visits)
    with np.errstate(over="ignore"):  # lengths over 1e300-scale coordinates overflow to inf
        doc = {
            "length_m": tour_length(tour),
            "waypoints_m": waypoints.tolist(),
            "visits": [{"object_id": v.object_id, "waypoint_index": v.waypoint_index}
                       for v in visits],
        }
        assert tour_to_json(tour) == json.dumps(doc, indent=2) + "\n"


def test_single_cell_report():
    cfg = SceneConfig(n_objects=6, seed=4, **CAR)
    report = run_comparison([cfg], ["center-visit"], seeds=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.method == "center-visit" and row.valid and row.length_m > 0


def test_aggregate_mean_matches_rows():
    cfg = SceneConfig(n_objects=10, seed=40, **CAR)
    report = run_comparison([cfg], ["center-visit", "online"], seeds=4)
    for agg in report.aggregates:
        rows = [r for r in report.rows if r.method == agg.method]
        assert math.isclose(agg.mean_length_m, sum(r.length_m for r in rows) / len(rows),
                            rel_tol=1e-12)
        assert len(rows) == 4


def test_report_lengths_deterministic_across_runs():
    cfg = SceneConfig(n_objects=8, seed=15, **CAR)
    r1 = run_comparison([cfg], ["center-visit", "alpha-fat", "online"], seeds=2)
    r2 = run_comparison([cfg], ["center-visit", "alpha-fat", "online"], seeds=2)
    assert [(r.method, r.seed, r.length_m) for r in r1.rows] == [
        (r.method, r.seed, r.length_m) for r in r2.rows
    ]


def test_every_row_passed_coverage_audit():
    cfg = SceneConfig(n_objects=12, seed=33, **CAR)
    report = run_comparison([cfg], ["center-visit", "alpha-fat", "online"], seeds=3)
    assert not report.has_invalid_rows
    assert all(r.valid for r in report.rows)


def test_csv_headers_and_shape():
    cfg = SceneConfig(n_objects=5, seed=77, **CAR)
    report = run_comparison([cfg], ["center-visit"], seeds=2)
    rows_csv = report_rows_csv(report)
    agg_csv = report_aggregates_csv(report)
    assert rows_csv.splitlines()[0] == ",".join(ROWS_CSV_HEADER)
    assert agg_csv.splitlines()[0] == ",".join(AGG_CSV_HEADER)
    assert len(rows_csv.splitlines()) == 3
    assert len(agg_csv.splitlines()) == 2


def test_unknown_method_rejected():
    cfg = SceneConfig(n_objects=3, seed=1, **CAR)
    with pytest.raises(ContractError):
        run_comparison([cfg], ["simulated-annealing"], seeds=1)


def test_config_validation():
    with pytest.raises(ContractError):
        SceneConfig(n_objects=-1, **CAR)
    with pytest.raises(ContractError):
        SceneConfig(n_objects=5, d_min=0.0, d_max=2.0)
    with pytest.raises(ContractError):
        SceneConfig(n_objects=5, d_min=2.0, d_max=1.0)
    with pytest.raises(ContractError):
        SceneConfig(n_objects=5, d_min=5.0, d_max=200.0)
    with pytest.raises(ContractError):
        SceneConfig(n_objects=5, overlap_rate=1.5, **CAR)
    with pytest.raises(ContractError, match="applies only to non-disjoint scenes"):
        SceneConfig(n_objects=5, disjoint=True, overlap_rate=0.3, **CAR)
    SceneConfig(n_objects=5, disjoint=False, overlap_rate=0.3, **CAR)
