import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspn import (
    CapacityError, InvalidRegionError, Point3, Region, Sampled, Scene, SceneObject, Tour, tour_length,
)
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
from tspn.errors import ECHO_CHARS, ContractError
from tspn.geom import Visit
from tspn.planner import center_visit, fibonacci_sphere, plan_nondisjoint_detailed
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
# Signed zeros compare equal, so a format cache keyed by value, not by bits, writes one for the other.
@example(rows=[(0.0, 2.5, -0.0), (-0.0, 2.5, 0.0), (0.0, -2.5, 1.0 / 3.0)] * 7, ids=["z"])
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


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=40),
       ids=st.lists(st.text(max_size=6), max_size=4))
@example(rows=[(0.0, -0.0, 5e-324), (-0.0, 0.0, -5e-324)] * 5, ids=["a", "b"])
def test_tour_json_round_trips_waypoint_bits_and_visits(rows, ids):
    waypoints = np.array(rows, dtype=float).reshape(-1, 3)
    visits = tuple(Visit(s, k % len(waypoints)) for k, s in enumerate(ids)) if len(waypoints) else ()
    tour = Tour(waypoints=waypoints, visits=visits)
    with np.errstate(over="ignore"):  # lengths over 1e300-scale coordinates overflow to inf
        back = tour_from_json(tour_to_json(tour))
    assert back.waypoints.shape == waypoints.shape
    assert back.waypoints.view(np.int64).tolist() == waypoints.view(np.int64).tolist()
    assert back.visits == visits


def _three_sphere_scene() -> dict:
    return json.loads(scene_to_json(generate_scene(SceneConfig(n_objects=3, seed=2, d_min=4.0, d_max=6.0))))


def _sampled(center) -> dict:
    """A valid sampled shape: 20 points on a 2.5 m sphere about ``center``."""
    dirs = fibonacci_sphere(20)
    return {"kind": "sampled", "points_m": (np.array(center) + 2.5 * dirs).tolist(),
            "normals": dirs.tolist(), "d_min_m": 4.0, "d_max_m": 6.0}


def _waypoints_doc(row) -> str:
    return json.dumps({"length_m": 0.0, "waypoints_m": [[0.0, 0.0, 0.0], row, [1.0, 2.0, 3.0]],
                       "visits": []})


# Rows that np.array(dtype=float) converts, or that fail only one part of the block
# check, with the echo _point gives each. Every one must be refused with that echo.
BAD_ROWS = [
    ([0.5, "1.5", 1.0], 'expected 3 numbers, got [0.5, "1.5", 1.0]'),
    ([0.5, True, 1.0], "expected 3 numbers, got [0.5, true, 1.0]"),
    ([0.5, None, 1.0], "expected 3 numbers, got [0.5, null, 1.0]"),
    ([0.5, 10**400, 1.0], f"expected 3 finite numbers, got [0.5, {10**400}, 1.0]"),
    ([0.5, -(10**309), 1], f"expected 3 finite numbers, got [0.5, {-(10**309)}, 1]"),
    ([float("nan"), 0.0, 1.0], "expected 3 finite numbers, got [NaN, 0.0, 1.0]"),
    ([0.5, 1.0, float("inf")], "expected 3 finite numbers, got [0.5, 1.0, Infinity]"),
    ([0.0, float("-inf"), 1.0], "expected 3 finite numbers, got [0.0, -Infinity, 1.0]"),
    ([0.5, 1.0], "expected 3 numbers, got [0.5, 1.0]"),
    ([0.5, 1.0, 2.0, 3.0], "expected 3 numbers, got [0.5, 1.0, 2.0, 3.0]"),
    ([0.5, [1.0], 2.0], "expected 3 numbers, got [0.5, [1.0], 2.0]"),
    ([[0.5, 1.0, 2.0]], "expected 3 numbers, got [[0.5, 1.0, 2.0]]"),
    ("0.5", 'expected 3 numbers, got "0.5"'),
    ({"x": 0.5, "y": 1.0, "z": 2.0}, 'expected 3 numbers, got {"x": 0.5, "y": 1.0, "z": 2.0}'),
    (1.5, "expected 3 numbers, got 1.5"),
]
BAD_ROW_IDS = ["string", "bool", "null", "int-overflow", "negative-int-overflow", "nan", "inf", "-inf",
               "length-2", "length-4", "nested-element", "nested-row", "string-row", "object-row",
               "number-row"]


@pytest.mark.parametrize("row, echo", BAD_ROWS, ids=BAD_ROW_IDS)
def test_point_blocks_refuse_what_numpy_would_convert(row, echo):
    with pytest.raises(ContractError) as err:
        tour_from_json(_waypoints_doc(row))
    assert str(err.value) == f"waypoints_m[1]: {echo}"
    doc = _three_sphere_scene()
    doc["objects"][1]["center_m"] = row
    with pytest.raises(ContractError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == f"objects[1].center_m: {echo}"
    for key in ("points_m", "normals"):
        doc = _three_sphere_scene()
        shape = doc["objects"][2]["shape"] = _sampled(doc["objects"][2]["center_m"])
        shape[key][7] = row
        with pytest.raises(ContractError) as err:
            scene_from_json(json.dumps(doc))
        assert str(err.value) == f"objects[2].shape.{key}[7]: {echo}"


def _visits_doc(faults: dict) -> str:
    visits = [{"object_id": f"v{i}", "waypoint_index": i % 3} for i in range(6)]
    for i, entry in faults.items():
        visits[i] = entry
    return json.dumps({"length_m": 0.0, "waypoints_m": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                       "visits": visits})


@pytest.mark.parametrize("faults, message", [
    ({3: {"object_id": "c", "waypoint_index": "1"}}, 'visits[3].waypoint_index: expected an integer, got "1"'),
    ({3: {"waypoint_index": 1}}, "visits[3].object_id: missing"),
    ({5: ["v5", 2]}, "visits[5].object_id: missing"),
    ({4: {"object_id": "e"}}, "visits[4].waypoint_index: missing"),
    # The earliest faulty entry is named, and within it object_id first.
    ({2: {"object_id": 7, "waypoint_index": 1.0}, 4: ["x"]}, "visits[2].object_id: expected a string, got 7"),
    ({1: {"object_id": "b", "waypoint_index": True}, 3: {"object_id": None}},
     "visits[1].waypoint_index: expected an integer, got true"),
    ({5: {"object_id": None, "waypoint_index": 0}, 4: {"object_id": "e", "waypoint_index": None}},
     "visits[4].waypoint_index: expected an integer, got null"),
])
def test_a_later_faulty_visit_is_named_as_the_walk_names_it(faults, message):
    with pytest.raises(ContractError) as err:
        tour_from_json(_visits_doc(faults))
    assert str(err.value) == message


def test_integer_coordinates_load_as_their_floats():
    # Integers within the float range are numbers; they load as float() gives them.
    tour = tour_from_json(_waypoints_doc([1, -(2**60) - 1, 0]))
    assert tour.waypoints.dtype == np.float64
    assert tour.waypoints[1].tolist() == [1.0, float(-(2**60) - 1), 0.0]
    doc = _three_sphere_scene()
    doc["objects"][1]["center_m"] = [round(c) for c in doc["objects"][1]["center_m"]]
    assert scene_from_json(json.dumps(doc)).centers[1].tolist() == doc["objects"][1]["center_m"]


@pytest.mark.parametrize("faults, message", [
    # The earliest faulty object is named, whatever its fault.
    ({0: ("shape", {"kind": "sphere", "diameter_m": None}), 2: ("center_m", [1.0, 2.0])},
     "objects[0].shape.diameter_m: expected a number, got null"),
    ({0: ("shape", {"kind": "sphere", "diameter_m": -1}), 2: ("center_m", [1.0, "2"])},
     "objects[0] ('obj-000'): sphere diameter must be positive, got -1.0"),
    ({1: ("shape", {"kind": "cone"}), 2: ("id", 5)}, "objects[1].shape.kind: unknown shape kind 'cone'"),
    ({1: ("center_m", None), 2: ("id", None)}, "objects[1].center_m: expected 3 numbers, got null"),
    # Within one object, the id is read first.
    ({1: ("id", 7), 2: ("center_m", [1.0])}, "objects[1].id: expected a string, got 7"),
], ids=["shape-before-center", "region-before-center", "kind-before-id", "center-before-id",
        "id-before-center"])
def test_scene_load_names_the_first_fault_in_document_order(faults, message):
    doc = _three_sphere_scene()
    for index, (key, value) in faults.items():
        doc["objects"][index][key] = value
    with pytest.raises((ContractError, InvalidRegionError)) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == message
    # An object with a bad id and a bad center reports the id.
    doc["objects"][0]["id"], doc["objects"][0]["center_m"] = 7, [0.0, "x", 0.0]
    with pytest.raises(ContractError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == "objects[0].id: expected a string, got 7"


@pytest.mark.parametrize("entry, message", [
    ([1.0, 2.0, 3.0], "objects[1].id: missing"),
    ("obj-001", "objects[1].id: missing"),
    ({"id": "obj-001", "shape": {"kind": "sphere", "diameter_m": 5.0}}, "objects[1].center_m: missing"),
    ({"id": "obj-001", "center_m": [50.0, 50.0, 50.0]}, "objects[1].shape: missing"),
], ids=["list", "string", "no-center", "no-shape"])
def test_scene_entry_that_is_no_object_or_lacks_a_field_is_named(entry, message):
    doc = _three_sphere_scene()
    doc["objects"][1] = entry
    with pytest.raises(ContractError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == message


def _echoed(value) -> str:
    text = json.dumps(value)
    return text[:ECHO_CHARS] + "…"


def test_echoed_values_are_cut_to_a_bounded_prefix():
    zeros = [0] * 100_000
    doc = _three_sphere_scene()
    doc["objects"][0]["center_m"] = zeros
    cases = [(json.dumps(doc), "objects[0].center_m: expected 3 numbers, got ")]
    doc = _three_sphere_scene()
    doc["objects"][1]["id"] = zeros
    cases.append((json.dumps(doc), "objects[1].id: expected a string, got "))
    doc = _three_sphere_scene()
    doc["objects"][2]["shape"]["diameter_m"] = zeros
    cases.append((json.dumps(doc), "objects[2].shape.diameter_m: expected a number, got "))
    for text, head in cases:
        with pytest.raises(ContractError) as err:
            scene_from_json(text)
        assert str(err.value) == head + _echoed(zeros)
    with pytest.raises(ContractError) as err:
        tour_from_json(_waypoints_doc(zeros))
    assert str(err.value) == "waypoints_m[1]: expected 3 numbers, got " + _echoed(zeros)
    doc = _three_sphere_scene()
    doc["objects"][2]["shape"]["kind"] = "x" * 10_000
    with pytest.raises(ContractError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == "objects[2].shape.kind: unknown shape kind '" + "x" * (ECHO_CHARS - 1) + "…"
    # A value whose echo fits is echoed whole.
    fits = [0.25] * (ECHO_CHARS // 6)  # "[" + "0.25, " * (k - 1) + "0.25]" is 6 k characters
    assert len(json.dumps(fits)) == ECHO_CHARS - ECHO_CHARS % 6
    with pytest.raises(ContractError) as err:
        tour_from_json(_waypoints_doc(fits))
    assert str(err.value) == "waypoints_m[1]: expected 3 numbers, got " + json.dumps(fits)


def test_echoed_object_ids_are_cut_to_a_bounded_prefix():
    long_id = "x" * 1_000_000
    cut = "'" + "x" * (ECHO_CHARS - 1) + "…"

    def refusal(edit) -> str:
        doc = _three_sphere_scene()
        edit(doc["objects"])
        with pytest.raises((ContractError, InvalidRegionError)) as err:
            scene_from_json(json.dumps(doc))
        assert len(str(err.value)) < ECHO_CHARS + 200
        return str(err.value)

    def same_ids(objs):
        objs[0]["id"] = objs[1]["id"] = long_id

    def negative(objs):
        objs[0]["id"], objs[0]["shape"]["diameter_m"] = long_id, -6.0

    def too_wide(objs):
        objs[0]["id"], objs[0]["shape"]["diameter_m"] = long_id, 9.0

    def too_far(objs):
        objs[2]["id"], objs[2]["center_m"] = long_id, [1e300, 0.0, 0.0]

    assert refusal(same_ids) == "duplicate object id " + cut
    assert refusal(negative).startswith("objects[0] (" + cut + "): ")
    assert refusal(too_wide).startswith("object " + cut + " diameters [9.0, 9.0] outside global bounds")
    assert refusal(too_far).startswith("objects[2] (" + cut + "): |coordinate| 1e+300 m")
    scene = generate_scene(SceneConfig(n_objects=3, seed=2, d_min=4.0, d_max=6.0))
    with pytest.raises(ContractError) as err:
        scene.get(long_id)
    assert str(err.value) == "no object with id " + cut
    # An id whose echo fits is echoed whole.
    fits = "y" * (ECHO_CHARS - 2)

    def fitting_ids(objs):
        objs[1]["id"] = objs[2]["id"] = fits

    assert refusal(fitting_ids) == f"duplicate object id '{fits}'"


def test_single_cell_report():
    cfg = SceneConfig(n_objects=6, seed=4, **CAR)
    report = run_comparison(cfg, ["center-visit"], seeds=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.method == "center-visit" and row.valid and row.length_m > 0


def test_aggregate_mean_matches_rows():
    cfg = SceneConfig(n_objects=10, seed=40, **CAR)
    report = run_comparison(cfg, ["center-visit", "online"], seeds=4)
    for agg in report.aggregates:
        rows = [r for r in report.rows if r.method == agg.method]
        assert math.isclose(agg.mean_length_m, sum(r.length_m for r in rows) / len(rows),
                            rel_tol=1e-12)
        assert len(rows) == 4


def test_report_lengths_deterministic_across_runs():
    cfg = SceneConfig(n_objects=8, seed=15, **CAR)
    r1 = run_comparison(cfg, ["center-visit", "alpha-fat", "online"], seeds=2)
    r2 = run_comparison(cfg, ["center-visit", "alpha-fat", "online"], seeds=2)
    assert [(r.method, r.seed, r.length_m) for r in r1.rows] == [
        (r.method, r.seed, r.length_m) for r in r2.rows
    ]


def test_every_row_passed_coverage_audit():
    cfg = SceneConfig(n_objects=12, seed=33, **CAR)
    report = run_comparison(cfg, ["center-visit", "alpha-fat", "online"], seeds=3)
    assert not report.has_invalid_rows
    assert all(r.valid for r in report.rows)


def test_csv_headers_and_shape():
    cfg = SceneConfig(n_objects=5, seed=77, **CAR)
    report = run_comparison(cfg, ["center-visit"], seeds=2)
    rows_csv = report_rows_csv(report)
    agg_csv = report_aggregates_csv(report)
    assert rows_csv.splitlines()[0] == ",".join(ROWS_CSV_HEADER)
    assert agg_csv.splitlines()[0] == ",".join(AGG_CSV_HEADER)
    assert len(rows_csv.splitlines()) == 3
    assert len(agg_csv.splitlines()) == 2


def test_unknown_method_rejected():
    cfg = SceneConfig(n_objects=3, seed=1, **CAR)
    with pytest.raises(ContractError):
        run_comparison(cfg, ["simulated-annealing"], seeds=1)


@pytest.mark.parametrize("methods", [[], ["center-visit", "center-visit"],
                                     ["alpha-fat", "center-visit", "alpha-fat"]],
                         ids=["empty", "repeated", "repeated-apart"])
def test_comparison_refuses_empty_or_repeated_methods(methods):
    cfg = SceneConfig(n_objects=3, seed=1, **CAR)
    with pytest.raises(ContractError, match="no method given|given twice"):
        run_comparison(cfg, methods, seeds=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_sampled_region_the_library_accepts_round_trips(bad):
    points = fibonacci_sphere(64)
    for normals in (np.full((64, 3), bad), np.where(np.arange(64)[:, None] == 5, bad, points)):
        with pytest.raises(InvalidRegionError, match="non-finite normals"):
            Region(Point3(0, 0, 0), Sampled(points=points, normals=normals, d_min=2.0, d_max=2.0))
    # Zero normals stay allowed: the detour falls back to the radial direction.
    normals = points * 3.0
    normals[5] = 0.0
    region = Region(Point3(0, 0, 0), Sampled(points=points, normals=normals, d_min=2.0, d_max=2.0))
    text = scene_to_json(Scene((SceneObject("a", region),), d_min_global=2.0, d_max_global=2.0))
    assert scene_to_json(scene_from_json(text)) == text


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


@pytest.mark.parametrize(
    "d_min, d_max, cube_edge",
    [(1.0, 2.0, math.inf), (1e298, 2e298, 1e300), (1.0, 2.0, 1e10)],
    ids=["infinite", "overflowing", "too-fine"],
)
def test_config_cube_is_held_to_the_scene_coordinate_rule(d_min, d_max, cube_edge):
    # An infinite cube or one past 3.87e153 m overflows distances; in a 1e10 m cube a
    # float step is over a quarter of the 1e-6 m touch tolerance. Any n is refused.
    for n in (0, 3):
        with pytest.raises(ContractError, match=r"^cube_edge: \|coordinate\| "):
            SceneConfig(n_objects=n, d_min=d_min, d_max=d_max, cube_edge=cube_edge)


def test_largest_allowed_cube_draws_a_scene_that_loads():
    # The largest cube of a power of two the rule lets 1 m objects have: every scene
    # it draws passes the same rule again at load.
    edge = 2.0**30
    cfg = SceneConfig(n_objects=20, d_min=1.0, d_max=2.0, cube_edge=edge, seed=1)
    with pytest.raises(ContractError, match="^cube_edge: "):
        SceneConfig(n_objects=20, d_min=1.0, d_max=2.0, cube_edge=2.0 * edge)
    scene = generate_scene(cfg)
    assert scene_to_json(scene_from_json(scene_to_json(scene))) == scene_to_json(scene)


def test_comparison_draws_each_seed_scene_once(monkeypatch):
    drawn = []

    def counting(config):
        drawn.append(config.seed)
        return generate_scene(config)

    monkeypatch.setattr("tspn.bench.generate_scene", counting)
    cfg = SceneConfig(n_objects=5, seed=3, **CAR)
    report = run_comparison(cfg, ["center-visit", "alpha-fat", "online"], seeds=3)
    assert drawn == [3, 4, 5]
    assert [(r.seed, r.method) for r in report.rows] == [
        (s, m) for s in (3, 4, 5) for m in ("center-visit", "alpha-fat", "online")
    ]
