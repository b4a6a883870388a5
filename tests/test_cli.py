import csv
import json
import math

import numpy as np
import pytest

from tspn import (
    ContractError, Point3, Region, Scene, SceneObject, Sphere, TspConfig, center_visit,
    missed_objects,
)
from tspn.bench import scene_from_json, scene_to_json, tour_from_json, tour_to_json
from tspn.cli import main
from tspn.viewscore import GrayImage, write_pgm

from test_coverage import KINDS, overlap_scene


def run(args):
    return main(args)


def test_gen_scene_writes_valid_file(tmp_path):
    out = tmp_path / "scene.json"
    code = run(
        [
            "gen-scene", "--n", "20", "--cube-edge", "100", "--dmin", "5.4",
            "--dmax", "8.2", "--disjoint", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["objects"]) == 20
    assert doc["d_min_m"] == 5.4 and doc["d_max_m"] == 8.2


def test_gen_scene_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen-scene", "--n", "15", "--dmin", "4", "--dmax", "6",
            "--disjoint", "--seed", "11", "--out", None]
    run(argv[:-1] + [str(a)])
    run(argv[:-1] + [str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_plan_then_validate_pipeline(tmp_path):
    scene = tmp_path / "scene.json"
    traj = tmp_path / "traj.json"
    report = tmp_path / "report.json"
    assert run(["gen-scene", "--n", "25", "--dmin", "5.4", "--dmax", "8.2",
                "--disjoint", "--seed", "7", "--out", str(scene)]) == 0
    assert run(["plan", "--scene", str(scene), "--start", "0,0,0",
                "--seed", "7", "--out", str(traj)]) == 0
    assert run(["validate", "--scene", str(scene), "--traj", str(traj),
                "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["count_bound_applicable"] is True
    assert doc["count_bound_holds"] is True
    tdoc = json.loads(traj.read_text())
    assert len(tdoc["visits"]) == 25


def test_plan_deterministic_bytes(tmp_path):
    scene = tmp_path / "scene.json"
    run(["gen-scene", "--n", "12", "--dmin", "4", "--dmax", "7",
         "--disjoint", "--seed", "3", "--out", str(scene)])
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    run(["plan", "--scene", str(scene), "--seed", "3", "--out", str(t1)])
    run(["plan", "--scene", str(scene), "--seed", "3", "--out", str(t2)])
    assert t1.read_bytes() == t2.read_bytes()


def test_baseline_and_online_commands(tmp_path):
    scene = tmp_path / "scene.json"
    run(["gen-scene", "--n", "10", "--dmin", "5.4", "--dmax", "8.2",
         "--disjoint", "--seed", "13", "--out", str(scene)])
    base = tmp_path / "base.json"
    assert run(["baseline", "--scene", str(scene), "--seed", "13",
                "--samples", "32", "--out", str(base)]) == 0
    doc = json.loads(base.read_text())
    assert len(doc["visits"]) == 10

    traj = tmp_path / "online.json"
    outcomes = tmp_path / "outcomes.json"
    assert run(["online", "--scene", str(scene), "--seed", "13",
                "--out", str(traj), "--outcomes", str(outcomes)]) == 0
    odoc = json.loads(outcomes.read_text())
    assert len(odoc) == 10
    for rec in odoc:
        assert 5.4 <= rec["realized_diameter_m"] <= 8.2


def test_mis_and_detour_commands(tmp_path):
    scene = tmp_path / "scene.json"
    run(["gen-scene", "--n", "15", "--dmin", "5.4", "--dmax", "8.2",
         "--overlap-rate", "0.4", "--seed", "5", "--out", str(scene)])
    mis = tmp_path / "mis.json"
    assert run(["mis", "--scene", str(scene), "--out", str(mis)]) == 0
    doc = json.loads(mis.read_text())
    assert set(doc) == {"kept", "assignment"}
    assert len(doc["kept"]) + len(doc["assignment"]) == 15

    detour = tmp_path / "detour.json"
    assert run(["detour", "--scene", str(scene), "--object", doc["kept"][0],
                "--out", str(detour)]) == 0
    ddoc = json.loads(detour.read_text())
    assert ddoc["length_m"] > 0
    assert len(ddoc["stitched_m"]) > 3


def test_score_constant_image_prints_zero(tmp_path, capsys):
    img = tmp_path / "img.pgm"
    msk = tmp_path / "mask.pgm"
    write_pgm(img, GrayImage.from_array(np.full((8, 8), 100.0)))
    write_pgm(msk, GrayImage.from_array(np.full((8, 8), 255.0)))
    assert run(["score", "--image", str(img), "--mask", str(msk)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_region_from_profile_and_scores(tmp_path):
    out = tmp_path / "region.json"
    assert run(["region", "--center", "1,2,3", "--profile", "car", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["shape"] == {
        "kind": "shell", "inner_diameter_m": 5.4, "outer_diameter_m": 8.2,
    }

    scores = tmp_path / "scores.csv"
    rows = ["azimuth_rad,elevation_rad,distance_m,score"]
    for k in range(16):
        az = 2 * math.pi * k / 16
        rows.append(f"{az},0.0,4.0,0.9")
        rows.append(f"{az},0.7,4.0,0.9")
    scores.write_text("\n".join(rows) + "\n")
    out2 = tmp_path / "region2.json"
    assert run(["region", "--center", "0,0,0", "--scores", str(scores),
                "--threshold", "0.3", "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["shape"]["kind"] == "sampled"


def test_compare_command_csv_outputs(tmp_path):
    rows_csv = tmp_path / "rows.csv"
    agg_csv = tmp_path / "agg.csv"
    code = run(["compare", "--profile", "car", "--n", "8", "--seeds", "2",
                "--seed", "9", "--methods", "center-visit,alpha-fat",
                "--out", str(rows_csv), "--aggregate-out", str(agg_csv)])
    assert code == 0
    with open(rows_csv) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "n_objects", "seed", "length_m", "runtime_s"]
    assert len(rows) == 5
    with open(agg_csv) as f:
        aggs = list(csv.reader(f))
    assert aggs[0] == ["method", "n_objects", "mean_length_m", "std_length_m", "mean_runtime_s"]


def test_compare_deterministic_excluding_runtime(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        run(["compare", "--profile", "car", "--n", "6", "--seeds", "2",
             "--seed", "3", "--out", str(path)])
        with open(path) as f:
            rows = list(csv.reader(f))
        outs.append([r[:4] for r in rows])  # drop the runtime column
    assert outs[0] == outs[1]


def test_missing_required_flag_exits_1(tmp_path, capsys):
    code = run(["gen-scene", "--n", "5", "--dmin", "1", "--dmax", "2"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path, capsys):
    code = run(["score", "--image", "x.pgm", "--mask", "y.pgm", "--what", "1"])
    assert code == 1


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(["plan", "--scene", str(tmp_path / "nope.json"),
                "--seed", "1", "--out", str(tmp_path / "t.json")])
    assert code == 2


def test_help_available_for_every_subcommand(capsys):
    for cmd in ["gen-scene", "plan", "baseline", "online", "mis", "detour",
                "score", "region", "validate", "compare"]:
        code = run([cmd, "--help"])
        assert code == 0
        out = capsys.readouterr().out
        assert "usage" in out


def _malformed_exits_1(capsys, argv, message):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {message}\n"


def test_malformed_scene_and_trajectory_name_the_field(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "3", "--dmin", "4", "--dmax", "6",
                "--disjoint", "--seed", "2", "--out", str(scene)]) == 0
    traj = tmp_path / "traj.json"
    assert run(["plan", "--scene", str(scene), "--seed", "2", "--out", str(traj)]) == 0
    good_scene, good_traj = json.loads(scene.read_text()), json.loads(traj.read_text())
    out = str(tmp_path / "t.json")

    doc = json.loads(json.dumps(good_scene))
    doc["objects"][0]["center_m"] = [1.0, 2.0]
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1", "--out", out],
                       "objects[0].center_m: expected 3 numbers, got [1.0, 2.0]")

    doc = json.loads(json.dumps(good_scene))
    del doc["d_max_m"]
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1", "--out", out],
                       "d_max_m: missing")

    doc = json.loads(json.dumps(good_scene))
    doc["objects"][2]["shape"]["diameter_m"] = None
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["mis", "--scene", str(scene), "--out", out],
                       "objects[2].shape.diameter_m: expected a number, got null")

    scene.write_text(json.dumps(good_scene))
    doc = json.loads(json.dumps(good_traj))
    doc["waypoints_m"][1] = [0.5, "x", 1.0]
    traj.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(traj)],
                       'waypoints_m[1]: expected 3 numbers, got [0.5, "x", 1.0]')

    doc = json.loads(json.dumps(good_traj))
    doc["waypoints_m"][1] = [0.5, 1.0]
    traj.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(traj)],
                       "waypoints_m[1]: expected 3 numbers, got [0.5, 1.0]")

    doc = json.loads(json.dumps(good_traj))
    doc["visits"] = {"object_id": "obj-000"}
    traj.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(traj)],
                       'visits: expected a list, got {"object_id": "obj-000"}')

    # A sampled boundary: 20 points on a 2.5 m sphere about object 0's center.
    center = np.array(good_scene["objects"][0]["center_m"])
    k = np.arange(20) + 0.5
    z = 1.0 - 2.0 * k / 20
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    dirs = np.stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z], axis=1)
    sampled = {"kind": "sampled", "points_m": (center + 2.5 * dirs).tolist(),
               "normals": dirs.tolist(), "d_min_m": 4.0, "d_max_m": 6.0}
    good_scene["objects"][0]["shape"] = sampled
    scene.write_text(json.dumps(good_scene))
    assert run(["plan", "--scene", str(scene), "--seed", "1", "--out", out]) == 0
    for key, index, value, message in [
        ("points_m", 0, ["x", 1, 1], 'points_m[0]: expected 3 numbers, got ["x", 1, 1]'),
        ("points_m", 3, [float("nan"), 1.0, 1.0],
         "points_m[3]: expected 3 finite numbers, got [NaN, 1.0, 1.0]"),
        ("normals", 5, [0.0, 1.0], "normals[5]: expected 3 numbers, got [0.0, 1.0]"),
        ("normals", None, 5, "normals: expected a list, got 5"),
    ]:
        doc = json.loads(json.dumps(good_scene))
        if index is None:
            doc["objects"][0]["shape"][key] = value
        else:
            doc["objects"][0]["shape"][key][index] = value
        scene.write_text(json.dumps(doc))
        _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1", "--out", out],
                           "objects[0].shape." + message)


def test_non_finite_json_numbers_name_the_field(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "3", "--dmin", "4", "--dmax", "6",
                "--disjoint", "--seed", "2", "--out", str(scene)]) == 0
    traj = tmp_path / "traj.json"
    assert run(["plan", "--scene", str(scene), "--seed", "2", "--out", str(traj)]) == 0
    good_scene, good_traj = json.loads(scene.read_text()), json.loads(traj.read_text())
    out = str(tmp_path / "t.json")

    doc = json.loads(json.dumps(good_scene))
    doc["objects"][0]["center_m"] = [float("inf"), 2.0, 3.0]
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1", "--out", out],
                       "objects[0].center_m: expected 3 finite numbers, got [Infinity, 2.0, 3.0]")

    doc = json.loads(json.dumps(good_scene))
    doc["objects"][2]["shape"]["diameter_m"] = float("nan")
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["mis", "--scene", str(scene), "--out", out],
                       "objects[2].shape.diameter_m: expected a finite number, got NaN")

    doc = json.loads(json.dumps(good_scene))
    doc["d_max_m"] = 10**400  # no float can hold it
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["mis", "--scene", str(scene), "--out", out],
                       f"d_max_m: expected a finite number, got {10**400}")

    scene.write_text(json.dumps(good_scene))
    doc = json.loads(json.dumps(good_traj))
    doc["waypoints_m"][1] = [float("nan"), 0.0, 1.0]
    traj.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(traj)],
                       "waypoints_m[1]: expected 3 finite numbers, got [NaN, 0.0, 1.0]")


def _scene_and_trajectory(tmp_path):
    """A 3-object scene and its plan, written and read back as JSON documents."""
    scene, traj = tmp_path / "scene.json", tmp_path / "traj.json"
    assert run(["gen-scene", "--n", "3", "--dmin", "4", "--dmax", "6",
                "--disjoint", "--seed", "2", "--out", str(scene)]) == 0
    assert run(["plan", "--scene", str(scene), "--seed", "2", "--out", str(traj)]) == 0
    return scene, traj, json.loads(scene.read_text()), json.loads(traj.read_text())


def test_scene_id_that_is_a_list_is_named(tmp_path, capsys):
    scene, _, doc, _ = _scene_and_trajectory(tmp_path)
    doc["objects"][1]["id"] = ["a"]
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1",
                                "--out", str(tmp_path / "t.json")],
                       'objects[1].id: expected a string, got ["a"]')
    obj = SceneObject(id=["a"], region=Region(center=Point3(0, 0, 0), shape=Sphere(4.0)))
    with pytest.raises(ContractError, match="object 0: id must be a string"):
        Scene(objects=(obj,), d_min_global=4.0, d_max_global=4.0)


def test_scene_ids_of_mixed_types_are_named(tmp_path, capsys):
    scene, _, doc, _ = _scene_and_trajectory(tmp_path)
    doc["objects"][0]["id"], doc["objects"][1]["id"] = 7, "7"
    scene.write_text(json.dumps(doc))
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--seed", "1",
                                "--out", str(tmp_path / "t.json")],
                       "objects[0].id: expected a string, got 7")


def test_score_csv_row_without_four_fields_names_its_line(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("azimuth_rad,elevation_rad,distance_m,score\n0,0,4,0.9\n0,0,5\n")
    _malformed_exits_1(capsys, ["region", "--center", "0,0,0", "--scores", str(scores),
                                "--out", str(tmp_path / "r.json")],
                       f"{scores}: line 3: expected 4 fields, got 3")


def test_visit_fields_of_the_wrong_type_are_named(tmp_path, capsys):
    scene, traj, _, good = _scene_and_trajectory(tmp_path)
    for key, value, expected in [
        ("waypoint_index", 0.5, "an integer, got 0.5"),
        ("waypoint_index", True, "an integer, got true"),
        ("object_id", ["a"], 'a string, got ["a"]'),
    ]:
        doc = json.loads(json.dumps(good))
        doc["visits"][0][key] = value
        traj.write_text(json.dumps(doc))
        _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(traj)],
                           f"visits[0].{key}: expected {expected}")


def test_detour_unknown_object_names_the_id(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "6", "--dmin", "5.4", "--dmax", "8.2",
                "--overlap-rate", "0.4", "--seed", "5", "--out", str(scene)]) == 0
    _malformed_exits_1(capsys, ["detour", "--scene", str(scene), "--object", "nope",
                                "--out", str(tmp_path / "d.json")],
                       "no object with id 'nope'")


def test_plan_exact_solver_matches_the_library(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    traj = tmp_path / "traj.json"
    assert run(["gen-scene", "--n", "12", "--dmin", "4", "--dmax", "7",
                "--disjoint", "--seed", "5", "--out", str(scene)]) == 0
    assert run(["plan", "--scene", str(scene), "--start", "1,2,3", "--solver", "exact",
                "--seed", "5", "--out", str(traj)]) == 0
    want = center_visit(Point3(1, 2, 3), scene_from_json(scene.read_text()), TspConfig("exact"))
    assert traj.read_text() == tour_to_json(want)

    assert run(["gen-scene", "--n", "13", "--dmin", "4", "--dmax", "7",
                "--disjoint", "--seed", "5", "--out", str(scene)]) == 0
    _malformed_exits_1(capsys, ["plan", "--scene", str(scene), "--solver", "exact",
                                "--seed", "5", "--out", str(traj)],
                       "exact solver capped at 12 points, got 13")


def test_scene_far_from_the_origin_is_rejected_at_load(tmp_path, capsys):
    scene, traj = tmp_path / "scene.json", tmp_path / "traj.json"
    # At 2**30 m the float spacing (2.4e-7 m) stays below a quarter of the
    # exact touch tolerance (1e-6 * d_min, d_min >= 2 m here).
    for seed in range(4):
        scene.write_text(scene_to_json(overlap_scene(np.random.default_rng(seed), 12, 2.0**30,
                                                     KINDS[3])))
        assert run(["plan", "--scene", str(scene), "--seed", "1", "--out", str(traj)]) == 0
        loaded = scene_from_json(scene.read_text())
        assert missed_objects(tour_from_json(traj.read_text()), loaded) == []
    # At 2**40 m it is 2.4e-4 m, and a projected touch point can round off its region.
    scene.write_text(scene_to_json(overlap_scene(np.random.default_rng(0), 12, 2.0**40, KINDS[3])))
    for command in ("plan", "validate"):
        argv = [command, "--scene", str(scene), "--out", str(tmp_path / "out.json")]
        argv += ["--seed", "1"] if command == "plan" else ["--traj", str(traj)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: objects[0] ('o0'): |coordinate| 1099511627")
        assert "too far from the origin" in err


def test_compare_refuses_online_on_nondisjoint_scenes_before_planning(tmp_path, capsys):
    rows_csv = tmp_path / "rows.csv"
    _malformed_exits_1(capsys, ["compare", "--profile", "car", "--n", "30", "--seeds", "3",
                                "--seed", "5", "--nondisjoint", "--overlap-rate", "0.3",
                                "--methods", "center-visit,alpha-fat,online",
                                "--out", str(rows_csv)],
                       "method 'online' plans only disjoint scenes (it assumes disjoint outer "
                       "balls); drop it or --nondisjoint")
    assert not rows_csv.exists()
    assert run(["compare", "--profile", "car", "--n", "30", "--seeds", "3", "--seed", "5",
                "--nondisjoint", "--overlap-rate", "0.3", "--methods", "center-visit,alpha-fat",
                "--out", str(rows_csv)]) == 0
    with open(rows_csv) as f:
        assert len(list(csv.reader(f))) == 1 + 2 * 3


@pytest.mark.parametrize("row, message", [
    ("0,0,x,0.9", "could not convert string to float: 'x'"),
    ("0,0,-4,0.9", "view sample distance must be positive"),
])
def test_score_csv_bad_value_names_its_line(tmp_path, capsys, row, message):
    scores = tmp_path / "scores.csv"
    scores.write_text(f"azimuth_rad,elevation_rad,distance_m,score\n0,0,4,0.9\n{row}\n")
    _malformed_exits_1(capsys, ["region", "--center", "0,0,0", "--scores", str(scores),
                                "--out", str(tmp_path / "r.json")],
                       f"{scores}: line 3: {message}")


def test_sampled_boundary_point_at_center_is_refused(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "3", "--dmin", "4", "--dmax", "6",
                "--disjoint", "--seed", "2", "--out", str(scene)]) == 0
    doc = json.loads(scene.read_text())
    center = np.array(doc["objects"][0]["center_m"])
    k = np.arange(20) + 0.5
    z = 1.0 - 2.0 * k / 20
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    dirs = np.stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z], axis=1)
    points = center + 2.5 * dirs
    points[7] = center
    doc["objects"][0]["shape"] = {"kind": "sampled", "points_m": points.tolist(),
                                  "normals": dirs.tolist(), "d_min_m": 4.0, "d_max_m": 6.0}
    scene.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    for argv in (["detour", "--scene", str(scene), "--object", "obj-000", "--out", out],
                 ["baseline", "--scene", str(scene), "--seed", "1", "--out", out]):
        _malformed_exits_1(capsys, argv, "boundary point 7 lies at the region center")


def test_overlap_rate_on_a_disjoint_scene_is_refused(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    _malformed_exits_1(capsys, ["gen-scene", "--n", "40", "--dmin", "5.4", "--dmax", "8.2",
                                "--disjoint", "--overlap-rate", "0.5", "--seed", "3",
                                "--out", str(scene)],
                       "overlap_rate 0.5 applies only to non-disjoint scenes")
    assert not scene.exists()
    rows_csv = tmp_path / "rows.csv"
    _malformed_exits_1(capsys, ["compare", "--profile", "car", "--n", "6", "--seeds", "2",
                                "--seed", "5", "--overlap-rate", "0.4", "--out", str(rows_csv)],
                       "overlap_rate 0.4 applies only to non-disjoint scenes")
    assert not rows_csv.exists()


def test_detour_has_no_spacing_flags(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "6", "--dmin", "5.4", "--dmax", "8.2",
                "--overlap-rate", "0.4", "--seed", "5", "--out", str(scene)]) == 0
    for flag in ("--perimeter-step", "--spike-spacing"):
        assert run(["detour", "--scene", str(scene), "--object", "obj-000", flag, "1",
                    "--out", str(tmp_path / "d.json")]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
