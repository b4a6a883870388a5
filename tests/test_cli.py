import csv
import json
import math

import numpy as np
import pytest

import tspn.planner
from tspn import (
    ContractError, Point3, Region, Scene, SceneObject, Sphere, TspConfig, center_visit,
    missed_objects,
)
from tspn import cli
from tspn.bench import (
    SceneConfig, generate_scene, run_comparison, scene_from_json, scene_to_json, tour_from_json,
    tour_to_json,
)
from tspn.planner import (
    PLANNERS, SimulationOracle, alpha_fat_baseline, plan_nondisjoint_detailed, plan_online,
    realized_diameters, validate_bounds,
)
from tspn.cli import main
from tspn.errors import ECHO_CHARS
from tspn.viewscore import (
    DIAMETER_PROFILES, GrayImage, ObjectMask, build_region_from_scores, read_score_csv, region_from_profile,
    viewing_score, write_pgm,
)

from oracles import object_document
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


@pytest.mark.parametrize("data, message", [
    (b"P5\n3", "malformed PGM header: need P5, then width, height and maxval as digits, "
                "separated by whitespace or '#' comments"),
    (b"P5\n-3 3\n255\n" + bytes(range(9)),
     "malformed PGM header: need P5, then width, height and maxval as digits, "
     "separated by whitespace or '#' comments"),
    (b"P5\n3 3\n0\n" + bytes(range(9)), "maxval 0 unsupported (need 1 to 255)"),
])
def test_score_refuses_a_bad_pgm_header(tmp_path, capsys, data, message):
    img, msk = tmp_path / "img.pgm", tmp_path / "mask.pgm"
    img.write_bytes(data)
    write_pgm(msk, GrayImage.from_array(np.full((3, 3), 255.0)))
    _malformed_exits_1(capsys, ["score", "--image", str(img), "--mask", str(msk)],
                       f"{img}: {message}")


def test_pgm_header_comments_and_whitespace_between_tokens(tmp_path, capsys):
    pixels = bytes(k * 37 % 256 for k in range(20))
    plain, commented = tmp_path / "plain.pgm", tmp_path / "commented.pgm"
    plain.write_bytes(b"P5\n5 4\n255\n" + pixels)
    commented.write_bytes(b"P5# made by hand\n\t5\r\n# rows:\n4 #\n255 " + pixels)
    scores = []
    for img in (plain, commented):
        assert run(["score", "--image", str(img), "--mask", str(plain)]) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1] != "0.0\n"


def test_score_prints_the_float_twins_score(tmp_path, capsys):
    pixels = bytes(k * 37 % 256 for k in range(20))
    img = tmp_path / "plain.pgm"
    img.write_bytes(b"P5\n5 4\n255\n" + pixels)
    twin = GrayImage.from_array(np.frombuffer(pixels, np.uint8).reshape(4, 5).astype(float))
    mask = ObjectMask.from_array(twin.pixels > 0)
    # Printed before uint8 images kept their integer pixels.
    for fraction, printed in (("0.1", "0.960834051471984\n"), ("0.5", "0.5342183873878679\n")):
        assert run(["score", "--image", str(img), "--mask", str(img), "--edge-fraction", fraction]) == 0
        assert capsys.readouterr().out == printed == f"{viewing_score(twin, mask, float(fraction))}\n"


def test_region_from_profile_and_scores(tmp_path):
    out = tmp_path / "region.json"
    assert run(["region", "--center", "1,2,3", "--profile", "car", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["shape"] == {
        "kind": "shell", "inner_diameter_m": 5.4, "outer_diameter_m": 8.2,
    }
    region = region_from_profile(Point3(1.0, 2.0, 3.0), "car")
    assert out.read_text() == json.dumps(object_document("region-0", region), indent=2) + "\n"

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
    region = build_region_from_scores(Point3(0.0, 0.0, 0.0), read_score_csv(str(scores)), threshold=0.3)
    assert out2.read_text() == json.dumps(object_document("region-0", region), indent=2) + "\n"


@pytest.mark.parametrize("source, center, far, tol, spacing", [
    ("profile", "1e12,0,0", "1000000000000.0", "5.4e-06", "0.000122"),
    ("profile", "1e300,0,0", "1e+300", "5.4e-06", "1.49e+284"),
    ("scores", "1e12,0,0", "1000000000004.0", "8e-06", "0.000122"),
])
def test_region_writes_only_an_object_a_scene_can_load(tmp_path, capsys, source, center, far, tol, spacing):
    scores, out = tmp_path / "scores.csv", tmp_path / "region.json"
    scores.write_text("azimuth_rad,elevation_rad,distance_m,score\n"
                      + "".join(f"{2 * math.pi * k / 16},0.0,4.0,0.9\n" for k in range(16)))
    argv = ["region", "--out", str(out), *(["--profile", "car"] if source == "profile" else ["--scores", str(scores)])]
    assert run(argv + ["--center", "1e9,0,0"]) == 0
    doc = {"cube_edge_m": 100.0, "d_min_m": 5.4, "d_max_m": 8.2, "objects": [json.loads(out.read_text())]}
    assert len(scene_from_json(json.dumps(doc))) == 1
    out.unlink()
    _malformed_exits_1(capsys, argv + ["--center", center],
                       f"--center: |coordinate| {far} m is too far from the origin to plan in: its float "
                       f"spacing {spacing} m is over a quarter of the touch tolerance {tol} m")
    assert not out.exists()


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


def test_score_csv_views_in_one_direction_are_refused(tmp_path, capsys):
    # Eight views around the equator, and a ninth farther out along the first one's
    # direction: the star model gives a direction one radius, so the region is refused.
    scores = tmp_path / "scores.csv"
    rows = [f"{2 * math.pi * k / 8},0,3,0.9" for k in range(8)] + ["0,0,3.9,0.9"]
    scores.write_text("azimuth_rad,elevation_rad,distance_m,score\n" + "\n".join(rows) + "\n")
    _malformed_exits_1(capsys, ["region", "--center", "20,0,0", "--scores", str(scores),
                                "--out", str(tmp_path / "r.json")],
                       "boundary points 0 and 8 lie in one direction from the center")


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


def test_compare_refuses_online_with_its_own_message_at_the_first_scene_it_cannot_plan(tmp_path, capsys):
    """compare holds online to plan_online's own rule, so it refuses as ``tspn online`` does."""
    car = DIAMETER_PROFILES["car"]
    config = SceneConfig(n_objects=30, d_min=car.d_min, d_max=car.d_max, disjoint=False, overlap_rate=0.3, seed=5)
    scene, rows_csv = tmp_path / "scene.json", tmp_path / "rows.csv"
    scene.write_text(scene_to_json(generate_scene(config)))
    assert run(["online", "--scene", str(scene), "--seed", "5", "--out", str(tmp_path / "t.json")]) == 1
    refusal = capsys.readouterr().err
    assert refusal.startswith("error: centers ") and refusal.count("\n") == 1
    argv = ["compare", "--profile", "car", "--n", "30", "--seeds", "3", "--seed", "5", "--nondisjoint",
            "--overlap-rate", "0.3", "--out", str(rows_csv)]
    assert run([*argv, "--methods", "center-visit,alpha-fat,online"]) == 1
    assert capsys.readouterr().err == refusal
    assert not rows_csv.exists()
    assert run([*argv, "--methods", "center-visit,alpha-fat"]) == 0
    with open(rows_csv) as f:
        assert len(list(csv.reader(f))) == 1 + 2 * 3


def test_compare_plans_online_on_nondisjoint_scenes_that_plan_online_can_plan(tmp_path):
    car = DIAMETER_PROFILES["car"]
    rows_csv = tmp_path / "rows.csv"
    assert run(["compare", "--profile", "car", "--n", "1", "--seeds", "2", "--seed", "1", "--nondisjoint",
                "--methods", "online", "--out", str(rows_csv)]) == 0
    with open(rows_csv) as f:
        rows = list(csv.reader(f))[1:]
    assert [r[:3] for r in rows] == [["online", "1", "1"], ["online", "1", "2"]]
    for seed, row in zip((1, 2), rows):
        config = SceneConfig(n_objects=1, d_min=car.d_min, d_max=car.d_max, disjoint=False, seed=seed)
        scene, out = tmp_path / f"scene-{seed}.json", tmp_path / f"online-{seed}.json"
        scene.write_text(scene_to_json(generate_scene(config)))
        assert run(["online", "--scene", str(scene), "--seed", str(seed), "--out", str(out)]) == 0
        assert repr(json.loads(out.read_text())["length_m"]) == row[3]


def test_out_of_memory_is_refused_in_one_line(tmp_path, capsys, monkeypatch):
    """The patched planner raises as numpy does; the table calls it by module name, so nothing is allocated."""
    message = "Unable to allocate 71.1 PiB for an array with shape (10000000000000000,) and data type float64"

    def alpha_fat_baseline(*args):
        raise MemoryError(message)

    monkeypatch.setattr(tspn.planner, "alpha_fat_baseline", alpha_fat_baseline)
    scene, out = tmp_path / "scene.json", tmp_path / "out.json"
    scene.write_text(scene_to_json(generate_scene(SceneConfig(n_objects=5, d_min=5.4, d_max=8.2, seed=1))))
    _malformed_exits_1(capsys, ["baseline", "--scene", str(scene), "--seed", "1", "--out", str(out)], message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["online", "--solver", "exact"],
    ["plan", "--samples", "32"],
    ["plan", "--outcomes", "x.json"],
    ["baseline", "--outcomes", "x.json"],
])
def test_a_planning_command_takes_only_its_own_option(tmp_path, capsys, argv):
    code = run([*argv, "--scene", str(tmp_path / "scene.json"), "--seed", "1", "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"usage: tspn {argv[0]} [-h] --scene SCENE ")
    assert err.endswith(f"tspn {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}\n")


@pytest.mark.parametrize("before", [True, False])
def test_an_unknown_option_is_named_by_the_parser_it_was_given_to(tmp_path, capsys, before):
    own = ["--scene", str(tmp_path / "scene.json"), "--seed", "1", "--out", str(tmp_path / "t.json")]
    code = run(["--bogus", "plan", *own] if before else ["plan", *own, "--bogus"])
    err = capsys.readouterr().err
    assert code == 1
    prog = "tspn" if before else "tspn plan"
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"{prog}: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", ["plan", "baseline", "online"])
def test_planning_commands_share_the_help_of_their_shared_options(capsys, command):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    for option, text in [("--scene SCENE", "scene JSON path"), ("--start START", "start position x,y,z (m)"),
                         ("--seed SEED", "RNG seed"), ("--out OUT", "output trajectory JSON path")]:
        (line,) = [line for line in out.splitlines() if line.strip().startswith(option)]
        assert line.split() == [*option.split(), *text.split()]


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


@pytest.mark.parametrize("row, message", [
    ("inf,0,3,0.9", "view sample azimuth must be finite, got inf"),
    ("0,0,nan,0.9", "view sample distance must be finite, got nan"),
    ("0,0,3,nan", "view sample score must be finite, got nan"),
])
def test_score_csv_non_finite_field_names_its_line(tmp_path, capsys, row, message):
    # Eight good rows first, enough for a region, so the bad row decides the outcome.
    good = "".join(f"{0.7 * k},{0.2 * (k % 3) - 0.2},4,0.9\n" for k in range(8))
    scores = tmp_path / "scores.csv"
    scores.write_text(f"azimuth_rad,elevation_rad,distance_m,score\n{good}{row}\n")
    argv = ["region", "--center", "0,0,0", "--scores", str(scores), "--out", str(tmp_path / "r.json")]
    _malformed_exits_1(capsys, argv, f"{scores}: line 10: {message}")
    scores.write_text(f"azimuth_rad,elevation_rad,distance_m,score\n{good}")
    assert run(argv) == 0


@pytest.mark.parametrize("command", ["plan", "baseline", "online"])
def test_far_start_is_held_to_the_scene_coordinate_rule(tmp_path, capsys, command):
    scene, out = tmp_path / "scene.json", tmp_path / "out.json"
    assert run(["gen-scene", "--n", "20", "--dmin", "5.4", "--dmax", "8.2",
                "--disjoint", "--seed", "1", "--out", str(scene)]) == 0
    argv = [command, "--scene", str(scene), "--seed", "1", "--out", str(out), "--start"]
    # With d_min 5.4 m, 2**33 m is the least magnitude whose float spacing
    # (2**-19 m) is over a quarter of the touch tolerance (5.4e-6 m).
    assert run(argv + [f"{2.0**33 - 1},0,0"]) == 0
    out.unlink()
    tail = " m is too far from the origin to plan in: its float spacing 1.91e-06 m is over a " \
           "quarter of the touch tolerance 5.4e-06 m\n"
    _malformed_exits_1(capsys, argv + ["0,-8589934592,0"],
                       "--start: |coordinate| 8589934592.0" + tail[:-1])
    _malformed_exits_1(capsys, argv + ["1e200,0,0"], "--start: |coordinate| 1e+200 m is too far "
                       "from the origin to plan in: its float spacing 1.7e+184 m is over a quarter "
                       "of the touch tolerance 5.4e-06 m")
    assert not out.exists()
    # The scene's own coordinates are held to the same rule.
    doc = json.loads(scene.read_text())
    doc["objects"][3]["center_m"] = [0.0, 0.0, 2.0**33]
    scene.write_text(json.dumps(doc))
    assert run(argv + ["0,0,0"]) == 1
    assert capsys.readouterr().err == "error: objects[3] ('obj-003'): |coordinate| 8589934592.0" + tail


@pytest.mark.parametrize("command", ["plan", "baseline", "online", "validate"])
def test_scene_whose_distances_overflow_is_refused(tmp_path, capsys, command):
    # At d_min 1e299 m the float spacing of 1e300 m (1.5e284 m) is far below the
    # touch tolerance, so only the overflow limit refuses these coordinates.
    scene, traj, out = tmp_path / "scene.json", tmp_path / "traj.json", tmp_path / "out.json"
    scene.write_text(json.dumps({"cube_edge_m": 1e300, "d_min_m": 1e299, "d_max_m": 2e299, "objects": [
        {"id": "a", "center_m": [1e300, 0, 0], "shape": {"kind": "sphere", "diameter_m": 1e299}},
        {"id": "b", "center_m": [-1e300, 0, 0], "shape": {"kind": "sphere", "diameter_m": 1e299}},
    ]}))
    traj.write_text(json.dumps({"length_m": 0.0, "waypoints_m": [[0.0, 0.0, 0.0]], "visits": []}))
    if command == "validate":
        argv = [command, "--scene", str(scene), "--traj", str(traj)]
    else:
        argv = [command, "--scene", str(scene), "--start", "0,1e300,0", "--seed", "1", "--out", str(out)]
    _malformed_exits_1(capsys, argv, "objects[0] ('a'): |coordinate| 1e+300 m plus outer radius "
                       "5e+298 m is too far from the origin to plan in: distances past 3.87e+153 m "
                       "overflow")
    assert not out.exists()
    if command != "validate":
        # --start is held to the same limit, with no region about it.
        scene.write_text(json.dumps({"cube_edge_m": 1.0, "d_min_m": 1e299, "d_max_m": 1e299,
                                     "objects": []}))
        _malformed_exits_1(capsys, argv, "--start: |coordinate| 1e+300 m plus outer radius 0.0 m "
                           "is too far from the origin to plan in: distances past 3.87e+153 m "
                           "overflow")
        assert not out.exists()


_OVERFLOW = "is too far from the origin to plan in: distances past 3.87e+153 m overflow"
_TOO_FINE = "m is too far from the origin to plan in: its float spacing {} m is over a quarter " \
            "of the touch tolerance 1e-06 m"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--dmin", "1e298", "--dmax", "2e298", "--cube-edge", "1e300", "--n", "3", "--seeds", "1",
      "--seed", "1", "--methods", "center-visit,alpha-fat"],
     f"|coordinate| 1e+300 m plus outer radius 1e+298 m {_OVERFLOW}"),
    (["gen-scene", "--n", "3", "--cube-edge", "inf", "--dmin", "1", "--dmax", "2", "--seed", "1", "--disjoint"],
     f"|coordinate| inf m plus outer radius 1.0 m {_OVERFLOW}"),
    (["gen-scene", "--n", "20", "--cube-edge", "1e10", "--dmin", "1", "--dmax", "2", "--seed", "1", "--disjoint"],
     "|coordinate| 10000000000.0 " + _TOO_FINE.format("1.91e-06")),
    (["compare", "--dmin", "1", "--dmax", "2", "--cube-edge", "1e11", "--n", "50", "--seeds", "3", "--seed", "1",
      "--methods", "center-visit,alpha-fat,online"],
     "|coordinate| 100000000000.0 " + _TOO_FINE.format("1.53e-05")),
], ids=["compare-overflow", "gen-scene-infinite", "gen-scene-too-fine", "compare-too-fine"])
def test_generated_scene_cube_is_held_to_the_scene_coordinate_rule(tmp_path, capsys, argv, message):
    # Before any scene is drawn or planned, a cube a scene file could not hold is
    # refused, with the rule and the message scene_from_json applies to coordinates.
    out = tmp_path / "out"
    _malformed_exits_1(capsys, argv + ["--out", str(out)], f"cube_edge: {message}")
    assert not out.exists()


def test_deeply_nested_json_is_refused(tmp_path, capsys):
    # json.loads gives up past about 1 000 levels with a RecursionError.
    scene, _, _, _ = _scene_and_trajectory(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out.json"
    message = "JSON nested too deeply to parse"
    _malformed_exits_1(capsys, ["plan", "--scene", str(deep), "--seed", "1", "--out", str(out)], message)
    _malformed_exits_1(capsys, ["validate", "--scene", str(scene), "--traj", str(deep), "--out", str(out)],
                       message)
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    (",", "no method given; choose from ('center-visit', 'alpha-fat', 'online')"),
    ("center-visit,center-visit", "method 'center-visit' given twice"),
], ids=["empty", "repeated"])
def test_compare_refuses_empty_or_repeated_methods(tmp_path, capsys, methods, message):
    rows, agg = tmp_path / "rows.csv", tmp_path / "agg.csv"
    _malformed_exits_1(capsys, ["compare", "--profile", "car", "--n", "5", "--seeds", "1", "--seed", "1",
                                "--methods", methods, "--out", str(rows), "--aggregate-out", str(agg)],
                       message)
    assert not rows.exists() and not agg.exists()


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
        _malformed_exits_1(capsys, argv,
                           "objects[0] ('obj-000'): boundary point 7 lies at the region center")


def test_region_errors_at_load_name_the_object(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "3", "--dmin", "4", "--dmax", "6",
                "--disjoint", "--seed", "2", "--out", str(scene)]) == 0
    good = json.loads(scene.read_text())
    center = np.array(good["objects"][1]["center_m"])
    dirs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]) / math.sqrt(3)
    points = center + 2.5 * dirs
    points[4] = center + 3.5 * dirs[4]  # past d_max / 2 = 3 m
    far = {"kind": "sampled", "points_m": points.tolist(), "normals": dirs.tolist(),
           "d_min_m": 4.0, "d_max_m": 6.0}
    out = str(tmp_path / "out.json")
    for index, shape, message in [
        (1, far, "objects[1] ('obj-001'): boundary point farther than d_max/2 from center"),
        (2, {"kind": "sphere", "diameter_m": -1},
         "objects[2] ('obj-002'): sphere diameter must be positive, got -1.0"),
    ]:
        doc = json.loads(json.dumps(good))
        doc["objects"][index]["shape"] = shape
        scene.write_text(json.dumps(doc))
        _malformed_exits_1(capsys, ["mis", "--scene", str(scene), "--out", out], message)
        # The id is read first, so a bad id is named before a bad region.
        doc["objects"][index]["id"] = 7
        scene.write_text(json.dumps(doc))
        _malformed_exits_1(capsys, ["mis", "--scene", str(scene), "--out", out],
                           f"objects[{index}].id: expected a string, got 7")


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


def test_main_calls_share_one_parser_without_leaking_state(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert run(["gen-scene", "--n", "10", "--dmin", "4", "--dmax", "7",
                "--disjoint", "--seed", "5", "--out", str(scene)]) == 0
    calls = [
        ["plan", "--scene", str(scene), "--start", "1,2,3", "--solver", "exact", "--seed", "5"],
        ["plan", "--scene", str(scene), "--solver", "magic", "--seed", "5"],
        ["plan", "--scene", str(scene), "--start", "1,2,3", "--seed", "5"],
    ]

    def call(argv):
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        code = run(argv + ["--out", str(out)])
        return code, capsys.readouterr(), out.read_bytes() if out.exists() else None

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(call(argv))
    parser = cli._parser()
    shared = [call(argv) for argv in calls]
    assert cli._parser() is parser
    assert shared == alone
    (exact_code, _, exact), (bad_code, bad, _), (heuristic_code, _, heuristic) = shared
    assert exact_code == heuristic_code == 0 and exact != heuristic
    assert bad_code == 1 and bad.err.startswith("usage: tspn plan [-h]")
    assert "\ntspn plan: error: argument --solver: invalid choice: 'magic'" in bad.err


@pytest.mark.parametrize("command", ["plan", "validate"])
def test_a_point_of_a_million_zeros_is_refused_in_one_short_line(tmp_path, capsys, command):
    scene, traj, scene_doc, traj_doc = _scene_and_trajectory(tmp_path)
    zeros = [0] * 1_000_000
    out = tmp_path / "out.json"
    if command == "plan":
        scene_doc["objects"][0]["center_m"] = zeros
        scene.write_text(json.dumps(scene_doc))
        argv, where = ["--seed", "1"], "objects[0].center_m"
    else:
        traj_doc["waypoints_m"][0] = zeros
        traj.write_text(json.dumps(traj_doc))
        argv, where = ["--traj", str(traj)], "waypoints_m[0]"
    argv = [command, "--scene", str(scene), "--out", str(out)] + argv
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where}: expected 3 numbers, got {json.dumps(zeros)[:ECHO_CHARS]}…\n"
    assert len(err.encode()) < 600
    assert not out.exists()


def test_a_duplicated_million_character_id_is_refused_in_one_short_line(tmp_path, capsys):
    scene, _, doc, _ = _scene_and_trajectory(tmp_path)
    long_id = "x" * 1_000_000
    doc["objects"][0]["id"] = doc["objects"][1]["id"] = long_id
    scene.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert run(["plan", "--scene", str(scene), "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: duplicate object id {repr(long_id)[:ECHO_CHARS]}…\n"
    assert len(err.encode()) < 600
    assert not out.exists()


def _overlapping_scene(tmp_path):
    """A generated 40-object overlapping scene: its file and the library's own copy."""
    path = tmp_path / "overlap.json"
    argv = ["gen-scene", "--n", "40", "--dmin", "5.4", "--dmax", "8.2", "--cube-edge", "60",
            "--overlap-rate", "0.4", "--seed", "5", "--out", str(path)]
    assert run(argv) == 0
    config = SceneConfig(n_objects=40, d_min=5.4, d_max=8.2, cube_edge=60.0, disjoint=False,
                         overlap_rate=0.4, seed=5)
    return path, generate_scene(config)


@pytest.mark.parametrize("command", ["plan", "validate", "baseline", "online"])
def test_commands_on_a_loaded_overlapping_scene_write_what_the_library_writes(tmp_path, capsys, command):
    path, scene = _overlapping_scene(tmp_path)
    assert path.read_text() == scene_to_json(scene)
    start = Point3(0.0, 0.0, 0.0)
    out, extra = tmp_path / "out.json", tmp_path / "extra.json"
    argv = [command, "--scene", str(path), "--out", str(out)]
    if command == "plan":
        assert run(argv + ["--seed", "1"]) == 0
        assert out.read_text() == tour_to_json(plan_nondisjoint_detailed(start, scene).tour)
    elif command == "validate":
        traj = tmp_path / "traj.json"
        tour = plan_nondisjoint_detailed(start, scene).tour
        traj.write_text(tour_to_json(tour))
        assert run(argv + ["--traj", str(traj)]) == 0
        report = validate_bounds(scene, tour)
        assert report.count_bound_applicable is False
        assert out.read_text() == json.dumps({
            "n_objects": report.n_objects,
            "tour_length_m": report.tour_length,
            "count_bound": report.count_bound,
            "count_bound_applicable": report.count_bound_applicable,
            "count_bound_holds": report.count_bound_holds,
            "online_lower_bound_m": report.online_lower_bound,
            "online_lower_bound_holds": report.online_lower_bound_holds,
            "length_over_lower_bound": report.length_over_lower_bound,
        }, indent=2) + "\n"
    elif command == "baseline":
        assert run(argv + ["--seed", "1"]) == 0
        assert out.read_text() == tour_to_json(alpha_fat_baseline(start, scene))
    else:
        # The online planner assumes disjoint outer balls: both refuse in the same words.
        assert run(argv + ["--seed", "1", "--outcomes", str(extra)]) == 1
        oracle = SimulationOracle(scene, realized_diameters(scene, np.random.default_rng(1)))
        with pytest.raises(ContractError) as err:
            plan_online(start, scene, oracle)
        assert capsys.readouterr().err == f"error: {err.value}\n"
        assert not out.exists() and not extra.exists()


def test_online_outcomes_on_a_loaded_scene_are_what_the_library_writes(tmp_path):
    path, out, outcomes = tmp_path / "scene.json", tmp_path / "out.json", tmp_path / "outcomes.json"
    scene = generate_scene(SceneConfig(n_objects=40, d_min=5.4, d_max=8.2, seed=5))
    path.write_text(scene_to_json(scene))
    assert run(["online", "--scene", str(path), "--seed", "3", "--out", str(out),
                "--outcomes", str(outcomes)]) == 0
    oracle = SimulationOracle(scene, realized_diameters(scene, np.random.default_rng(3)))
    tour, detected = plan_online(Point3(0.0, 0.0, 0.0), scene, oracle)
    assert out.read_text() == tour_to_json(tour)
    doc = [{"object_id": o.object_id, "realized_diameter_m": o.realized_diameter,
            "detected_at_m": o.detected_at.tolist()} for o in detected]
    assert outcomes.read_text() == json.dumps(doc, indent=2) + "\n"
    # An empty scene has no outcomes.
    path.write_text(scene_to_json(Scene((), 5.4, 8.2)))
    assert run(["online", "--scene", str(path), "--seed", "3", "--out", str(out),
                "--outcomes", str(outcomes)]) == 0
    assert outcomes.read_text() == json.dumps([], indent=2) + "\n"


def _refused_in_a_short_line(capsys, argv, prefix):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix) and err.count("\n") == 1
    assert len(err.encode()) < 600
    return err


def test_a_visit_index_of_4000_digits_is_refused_in_one_short_line(tmp_path, capsys):
    scene, traj, _, traj_doc = _scene_and_trajectory(tmp_path)
    digits = "9" * 4000
    traj_doc["visits"][0]["waypoint_index"] = int(digits)
    traj.write_text(json.dumps(traj_doc))
    err = _refused_in_a_short_line(
        capsys, ["validate", "--scene", str(scene), "--traj", str(traj)], "visit index " + digits[:ECHO_CHARS]
    )
    assert err.endswith("… out of range\n")


def test_a_pgm_maxval_of_4000_digits_is_refused_in_one_short_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the message starts with the path given
    digits = "9" * 4000
    with open("img.pgm", "wb") as f:
        f.write(b"P5\n3 3\n" + digits.encode() + b"\n" + bytes(range(9)))
    write_pgm("mask.pgm", GrayImage.from_array(np.full((3, 3), 255.0)))
    err = _refused_in_a_short_line(
        capsys, ["score", "--image", "img.pgm", "--mask", "mask.pgm"], f"img.pgm: maxval {digits[:ECHO_CHARS]}…"
    )
    assert err.endswith("… unsupported (need 1 to 255)\n")


def test_a_score_csv_header_of_100000_characters_is_refused_in_one_short_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the message starts with the path given
    header = "h" * 100_000
    with open("s.csv", "w") as f:
        f.write(header + "\n")
    _refused_in_a_short_line(
        capsys, ["region", "--center", "0,0,0", "--scores", "s.csv", "--out", "region.json"],
        "s.csv: expected header azimuth_rad,elevation_rad,distance_m,score, got "
        + str([header])[:ECHO_CHARS] + "…\n",
    )
    assert not (tmp_path / "region.json").exists()


# Per method of the planner table: the command that runs it, and the planner function it calls.
METHOD_COMMANDS = {"center-visit": "plan", "alpha-fat": "baseline", "online": "online"}
METHOD_FUNCTIONS = {"center-visit": "plan_nondisjoint_detailed", "alpha-fat": "alpha_fat_baseline",
                    "online": "plan_online"}
TABLE_SCENE = SceneConfig(n_objects=15, d_min=5.4, d_max=8.2, seed=4)


@pytest.mark.parametrize("method", list(PLANNERS))
def test_each_method_covers_a_disjoint_scene_from_its_start(method):
    scene = generate_scene(TABLE_SCENE)
    tour, outcomes = PLANNERS[method](Point3(3.0, -2.0, 1.0), scene, np.random.default_rng(4), TspConfig(), 108)
    assert missed_objects(tour, scene) == []
    assert tour.waypoints[0].tolist() == [3.0, -2.0, 1.0]
    assert not outcomes or sorted(o.object_id for o in outcomes) == sorted(scene.ids)


@pytest.mark.parametrize("method", list(PLANNERS))
def test_each_method_calls_its_planner_by_its_module_name(monkeypatch, method):
    """A tracer patches the planner module's attributes; an entry holding the function would skip it."""
    name, calls = METHOD_FUNCTIONS[method], []
    planner = getattr(tspn.planner, name)
    monkeypatch.setattr(tspn.planner, name, lambda *args: calls.append(name) or planner(*args))
    PLANNERS[method](Point3(0.0, 0.0, 0.0), generate_scene(TABLE_SCENE), np.random.default_rng(4), TspConfig(), 108)
    assert calls == [name]


@pytest.mark.parametrize("method", list(METHOD_COMMANDS))
def test_a_compare_row_has_the_length_its_command_writes(tmp_path, method):
    path, out = tmp_path / "scene.json", tmp_path / "out.json"
    path.write_text(scene_to_json(generate_scene(TABLE_SCENE)))
    argv = [METHOD_COMMANDS[method], "--scene", str(path), "--seed", str(TABLE_SCENE.seed), "--out", str(out)]
    assert run(argv) == 0
    (row,) = run_comparison(TABLE_SCENE, [method], seeds=1).rows
    assert row.valid and json.loads(out.read_text())["length_m"] == row.length_m


@pytest.mark.parametrize("command", list(METHOD_COMMANDS.values()))
def test_a_negative_seed_is_refused_as_gen_scene_refuses_it(tmp_path, capsys, command):
    """Every method is handed a generator seeded by --seed, so each command holds it to one rule,
    and so does compare, which seeds both its scenes and its methods from it."""
    path, out = tmp_path / "scene.json", tmp_path / "out.json"
    path.write_text(scene_to_json(generate_scene(TABLE_SCENE)))
    assert run(["gen-scene", "--n", "3", "--dmin", "1", "--dmax", "2", "--seed", "-1", "--out", str(out)]) == 1
    refusal = capsys.readouterr().err
    assert refusal == "error: seed: expected a non-negative integer, got -1\n"
    assert run([command, "--scene", str(path), "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == refusal and refusal.startswith("error: ") and refusal.count("\n") == 1
    method = next(m for m, c in METHOD_COMMANDS.items() if c == command)
    assert run(["compare", "--profile", "car", "--n", "3", "--seeds", "1", "--seed", "-1", "--methods", method,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == refusal
    assert not out.exists()
