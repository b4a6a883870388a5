"""A scene's state is its ids and per-object columns; objects are built on demand.

``Scene(objects=...)`` and ``scene_from_json`` fill the same columns through
one validating constructor. The loader checks ids, centers and shape fields
as blocks and makes a ``Region`` only for sampled entries; the planner's
hot paths read the columns. These tests hold the loaded scene to the
library-built one, count the regions a plan request builds, and pin the
messages of malformed shape blocks. ``generate_scene`` fills the columns
too, and ``scene_to_json`` writes from them: these tests hold both to
scenes built object by object and documents built field by field.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tspn.geom
from tspn import CapacityError, Point3, Region, Sampled, Scene, SceneObject, Shell, Sphere
from tspn.bench import SceneConfig, generate_scene, scene_from_json, scene_to_json, tour_to_json
from tspn.cli import main
from tspn.errors import ContractError, TspnError
from tspn.geom import TOUCH_FRACTION, closest_point_on_ball, closest_point_on_region
from tspn.planner import center_visit, plan_nondisjoint_detailed, realized_diameters

from oracles import object_built_scene, scene_document
from test_coverage import KINDS, overlap_scene

COLUMNS = ("centers", "d_min", "d_max", "r_in", "r_out", "reach", "exact", "sphere")


def _same_columns(a: Scene, b: Scene) -> None:
    assert a.ids == b.ids and a.tol == b.tol
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert not x.flags.writeable


def _same_objects(a: Scene, b: Scene) -> None:
    assert len(a.objects) == len(b.objects) == len(a)
    for p, q in zip(a.objects, b.objects):
        assert p.id == q.id and p.region.center == q.region.center
        s, t = p.region.shape, q.region.shape
        assert type(s) is type(t)
        if isinstance(s, Sampled):
            assert s.points.tobytes() == t.points.tobytes()
            assert s.normals.tobytes() == t.normals.tobytes()
            assert (s.d_min, s.d_max) == (t.d_min, t.d_max)
        else:
            assert s == t


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), kinds=st.sampled_from(KINDS),
       offset=st.sampled_from([0.0, 1e3, 2.0**20]))
def test_loaded_scene_equals_the_library_built_one(seed, n, kinds, offset):
    built = overlap_scene(np.random.default_rng(seed), n, offset, kinds)
    text = scene_to_json(built)
    loaded = scene_from_json(text)
    _same_columns(loaded, built)
    # Reading one object builds that object only, once.
    k = seed % n
    assert loaded.get(built.ids[k]) is loaded.get(built.ids[k]) is loaded.objects[k]
    _same_objects(loaded, built)
    assert scene_to_json(loaded) == text
    # The column subset the planner orders is the scene of those objects.
    rows = [i for i in range(n) if (seed >> (i % 30)) & 1]
    subset = loaded.subset(rows)
    again = Scene([built.objects[i] for i in rows], built.d_min_global, built.d_max_global, built.cube_edge)
    _same_columns(subset, again)
    _same_objects(subset, again)


# How a scene's sphere and shell centers are given: as drawn (np.float64, whose %r is not a
# float's), as Python floats, as JSON integers, or with the float-formatting edge values.
CENTERS = {
    "np.float64": tuple,
    "float": lambda c: tuple(map(float, c)),
    "int": lambda c: tuple(int(v) for v in np.round(c)),
    "zeros": lambda c: (-0.0, 5e-324, float(c[2])),
    "far": lambda c: (1e16, float(c[1]), float(c[2])),  # too far out to plan in: not loaded
}
# Object i's id: the characters the json encoder escapes, and some it does not.
IDS = {
    "plain": "o{}",
    "quote": 'o{}"',
    "backslash": "o{}\\",
    "control": "o{}\x00\n\x1f\x7f",
    "non-ascii": "o{}\u00e9\u6c34\U0001f600\u2028",
}


def _json_of(scene: Scene) -> str:
    return json.dumps(scene_document(scene), indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), kinds=st.sampled_from(KINDS),
       centers=st.sampled_from(list(CENTERS)), ids=st.sampled_from(list(IDS)))
@example(seed=1, n=0, kinds=KINDS[0], centers="float", ids="plain")
@example(seed=1, n=8, kinds=KINDS[3], centers="int", ids="plain")
@example(seed=2, n=8, kinds=KINDS[3], centers="np.float64", ids="plain")
@example(seed=3, n=8, kinds=KINDS[1], centers="zeros", ids="plain")
@example(seed=4, n=8, kinds=KINDS[0], centers="far", ids="plain")
@example(seed=5, n=8, kinds=KINDS[3], centers="float", ids="quote")
@example(seed=6, n=8, kinds=KINDS[3], centers="float", ids="backslash")
@example(seed=7, n=8, kinds=KINDS[3], centers="float", ids="control")
@example(seed=8, n=8, kinds=KINDS[3], centers="float", ids="non-ascii")
def test_scene_json_equals_the_indented_json_encoder(seed, n, kinds, centers, ids):
    drawn = overlap_scene(np.random.default_rng(seed), n, 0.0, kinds) if n else Scene((), 4.0, 8.0)
    objects = [
        # A sampled shape's points lie about its center, which is kept as drawn.
        SceneObject(IDS[ids].format(i), o.region if not drawn.exact[i] else
                    Region(Point3(*CENTERS[centers](drawn.centers[i])), o.region.shape))
        for i, o in enumerate(drawn.objects)
    ]
    built = Scene(objects, drawn.d_min_global, drawn.d_max_global, drawn.cube_edge)
    text = scene_to_json(built)
    assert text == _json_of(built)
    if centers != "far":
        loaded = scene_from_json(text)
        assert scene_to_json(loaded) == text == _json_of(loaded)


def test_unbounded_scene_fields_are_written_as_the_encoder_writes_them():
    # The library takes an infinite cube and bound, which no document loads; they are written as JSON does.
    for scene in (Scene((), 1, 2, cube_edge=7), Scene((), 1.0, math.inf, cube_edge=math.inf)):
        assert scene_to_json(scene) == _json_of(scene)


GENERATED = {
    "disjoint": SceneConfig(n_objects=150, d_min=5.4, d_max=8.2, cube_edge=80.0, seed=3),
    "overlapping": SceneConfig(n_objects=150, d_min=5.4, d_max=8.2, cube_edge=60.0, disjoint=False,
                               overlap_rate=0.35, seed=4),
    "disjoint-0": SceneConfig(n_objects=0, d_min=5.4, d_max=8.2, seed=5),
    "overlapping-0": SceneConfig(n_objects=0, d_min=5.4, d_max=8.2, disjoint=False, overlap_rate=0.5, seed=5),
    "disjoint-1": SceneConfig(n_objects=1, d_min=5.4, d_max=8.2, seed=6),
    "overlapping-1": SceneConfig(n_objects=1, d_min=5.4, d_max=8.2, disjoint=False, overlap_rate=1.0, seed=6),
}


@pytest.mark.parametrize("name", list(GENERATED))
def test_a_generated_scene_is_the_object_built_scene_of_its_draws(name):
    config = GENERATED[name]
    generated, built = generate_scene(config), object_built_scene(config)
    assert len(generated) == config.n_objects
    _same_columns(generated, built)
    assert (generated.d_min_global, generated.d_max_global, generated.cube_edge) == (
        built.d_min_global, built.d_max_global, built.cube_edge)
    assert scene_to_json(generated) == scene_to_json(built) == _json_of(built)
    _same_objects(generated, built)


def test_a_tight_cube_raises_the_capacity_error_of_the_object_built_sampler():
    config = SceneConfig(n_objects=30, d_min=5.4, d_max=8.2, cube_edge=12.0, seed=2)
    with pytest.raises(CapacityError) as want:
        object_built_scene(config)
    with pytest.raises(CapacityError) as got:
        generate_scene(config)
    assert (str(got.value), got.value.placed) == (str(want.value), want.value.placed)


def test_integer_centers_are_rebuilt_as_the_document_gives_them():
    text = json.dumps({"cube_edge_m": 100.0, "d_min_m": 4.0, "d_max_m": 6.0, "objects": [
        {"id": "a", "center_m": [1, 2, 3], "shape": {"kind": "shell", "inner_diameter_m": 4,
                                                     "outer_diameter_m": 6.0}},
        {"id": "b", "center_m": [20.5, -2, 0], "shape": {"kind": "sphere", "diameter_m": 5}},
    ]}, indent=2) + "\n"
    scene = scene_from_json(text)
    center = scene.get("a").region.center
    assert (center.x, center.y, center.z) == (1, 2, 3) and type(center.x) is int
    assert scene.get("a").region.shape == Shell(4.0, 6.0)
    assert scene.get("b").region.shape == Sphere(5.0)
    # What the parser gave is written back: integer coordinates, float diameters.
    assert scene_to_json(scene) == text.replace('"inner_diameter_m": 4,', '"inner_diameter_m": 4.0,').replace(
        '"diameter_m": 5\n', '"diameter_m": 5.0\n')


def test_plan_and_validate_of_a_sphere_and_shell_scene_build_no_region(tmp_path, monkeypatch):
    scene = generate_scene(SceneConfig(n_objects=60, d_min=5.4, d_max=8.2, seed=3))
    doc = json.loads(scene_to_json(scene))
    for o in doc["objects"][::2]:
        d = o["shape"]["diameter_m"]
        o["shape"] = {"kind": "shell", "inner_diameter_m": 5.4, "outer_diameter_m": d}
    path, traj = tmp_path / "scene.json", tmp_path / "traj.json"
    path.write_text(json.dumps(doc))
    built = []
    validate = tspn.geom._validate_region
    monkeypatch.setattr(tspn.geom, "_validate_region", lambda region: built.append(validate(region)))
    assert main(["plan", "--scene", str(path), "--seed", "1", "--out", str(traj)]) == 0
    assert main(["validate", "--scene", str(path), "--traj", str(traj), "--out", str(tmp_path / "r.json")]) == 0
    # Drawing and writing a scene, and writing a loaded one, build none either.
    assert main(["gen-scene", "--n", "60", "--dmin", "5.4", "--dmax", "8.2", "--seed", "3",
                 "--out", str(tmp_path / "gen.json")]) == 0
    assert scene_to_json(scene_from_json(path.read_text())) == json.dumps(doc, indent=2) + "\n"
    assert built == []
    # The counter sees regions that are built.
    assert len(scene_from_json(path.read_text()).objects) == len(built) == 60


@settings(max_examples=200, deadline=None)
@given(center=st.tuples(*[st.floats(-50, 50)] * 3), point=st.tuples(*[st.floats(-60, 60)] * 3),
       d=st.floats(0.5, 20.0), hole=st.sampled_from([0.0, 0.3, 1.0]))
def test_the_ball_projection_is_the_region_projection(center, point, d, hole):
    shape = Shell(hole * d, d) if hole else Sphere(d)
    region = Region(Point3(*center), shape)
    p = np.array(point)
    expected = closest_point_on_region(region, p)
    got = closest_point_on_ball(np.array(center), shape.r_in, d / 2.0, p)
    assert got.tobytes() == expected.tobytes()
    # A point at the center of a hole goes to the hole's +x point.
    if hole:
        c = np.array(center)
        hole_point = closest_point_on_ball(c, shape.r_in, d / 2.0, c)
        assert hole_point.tobytes() == closest_point_on_region(region, c).tobytes()


@pytest.mark.parametrize("kinds", KINDS)
def test_center_visit_places_each_waypoint_as_closest_point_on_region(kinds):
    built = overlap_scene(np.random.default_rng(11), 40, 0.0, kinds)
    loaded = scene_from_json(scene_to_json(built))
    # A start at a region's center lies in its hole when it is a shell with one.
    for start in (Point3(3.0, -7.0, 1.0), built.objects[0].region.center):
        tour = center_visit(start, loaded)
        assert tour.visits == center_visit(start, built).visits
        w = tour.waypoints
        for k, v in enumerate(tour.visits, start=1):
            want = closest_point_on_region(built.get(v.object_id).region, w[k - 1])
            assert v.waypoint_index == k and w[k].tobytes() == want.tobytes()


def test_realized_diameters_from_the_columns_draw_only_for_shapes_that_are_no_sphere():
    built = overlap_scene(np.random.default_rng(4), 30, 0.0, KINDS[-1])
    loaded = scene_from_json(scene_to_json(built))
    rng = np.random.default_rng(9)
    expected = [
        float(s.diameter) if isinstance(s, Sphere) else float(rng.uniform(s.d_min, s.d_max))
        for s in (o.region.shape for o in built.objects)
    ]
    assert len({type(o.region.shape) for o in built.objects}) == 3
    assert realized_diameters(loaded, np.random.default_rng(9)) == expected


# ------------------------------------------------------------------ malformed shape blocks

N = 1000


def _thousand() -> dict:
    """1 000 spheres and shells on a 10 m grid: every third object is a shell."""
    objects = [
        {"id": f"o{i}", "center_m": [10.0 * (i % 10), 10.0 * (i // 10 % 10), 10.0 * (i // 100)],
         "shape": {"kind": "sphere", "diameter_m": 6.0} if i % 3 else
                  {"kind": "shell", "inner_diameter_m": 5.5, "outer_diameter_m": 7.5}}
        for i in range(N)
    ]
    return {"cube_edge_m": 100.0, "d_min_m": 5.4, "d_max_m": 8.2, "objects": objects}


# Each fault, and what scene_from_json said of it on the last object before
# the loader read shape fields as blocks.
FAULTS = {
    "diameter-true": (lambda o: o["shape"].update(kind="sphere", diameter_m=True),
                      "objects[999].shape.diameter_m: expected a number, got true"),
    "diameter-string": (lambda o: o["shape"].update(kind="sphere", diameter_m="6"),
                        'objects[999].shape.diameter_m: expected a number, got "6"'),
    "diameter-zero": (lambda o: o["shape"].update(kind="sphere", diameter_m=0),
                      "objects[999] ('o999'): sphere diameter must be positive, got 0.0"),
    "diameter-negative": (lambda o: o["shape"].update(kind="sphere", diameter_m=-1),
                          "objects[999] ('o999'): sphere diameter must be positive, got -1.0"),
    "diameter-overflow": (lambda o: o["shape"].update(kind="sphere", diameter_m=float("inf")),
                          "objects[999].shape.diameter_m: expected a finite number, got Infinity"),
    "shell-inverted": (lambda o: o.update(shape={"kind": "shell", "inner_diameter_m": 7.0,
                                                 "outer_diameter_m": 6.0}),
                       "objects[999] ('o999'): shell needs 0 < inner <= outer, got (7.0, 6.0)"),
    "shell-no-outer": (lambda o: o.update(shape={"kind": "shell", "inner_diameter_m": 6.0}),
                       "objects[999].shape.outer_diameter_m: missing"),
    "cone": (lambda o: o["shape"].update(kind="cone"),
             "objects[999].shape.kind: unknown shape kind 'cone'"),
    "too-wide": (lambda o: o["shape"].update(kind="sphere", diameter_m=9.0),
                 "object 'o999' diameters [9.0, 9.0] outside global bounds [5.4, 8.2]"),
    "duplicate-id": (lambda o: o.update(id="o1"), "duplicate object id 'o1'"),
}
# Faults at objects[600]. A diameter outside the global bounds is found only
# once every entry has been read, so a fault read at objects[999] is named first.
EARLIER = {
    "alone": (None, None),
    "too-wide-earlier": ({"kind": "sphere", "diameter_m": 9.0},
                         "object 'o600' diameters [9.0, 9.0] outside global bounds [5.4, 8.2]"),
    "negative-earlier": ({"kind": "sphere", "diameter_m": -2.0},
                         "objects[600] ('o600'): sphere diameter must be positive, got -2.0"),
}


@pytest.mark.parametrize("earlier", list(EARLIER))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_malformed_shape_blocks_name_the_first_fault_as_before(fault, earlier):
    edit, message = FAULTS[fault]
    shape, earlier_message = EARLIER[earlier]
    doc = _thousand()
    edit(doc["objects"][-1])
    if shape is not None:
        doc["objects"][600]["shape"] = shape
        if earlier == "negative-earlier" or fault in ("too-wide", "duplicate-id"):
            message = earlier_message
    text = json.dumps(doc).replace("Infinity", "1e400")  # json.loads reads 1e400 as inf
    with pytest.raises(TspnError) as err:
        scene_from_json(text)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", [[], {"kind": "sphere"}, None, 5, True, 1.5])
def test_a_kind_that_is_no_string_is_an_unknown_kind(kind):
    doc = _thousand()
    doc["objects"][1]["shape"]["kind"] = kind
    with pytest.raises(TspnError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == f"objects[1].shape.kind: unknown shape kind {kind!r}"


def test_numpy_string_ids_are_ids_like_any_str():
    """A ``numpy.str_`` is a ``str`` instance: a scene of them builds through both
    constructors, plans, and writes the bytes of the same scene with plain ids."""
    scene = generate_scene(SceneConfig(n_objects=40, seed=3, d_min=5.4, d_max=8.2, disjoint=False,
                                       overlap_rate=0.35))
    ids = [np.str_(i) for i in scene.ids]
    bounds = (scene.d_min_global, scene.d_max_global, scene.cube_edge)
    by_objects = Scene([SceneObject(i, o.region) for i, o in zip(ids, scene.objects)], *bounds)
    by_columns = Scene.from_columns(ids, scene.rows, scene.kinds, scene.d_min.tolist(), scene.d_max.tolist(),
                                    [None] * len(scene), *bounds)
    start = Point3(0.0, 0.0, 0.0)
    want = plan_nondisjoint_detailed(start, scene)
    assert want.detours
    for twin in (by_objects, by_columns):
        _same_columns(twin, scene)
        assert all(type(i) is np.str_ for i in twin.ids) and twin.get("obj-005").id == "obj-005"
        assert scene_to_json(twin) == scene_to_json(scene)
        plan = plan_nondisjoint_detailed(start, twin)
        assert tour_to_json(plan.tour) == tour_to_json(want.tour)
        assert plan.patched_ids == want.patched_ids
    region = scene.region(0)
    with pytest.raises(ContractError, match="^duplicate object id "):
        Scene([SceneObject(np.str_("a"), region), SceneObject(np.str_("a"), region)], *bounds)
    # Of one object's faults, the repeated id is named before the diameters.
    wide = Region(region.center, Sphere(9.0))
    with pytest.raises(ContractError, match="^duplicate object id "):
        Scene([SceneObject(np.str_("a"), region), SceneObject(np.str_("a"), wide)], *bounds)
    with pytest.raises(ContractError, match="^object 'b' diameters "):
        Scene([SceneObject(np.str_("a"), region), SceneObject("b", wide), SceneObject(np.str_("a"), region)],
              *bounds)


def test_the_thousand_object_scene_loads_through_the_columns(monkeypatch):
    built = []
    validate = tspn.geom._validate_region
    monkeypatch.setattr(tspn.geom, "_validate_region", lambda region: built.append(validate(region)))
    scene = scene_from_json(json.dumps(_thousand()))
    assert built == [] and len(scene) == N and scene.exact.all()
    assert scene.sphere.tolist() == [bool(i % 3) for i in range(N)]
    assert scene.get("o3").region.shape == Shell(5.5, 7.5) and len(built) == 1


def test_a_sampled_entry_is_built_at_load_and_its_faults_keep_their_order(monkeypatch):
    objects = overlap_scene(np.random.default_rng(2), 12, 0.0, ("sampled",)).objects
    sampled = next(o.region for o in objects if isinstance(o.region.shape, Sampled))
    doc = _thousand()
    doc["objects"][5]["shape"] = json.loads(scene_to_json(Scene([objects[0]], 1.0, 9.0)))["objects"][0]["shape"]
    doc["objects"][5]["center_m"] = [sampled.center.x, sampled.center.y, sampled.center.z]
    doc["d_min_m"], doc["d_max_m"] = min(5.4, sampled.d_min), max(8.2, sampled.d_max)
    built = []
    validate = tspn.geom._validate_region
    monkeypatch.setattr(tspn.geom, "_validate_region", lambda region: built.append(validate(region)))
    scene = scene_from_json(json.dumps(doc))
    assert len(built) == 1 and not scene.exact[5] and scene.tol == TOUCH_FRACTION * doc["d_min_m"]
    assert scene.region(5).shape.points.tobytes() == sampled.shape.points.tobytes() and len(built) == 1
    # A fault in the sampled entry is named before one read later in the document.
    shape = doc["objects"][5]["shape"]
    shape["points_m"], shape["normals"] = shape["points_m"][:3], shape["normals"][:3]
    doc["objects"][998]["shape"]["diameter_m"] = -1.0
    with pytest.raises(TspnError) as err:
        scene_from_json(json.dumps(doc))
    assert str(err.value) == "objects[5] ('o5'): sampled region needs >= 8 boundary points, got 3"


# Values an edit writes over one field, row or entry of a scene document.
JUNK = (None, True, 0, -1, 1e-320, 7.0, 1e300, math.inf, math.nan, 10**400, "", "x", "sphere",
        "shell", "sampled", [], [0, 0], [0, 0, 0], [[1.0, 0.0, 0.0]] * 8, {}, {"kind": "cone"},
        {"kind": "sphere", "diameter_m": 6.0}, {"kind": "shell", "inner_diameter_m": 6.0})


def _edit(rng, doc) -> None:
    """Overwrite, delete or repeat one value at a random depth of ``doc``, in place."""
    node = doc
    while True:
        key = list(node)[rng.integers(len(node))] if isinstance(node, dict) else int(rng.integers(len(node)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.75:
            node = child
            continue
        action = rng.integers(3)
        if action == 0:
            node[key] = copy.deepcopy(JUNK[rng.integers(len(JUNK))])
        elif action == 1:
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(child))
        else:
            node[key] = copy.deepcopy(node)
        return


@pytest.mark.parametrize("kinds", KINDS)
def test_an_edited_scene_document_loads_or_raises_a_tspn_error(kinds):
    """The loader's block checks and its entry-by-entry walk refuse the same documents."""
    rng = np.random.default_rng(25)
    outcomes = set()
    for _ in range(250):
        doc = json.loads(scene_to_json(overlap_scene(rng, int(rng.integers(1, 9)), 0.0, kinds)))
        for _ in range(rng.integers(1, 4)):
            _edit(rng, doc)
        try:
            scene_from_json(json.dumps(doc))
            outcomes.add("loaded")
        except TspnError:
            outcomes.add("refused")
    assert outcomes == {"loaded", "refused"}
