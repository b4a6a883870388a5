"""Record semantics: constructors, defaults, check messages, read-only fields, equality.

Records without a check that compare by value are ``NamedTuple``s; the others
are ``__slots__`` classes, or ``namedtuple`` subclasses whose ``__new__``
checks. None may import ``dataclasses``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tspn
from tspn.bench import Aggregate, ComparisonReport, ComparisonRow, SceneConfig
from tspn.errors import ContractError, InvalidRegionError
from tspn.geom import Point3, Region, Sampled, SceneObject, Shell, Sphere, Tour, Visit
from tspn.planner import (
    BoundReport, DetectionOutcome, DetourBound, DetourPlan, MisResult, NondisjointPlan,
)
from tspn.tsp import TspConfig
from tspn.viewscore import DiameterProfile, GrayImage, ObjectMask, OrientationHistogram, ViewSample

CUBE = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
SAMPLED = Sampled(CUBE, CUBE / np.sqrt(3.0), d_min=2.0, d_max=2.0 * np.sqrt(3.0))
REGION = Region(Point3(0.0, 0.0, 0.0), Sphere(2.0))
TOUR = Tour(np.zeros((2, 3)), (Visit("a", 1),))
MIS = MisResult(("a",), {"b": "a"})
ROW = ComparisonRow("center-visit", 3, 0, 12.5, 0.01, True)
AGGREGATE = Aggregate("center-visit", 3, 12.5, 0.0, 0.01)
DETOUR = DetourPlan("a", np.zeros((2, 3)), (np.zeros((4, 3)),), np.zeros((1, 2, 3)), np.zeros((1, 3)), 0, 9)
REGION_SAMPLED = Region(Point3(0.0, 0.0, 0.0), SAMPLED)

# (class, its fields in order with values): the one place each record's layout is named.
VALUE_RECORDS = [
    (Point3, dict(x=1.0, y=2.0, z=3.0)),
    (Sphere, dict(diameter=2.0)),
    (Shell, dict(inner_diameter=1.0, outer_diameter=2.0)),
    (SceneObject, dict(id="a", region=REGION)),
    (Visit, dict(object_id="a", waypoint_index=1)),
    (MisResult, dict(kept=("a",), assignment={"b": "a"})),
    (DetourBound, dict(owner_id="a", limit=9.0, actual=3.0, holds=True)),
    (BoundReport, dict(
        n_objects=2, tour_length=5.0, count_bound=7.0, count_bound_applicable=True, count_bound_holds=True,
        detour_bounds=(DetourBound("a", 9.0, 3.0, True),), online_lower_bound=1.0,
        online_lower_bound_holds=True, length_over_lower_bound=5.0,
    )),
    (DiameterProfile, dict(d_max=8.2, d_min=5.4)),
    (ViewSample, dict(azimuth=0.1, elevation=0.2, distance=3.0, score=0.5)),
    (SceneConfig, dict(n_objects=5, d_min=1.0, d_max=2.0, cube_edge=50.0, disjoint=False, overlap_rate=0.2,
                       seed=7)),
    (ComparisonRow, dict(method="center-visit", n_objects=3, seed=0, length_m=12.5, runtime_s=0.01,
                         valid=True)),
    (Aggregate, dict(method="center-visit", n_objects=3, mean_length_m=12.5, std_length_m=0.0,
                     mean_runtime_s=0.01)),
    (ComparisonReport, dict(rows=(ROW,), aggregates=(AGGREGATE,))),
    (TspConfig, dict(solver="exact")),
]
IDENTITY_RECORDS = [
    (Sampled, dict(points=CUBE, normals=CUBE / np.sqrt(3.0), d_min=2.0, d_max=2.0 * np.sqrt(3.0))),
    (Region, dict(center=Point3(0.0, 0.0, 0.0), shape=SAMPLED)),
    (Tour, dict(waypoints=np.zeros((2, 3)), visits=(Visit("a", 1),))),
    (DetourPlan, dict(owner_id="a", axis=np.zeros((2, 3)), perimeters=(np.zeros((4, 3)),),
                      spikes=np.zeros((1, 2, 3)), stitched=np.zeros((1, 3)), length=0.0, limit=9.0)),
    (NondisjointPlan, dict(tour=TOUR, mis=MIS, detours=(DETOUR,), patched_ids=("b",))),
    (DetectionOutcome, dict(object_id="a", realized_diameter=2.0, detected_at=np.ones(3))),
    (GrayImage, dict(pixels=np.arange(9, dtype=np.uint8).reshape(3, 3))),
    (ObjectMask, dict(bits=np.eye(3, dtype=bool))),
    (OrientationHistogram, dict(bins=np.arange(360))),
]
RECORDS = VALUE_RECORDS + IDENTITY_RECORDS
IDS = [cls.__name__ for cls, _ in RECORDS]


def same(got, want):
    if isinstance(got, np.ndarray):
        return type(want) is np.ndarray and np.array_equal(got, want) and got.dtype == want.dtype
    return got == want


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_positional_and_keyword_constructors_give_the_fields(cls, fields):
    for record in (cls(*fields.values()), cls(**fields)):
        assert type(record) is cls
        assert all(same(getattr(record, name), value) for name, value in fields.items())


def test_defaults():
    assert SceneConfig(5, 1.0, 2.0) == SceneConfig(5, 1.0, 2.0, 100.0, True, 0.0, 0)
    assert SceneConfig(5, 1.0, 2.0).cube_edge == 100.0
    assert TspConfig().solver == "heuristic"
    assert Tour(np.zeros((0, 3))).visits == ()
    assert (Sphere(2.0).r_in, Sphere(2.0).d_min, Sphere(2.0).d_max) == (0.0, 2.0, 2.0)
    assert (Shell(1.0, 3.0).r_in, Shell(1.0, 3.0).d_min, Shell(1.0, 3.0).d_max) == (0.5, 1.0, 3.0)
    assert SAMPLED.r_in == 0.0


def test_array_fields_are_read_only_copies_of_their_dtype():
    pixels = np.full((3, 3), 7, dtype=np.uint8)
    stored = {
        "uint8 pixels": (GrayImage(pixels).pixels, np.uint8),
        "int pixels": (GrayImage(pixels.astype(np.int64)).pixels, float),
        "points": (Sampled(pixels, pixels, 2.0, 4.0).points, float),
        "normals": (Sampled(pixels, pixels, 2.0, 4.0).normals, float),
        "waypoints": (Tour(pixels).waypoints, float),
        "bits": (ObjectMask(pixels).bits, bool),
        "bins": (OrientationHistogram(np.ones(360, dtype=np.uint8)).bins, int),
    }
    for name, (array, dtype) in stored.items():
        assert array.dtype == dtype and not np.shares_memory(array, pixels), name
        assert not array.flags.writeable, name
    assert not any(a.flags.writeable for a in (*REGION_SAMPLED.radial, DETOUR.axis, DETOUR.spikes,
                                               DETOUR.stitched, *DETOUR.perimeters))


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: Point3(float("nan"), 0.0, 0.0), ContractError, "non-finite coordinate in Point3: nan"),
        (lambda: Tour(np.zeros((2, 2))), ContractError, "waypoints must have shape (k, 3), got (2, 2)"),
        (lambda: Tour([[float("inf"), 0.0, 0.0]]), ContractError, "non-finite waypoint coordinate"),
        (lambda: Tour(np.zeros((2, 3)), [Visit("a", 2)]), ContractError, "visit index 2 out of range"),
        (lambda: Region(Point3(0.0, 0.0, 0.0), Sphere(-1.0)), InvalidRegionError,
         "sphere diameter must be positive, got -1.0"),
        (lambda: Region(Point3(0.0, 0.0, 0.0), Shell(3.0, 2.0)), InvalidRegionError,
         "shell needs 0 < inner <= outer, got (3.0, 2.0)"),
        (lambda: Region(Point3(0.0, 0.0, 0.0), Sampled(CUBE[:7], CUBE[:7], 2.0, 4.0)),
         InvalidRegionError, "sampled region needs >= 8 boundary points, got 7"),
        (lambda: GrayImage(np.zeros(3)), ContractError, "pixel array must be 2-D, got shape (3,)"),
        (lambda: GrayImage(np.zeros((2, 5))), ContractError,
         "image must be at least 3x3 for gradient windows"),
        (lambda: GrayImage(np.full((3, 3), 300.0)), ContractError, "intensities must lie in [0, 255]"),
        (lambda: ObjectMask(np.zeros(3)), ContractError, "mask array must be 2-D, got shape (3,)"),
        (lambda: OrientationHistogram(np.zeros(5)), ContractError, "histogram needs exactly 360 bins"),
        (lambda: ViewSample(0.0, float("inf"), 3.0, 0.5), ContractError,
         "view sample elevation must be finite, got inf"),
        (lambda: ViewSample(0.0, 0.0, 0.0, 0.5), ContractError, "view sample distance must be positive"),
        (lambda: ViewSample(0.0, 0.0, 3.0, -0.5), ContractError, "view sample score must be non-negative"),
        (lambda: SceneConfig(-1, 1.0, 2.0), ContractError, "n_objects must be >= 0"),
        (lambda: SceneConfig(3, 2.0, 1.0), ContractError,
         "need 0 < d_min <= d_max < cube_edge, got (2.0, 1.0, 100.0)"),
        (lambda: SceneConfig(3, 1.0, 2.0, disjoint=False, overlap_rate=2.0), ContractError,
         "overlap_rate must be in [0, 1]"),
        (lambda: SceneConfig(3, 1.0, 2.0, overlap_rate=0.5), ContractError,
         "overlap_rate 0.5 applies only to non-disjoint scenes"),
        (lambda: TspConfig("fast"), ContractError, "unknown solver 'fast'"),
    ],
)
def test_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_fields_are_read_only(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    for act in (lambda: setattr(record, name, fields[name]), lambda: delattr(record, name),
                lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            act()
    assert same(getattr(record, name), fields[name])


@pytest.mark.parametrize(("cls", "fields"), VALUE_RECORDS, ids=IDS[: len(VALUE_RECORDS)])
def test_value_records_compare_by_value(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if cls is not MisResult:  # its assignment is a dict
        assert hash(a) == hash(b)
    assert copy.copy(a) == a
    assert repr(a).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize(("cls", "fields"), IDENTITY_RECORDS, ids=IDS[len(VALUE_RECORDS):])
def test_identity_records_compare_by_identity(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == a and a != b and hash(a) != hash(b)
    twin = copy.copy(a)
    assert twin != a and all(getattr(twin, name) is getattr(a, name) for name in cls.__slots__)
    assert repr(a).startswith(f"{cls.__name__}(")


def test_replace_runs_the_check():
    assert SceneConfig(5, 1.0, 2.0)._replace(seed=3) == SceneConfig(5, 1.0, 2.0, seed=3)
    assert Point3._make([1.0, 2.0, 3.0]) == Point3(1.0, 2.0, 3.0)
    with pytest.raises(ContractError):
        Point3(1.0, 2.0, 3.0)._replace(x=float("nan"))
    with pytest.raises(ContractError):
        SceneConfig(5, 1.0, 2.0)._replace(overlap_rate=0.5)
    with pytest.raises(ContractError):
        ViewSample(0.1, 0.2, 3.0, 0.5)._replace(distance=0.0)
    with pytest.raises(ContractError):
        TspConfig()._replace(solver="fast")


def test_copied_and_pickled_records_keep_their_fields():
    checked = (Point3(1.0, 2.0, 3.0), ViewSample(0.1, 0.2, 3.0, 0.5), SceneConfig(5, 1.0, 2.0), TspConfig())
    for record in checked:
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    for tour in (copy.deepcopy(TOUR), pickle.loads(pickle.dumps(TOUR))):
        assert np.array_equal(tour.waypoints, TOUR.waypoints) and tour.visits == TOUR.visits
    region = pickle.loads(pickle.dumps(REGION_SAMPLED))
    assert region.center == REGION_SAMPLED.center and np.array_equal(region.shape.points, CUBE)
    assert all(np.array_equal(a, b) for a, b in zip(region.radial, REGION_SAMPLED.radial))


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(tspn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run(
        [sys.executable, "-c", "import sys, tspn.cli; assert 'dataclasses' not in sys.modules"],
        env=env, check=True,
    )
