"""Random-scene generation, the method-comparison harness, and file formats.

Scenes are seeded and fully reproducible: fixed seeds give byte-identical
serializations. The harness times each (config, seed, method) cell with
``time.perf_counter``, audits trajectory coverage before recording a row, and
aggregates mean/std per method and scene size.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, ContractError
from .geom import (
    EXACT_TOUCH_FRACTION,
    GridIndex,
    Point3,
    Region,
    Sampled,
    Scene,
    SceneObject,
    Shell,
    Sphere,
    Tour,
    Visit,
    tour_length,
)
from .planner import (
    DEFAULT_SAMPLES_PER_REGION,
    SimulationOracle,
    alpha_fat_baseline,
    missed_objects,
    plan_nondisjoint_detailed,
    plan_online,
    realized_diameters,
)

METHODS = ("center-visit", "alpha-fat", "online")
REJECTION_LIMIT = 10_000


@dataclass(frozen=True)
class SceneConfig:
    n_objects: int
    d_min: float
    d_max: float
    cube_edge: float = 100.0
    disjoint: bool = True
    overlap_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_objects < 0:
            raise ContractError("n_objects must be >= 0")
        if not (0 < self.d_min <= self.d_max < self.cube_edge):
            raise ContractError(
                f"need 0 < d_min <= d_max < cube_edge, got "
                f"({self.d_min}, {self.d_max}, {self.cube_edge})"
            )
        if not (0.0 <= self.overlap_rate <= 1.0):
            raise ContractError("overlap_rate must be in [0, 1]")
        if self.disjoint and self.overlap_rate > 0.0:
            raise ContractError(
                f"overlap_rate {self.overlap_rate} applies only to non-disjoint scenes"
            )


def generate_scene(config: SceneConfig) -> Scene:
    """Draw a seeded random scene of spheres with realized diameters.

    Centers are uniform in the cube; per-object ground-truth diameters are
    uniform in [d_min, d_max]. Disjoint scenes rejection-sample centers so
    the outer d_max balls stay pairwise disjoint; a capacity error names
    the achieved count if packing stalls. Non-disjoint scenes place an
    ``overlap_rate`` fraction of centers within d_min of a prior center.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_objects
    diameters = rng.uniform(config.d_min, config.d_max, size=n)
    centers: list[np.ndarray] = []
    if config.disjoint:
        # Only centers the grid returns can lie within d_max of a candidate.
        grid = GridIndex(config.d_max)
        rejections = 0
        while len(centers) < n:
            c = rng.uniform(0.0, config.cube_edge, size=3)
            if all(np.linalg.norm(c - centers[j]) > config.d_max for j in grid.near(c)):
                grid.insert(len(centers), c)
                centers.append(c)
                rejections = 0
            else:
                rejections += 1
                if rejections >= REJECTION_LIMIT:
                    raise CapacityError(
                        f"placed only {len(centers)} of {n} disjoint objects in a "
                        f"{config.cube_edge} m cube after {REJECTION_LIMIT} consecutive rejections",
                        placed=len(centers),
                    )
    else:
        n_overlap = int(math.floor(config.overlap_rate * n)) if n > 1 else 0
        for _ in range(n - n_overlap):
            centers.append(rng.uniform(0.0, config.cube_edge, size=3))
        for _ in range(n_overlap):
            # overlapping placement: within d_min of a previously placed center
            while True:
                base = centers[int(rng.integers(0, len(centers)))]
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                r = config.d_min * float(rng.uniform(0.25, 1.0))
                c = base + u * r
                if np.all((c >= 0.0) & (c <= config.cube_edge)):
                    break
            centers.append(c)
    objects = [
        SceneObject(id=f"obj-{i:03d}", region=Region(center=Point3.from_array(c), shape=Sphere(float(d))))
        for i, (c, d) in enumerate(zip(centers, diameters))
    ]
    return Scene(
        objects=objects, d_min_global=config.d_min, d_max_global=config.d_max, cube_edge=config.cube_edge
    )


# ------------------------------------------------------------------ JSON formats


def _shape_to_json(region: Region) -> dict:
    s = region.shape
    if isinstance(s, Sphere):
        return {"kind": "sphere", "diameter_m": float(s.diameter)}
    if isinstance(s, Shell):
        return {
            "kind": "shell",
            "inner_diameter_m": float(s.inner_diameter),
            "outer_diameter_m": float(s.outer_diameter),
        }
    assert isinstance(s, Sampled)
    return {
        "kind": "sampled",
        "points_m": [[float(v) for v in row] for row in s.points],
        "normals": [[float(v) for v in row] for row in s.normals],
        "d_min_m": float(s.d_min),
        "d_max_m": float(s.d_max),
    }


def _field(doc, key: str, path: str = ""):
    """``doc[key]``; a missing key, or a ``doc`` that is no JSON object, is named by its path."""
    if not isinstance(doc, dict) or key not in doc:
        raise ContractError(f"{path}{key}: missing")
    return doc[key]


def _typed(doc, key: str, path: str, kind: type, expected: str):
    """``doc[key]`` of exactly type ``kind``; anything else is named by its path."""
    v = _field(doc, key, path)
    if type(v) is not kind:
        raise ContractError(f"{path}{key}: expected {expected}, got {json.dumps(v)}")
    return v


def _list(doc, key: str, path: str = "") -> list:
    return _typed(doc, key, path, list, "a list")


# The types json.loads gives numbers; bool is not among them.
_NUMBERS = frozenset((int, float))


def _finite(values) -> bool:
    """json.loads reads NaN and Infinity as floats, and integers of any size."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


def _number(doc, key: str, path: str = "") -> float:
    v = _field(doc, key, path)
    if type(v) not in _NUMBERS:
        raise ContractError(f"{path}{key}: expected a number, got {json.dumps(v)}")
    if not _finite((v,)):
        raise ContractError(f"{path}{key}: expected a finite number, got {json.dumps(v)}")
    return float(v)


def _point(v, name: str, index: int | None = None) -> list:
    """A JSON ``[x, y, z]``, checked; anything else names the field (``name[index]``)."""
    if type(v) is list and len(v) == 3 and _NUMBERS.issuperset(map(type, v)):
        if _finite(v):
            return v
        expected = "3 finite numbers"
    else:
        expected = "3 numbers"
    where = name if index is None else f"{name}[{index}]"
    raise ContractError(f"{where}: expected {expected}, got {json.dumps(v)}")


def _shape_from_json(obj, path: str):
    kind = _field(obj, "kind", path)
    if kind == "sphere":
        return Sphere(diameter=_number(obj, "diameter_m", path))
    if kind == "shell":
        return Shell(
            inner_diameter=_number(obj, "inner_diameter_m", path),
            outer_diameter=_number(obj, "outer_diameter_m", path),
        )
    if kind == "sampled":
        points, normals = (
            [_point(v, path + key, i) for i, v in enumerate(_list(obj, key, path))]
            for key in ("points_m", "normals")
        )
        return Sampled(
            points=points,
            normals=normals,
            d_min=_number(obj, "d_min_m", path),
            d_max=_number(obj, "d_max_m", path),
        )
    raise ContractError(f"{path}kind: unknown shape kind {kind!r}")


def object_to_json(object_id: str, region: Region) -> dict:
    """One entry of a scene's ``objects`` list; ``tspn region`` writes the same document."""
    return {
        "id": object_id,
        "center_m": [region.center.x, region.center.y, region.center.z],
        "shape": _shape_to_json(region),
    }


def scene_to_json(scene: Scene) -> str:
    doc = {
        "cube_edge_m": float(scene.cube_edge),
        "d_min_m": float(scene.d_min_global),
        "d_max_m": float(scene.d_max_global),
        "objects": [object_to_json(obj.id, obj.region) for obj in scene.objects],
    }
    return json.dumps(doc, indent=2) + "\n"


def scene_from_json(text: str) -> Scene:
    """Parse a scene document; malformed fields raise ContractError naming their path.

    A scene with a coordinate too far from the origin to plan in is
    rejected too (see ``_check_coordinate_spacing``).
    """
    doc = json.loads(text)
    objects = []
    for i, o in enumerate(_list(doc, "objects")):
        at = f"objects[{i}]."
        region = Region(
            center=Point3(*_point(_field(o, "center_m", at), at + "center_m")),
            shape=_shape_from_json(_field(o, "shape", at), at + "shape."),
        )
        objects.append(SceneObject(id=_typed(o, "id", at, str, "a string"), region=region))
    scene = Scene(
        objects=tuple(objects),
        d_min_global=_number(doc, "d_min_m"),
        d_max_global=_number(doc, "d_max_m"),
        cube_edge=_number(doc, "cube_edge_m"),
    )
    _check_coordinate_spacing(scene)
    return scene


def _check_coordinate_spacing(scene: Scene) -> None:
    """Reject the first object with a coordinate whose float spacing nears the touch tolerance.

    Where four float steps exceed ``EXACT_TOUCH_FRACTION * d_min``, a touch
    point can round off the region it was projected onto, and the plan
    fails its own coverage check. Centers and sampled points are checked.
    """
    tol = EXACT_TOUCH_FRACTION * scene.d_min_global
    far = np.abs(scene.centers).max(axis=1)
    for i in np.flatnonzero(~scene.exact).tolist():
        far[i] = max(far[i], np.abs(scene.objects[i].region.shape.points).max())
    # np.spacing is math.ulp for the non-negative floats here.
    bad = np.flatnonzero(4.0 * np.spacing(far) > tol)
    if bad.size:
        i, far_i = int(bad[0]), float(far[bad[0]])
        raise ContractError(
            f"objects[{i}] ({scene.objects[i].id!r}): |coordinate| {far_i!r} m is too far from "
            f"the origin to plan in: its float spacing {math.ulp(far_i):.3g} m is over a quarter "
            f"of the touch tolerance {tol:.3g} m"
        )


def tour_to_json(tour: Tour) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of the trajectory document, to the byte.

    The waypoint block is joined from ``float.__repr__`` (what the json
    encoder writes for a finite float) and the fixed indent separators;
    only the rest goes through the pure-Python encoder ``indent`` selects.
    """
    doc = {
        "length_m": tour_length(tour),
        "waypoints_m": None,
        "visits": [
            {"object_id": v.object_id, "waypoint_index": v.waypoint_index} for v in tour.visits
        ],
    }
    head, _, tail = json.dumps(doc, indent=2).partition('"waypoints_m": null')
    coords = list(map(float.__repr__, tour.waypoints.ravel().tolist()))
    if not coords:
        return head + '"waypoints_m": []' + tail + "\n"
    parts = [",\n      ", ",\n      ", "\n    ],\n    [\n      "] * len(tour.waypoints)
    parts[-1] = "\n    ]\n  ]"
    block = [None] * (2 * len(coords))
    block[0::2] = coords
    block[1::2] = parts
    return head + '"waypoints_m": [\n    [\n      ' + "".join(block) + tail + "\n"


def tour_from_json(text: str) -> Tour:
    """Parse a trajectory document; malformed fields raise ContractError naming their path."""
    doc = json.loads(text)
    waypoints = [_point(w, "waypoints_m", i) for i, w in enumerate(_list(doc, "waypoints_m"))]
    return Tour(
        waypoints=np.array(waypoints, dtype=float).reshape(-1, 3),
        visits=tuple(
            Visit(
                object_id=_typed(v, "object_id", f"visits[{i}].", str, "a string"),
                waypoint_index=_typed(v, "waypoint_index", f"visits[{i}].", int, "an integer"),
            )
            for i, v in enumerate(_list(doc, "visits"))
        ),
    )


# ------------------------------------------------------------------ comparison harness


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    n_objects: int
    seed: int
    length_m: float
    runtime_s: float
    valid: bool


@dataclass(frozen=True)
class Aggregate:
    method: str
    n_objects: int
    mean_length_m: float
    std_length_m: float
    mean_runtime_s: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    aggregates: tuple[Aggregate, ...]

    @property
    def has_invalid_rows(self) -> bool:
        return any(not r.valid for r in self.rows)

    def _aggregate(self, method: str, n_objects: int) -> Aggregate:
        for agg in self.aggregates:
            if agg.method == method and agg.n_objects == n_objects:
                return agg
        raise KeyError((method, n_objects))

    def mean_length(self, method: str, n_objects: int) -> float:
        return self._aggregate(method, n_objects).mean_length_m

    def mean_runtime(self, method: str, n_objects: int) -> float:
        return self._aggregate(method, n_objects).mean_runtime_s


def _run_cell(config: SceneConfig, seed: int, method: str, samples_per_region: int) -> ComparisonRow:
    scene = generate_scene(replace(config, seed=seed))
    start = Point3(0.0, 0.0, 0.0)
    t0 = time.perf_counter()
    if method == "center-visit":
        tour = plan_nondisjoint_detailed(start, scene).tour
    elif method == "alpha-fat":
        tour = alpha_fat_baseline(start, scene, samples_per_region=samples_per_region)
    else:  # "online"; run_comparison rejects unknown methods
        oracle = SimulationOracle(scene, realized_diameters(scene, np.random.default_rng(seed)))
        tour, _ = plan_online(start, scene, oracle)
    runtime = time.perf_counter() - t0
    valid = missed_objects(tour, scene) == []
    return ComparisonRow(
        method=method,
        n_objects=config.n_objects,
        seed=seed,
        length_m=tour_length(tour),
        runtime_s=runtime,
        valid=valid,
    )


def run_comparison(
    configs: list[SceneConfig],
    methods: list[str],
    seeds: int,
    samples_per_region: int = DEFAULT_SAMPLES_PER_REGION,
) -> ComparisonReport:
    """Plan every (config, seed, method) cell from the origin and aggregate lengths/runtimes.

    Scene seeds are ``config.seed + k`` for k in range(seeds). Coverage is
    audited before a row is recorded; failures mark the row invalid. The
    ``online`` method is refused before any cell runs when a config is not
    disjoint.
    """
    for m in methods:
        if m not in METHODS:
            raise ContractError(f"unknown method {m!r}; choose from {METHODS}")
    if seeds < 1:
        raise ContractError("seeds must be >= 1")
    if "online" in methods and not all(config.disjoint for config in configs):
        raise ContractError(
            "method 'online' plans only disjoint scenes (it assumes disjoint outer balls); "
            "drop it or --nondisjoint"
        )

    rows = [
        _run_cell(config, config.seed + k, method, samples_per_region)
        for config in configs
        for k in range(seeds)
        for method in methods
    ]

    groups: dict[tuple[str, int], list[ComparisonRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.n_objects), []).append(row)
    aggregates = []
    for (method, n), grp in sorted(groups.items()):
        lengths = np.array([r.length_m for r in grp])
        runtimes = np.array([r.runtime_s for r in grp])
        std = float(np.std(lengths, ddof=1)) if len(grp) >= 2 else 0.0
        aggregates.append(
            Aggregate(
                method=method,
                n_objects=n,
                mean_length_m=float(np.mean(lengths)),
                std_length_m=std,
                mean_runtime_s=float(np.mean(runtimes)),
            )
        )
    return ComparisonReport(rows=tuple(rows), aggregates=tuple(aggregates))


ROWS_CSV_HEADER = ["method", "n_objects", "seed", "length_m", "runtime_s"]
AGG_CSV_HEADER = ["method", "n_objects", "mean_length_m", "std_length_m", "mean_runtime_s"]


def report_rows_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROWS_CSV_HEADER)
    for r in report.rows:
        writer.writerow([r.method, r.n_objects, r.seed, repr(r.length_m), repr(r.runtime_s)])
    return buf.getvalue()


def report_aggregates_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AGG_CSV_HEADER)
    for a in report.aggregates:
        writer.writerow(
            [
                a.method,
                a.n_objects,
                repr(a.mean_length_m),
                repr(a.std_length_m),
                repr(a.mean_runtime_s),
            ]
        )
    return buf.getvalue()
