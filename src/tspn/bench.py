"""Random-scene generation, the method-comparison harness, and file formats.

Scenes are seeded and fully reproducible: fixed seeds give byte-identical
serializations. The harness times each (seed, method) cell with
``time.perf_counter``, audits trajectory coverage before recording a row, and
aggregates mean/std per method.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import CapacityError, ContractError, InvalidRegionError, _echo
from .geom import (
    EXACT_TOUCH_FRACTION,
    Point3,
    Region,
    Sampled,
    Scene,
    SceneObject,
    Shell,
    Sphere,
    Tour,
    Visit,
    earlier_within,
    tour_length,
)
from .planner import DEFAULT_SAMPLES_PER_REGION, PLANNERS, missed_objects
from .tsp import TspConfig

REJECTION_LIMIT = 10_000
# The largest |coordinate| plus outer radius planned in. Within it a coordinate
# difference is at most twice it, so a sum of three squared differences, 12 times
# its square, stays finite.
FAR_LIMIT = math.sqrt(np.finfo(float).max / 12.0)


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
        # The worst case of what scene_from_json checks on any scene drawn from here.
        check_spacing(self.d_min, self.cube_edge, self.d_max / 2.0, lambda _: "cube_edge")


def generate_scene(config: SceneConfig) -> Scene:
    """Draw a seeded random scene of spheres with realized diameters.

    Centers are uniform in the cube; per-object ground-truth diameters are
    uniform in [d_min, d_max]. Disjoint scenes rejection-sample centers so
    the outer d_max balls stay pairwise disjoint; a capacity error names
    the achieved count if packing stalls. Non-disjoint scenes place an
    ``overlap_rate`` fraction of centers within d_min of a prior center.
    The draws fill the scene's columns; its objects are built on demand.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_objects
    diameters = rng.uniform(config.d_min, config.d_max, size=n)
    if config.disjoint:
        # Candidates come a batch at a time, the same stream as one at a time, and nothing
        # is drawn after them. Each is kept unless an earlier kept row is within d_max.
        # Kept centers are over d_max apart, so balls of diameter d_max about them are
        # disjoint and lie in the cube grown by d_max / 2 a side: at most
        # (edge / d_max + 1)**3 / (pi / 6) fit. A batch held to that stays small in a
        # tight cube, where every row neighbours every other.
        batch = min(n, int((config.cube_edge / config.d_max + 1.0) ** 3 / (math.pi / 6.0)))
        centers = np.empty((0, 3))
        rejections = 0
        while len(centers) < n:
            m = placed = len(centers)
            rows = np.vstack([centers, rng.uniform(0.0, config.cube_edge, size=(batch, 3))])
            kept = [True] * m + [False] * batch
            for i, near in earlier_within(rows, m, config.d_max):
                if not any(kept[j] for j in near):
                    kept[i] = True
                    placed, rejections = placed + 1, 0
                    if placed == n:
                        break
                elif (rejections := rejections + 1) >= REJECTION_LIMIT:
                    raise CapacityError(
                        f"placed only {placed} of {n} disjoint objects in a "
                        f"{config.cube_edge} m cube after {REJECTION_LIMIT} consecutive rejections",
                        placed=placed,
                    )
            centers = rows[kept]
    else:
        n_overlap = int(math.floor(config.overlap_rate * n)) if n > 1 else 0
        centers = list(rng.uniform(0.0, config.cube_edge, size=(n - n_overlap, 3)))
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
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    d = diameters.tolist()
    return Scene.from_columns(
        [f"obj-{i:03d}" for i in range(n)], centers.tolist(), [Sphere] * n, d, d, [None] * n,
        d_min_global=config.d_min, d_max_global=config.d_max, cube_edge=config.cube_edge, centers=centers,
    )


# ------------------------------------------------------------------ JSON formats


def _parse(text: str):
    """``json.loads(text)``; a document nested too deeply for it raises ContractError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ContractError("JSON nested too deeply to parse") from None


def _field(doc, key: str, path: str = ""):
    """``doc[key]``; a missing key, or a ``doc`` that is no JSON object, is named by its path."""
    if not isinstance(doc, dict) or key not in doc:
        raise ContractError(f"{path}{key}: missing")
    return doc[key]


def _typed(doc, key: str, path: str, kind: type, expected: str):
    """``doc[key]`` of exactly type ``kind``; anything else is named by its path."""
    v = _field(doc, key, path)
    if type(v) is not kind:
        raise ContractError(f"{path}{key}: expected {expected}, got {_echo(v)}")
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
        raise ContractError(f"{path}{key}: expected a number, got {_echo(v)}")
    if not _finite((v,)):
        raise ContractError(f"{path}{key}: expected a finite number, got {_echo(v)}")
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
    raise ContractError(f"{where}: expected {expected}, got {_echo(v)}")


def _points(rows: list, name: str | None) -> np.ndarray | None:
    """A JSON list of ``[x, y, z]`` rows as a float (n, 3) array, checked as one block.

    The block is held to what ``_point`` holds each row to. Only a block that
    fails is walked row by row, by ``_point``, whose error names the first
    bad row ``name[i]``; with no ``name``, a failed block gives None.
    """
    if {list}.issuperset(map(type, rows)) and {3}.issuperset(map(len, rows)):
        flat = list(chain.from_iterable(rows))
        if _NUMBERS.issuperset(map(type, flat)) and _finite(flat):
            return np.array(flat, dtype=float).reshape(-1, 3)
    for i, v in enumerate(rows if name is not None else ()):
        _point(v, name, i)
    return None


# Per shape kind: its class and the JSON fields of its least and largest diameter.
_KINDS = {
    "sphere": (Sphere, "diameter_m", "diameter_m"),
    "shell": (Shell, "inner_diameter_m", "outer_diameter_m"),
    "sampled": (Sampled, "d_min_m", "d_max_m"),
}


def _shape_from_json(obj, path: str):
    """One entry's shape; its fields are read in document order, a sampled shape's points first."""
    kind = _field(obj, "kind", path)
    if type(kind) is not str or kind not in _KINDS:
        raise ContractError(f"{path}kind: unknown shape kind {_echo(kind, repr)}")
    cls, lo, hi = _KINDS[kind]
    blocks = ("points_m", "normals") if cls is Sampled else ()
    points = [_points(_list(obj, key, path), path + key) for key in blocks]
    return cls(*points, *(_number(obj, key, path) for key in dict.fromkeys((lo, hi))))


def _shape_columns(entries: list):
    """Per entry: its shape class, least and largest diameter; None if a block fails.

    Each field is checked as one block and held to what ``_shape_from_json``
    and ``Region`` hold each entry to: a known kind, finite numbers and
    0 < least <= largest diameter.
    """
    try:
        shapes = [o["shape"] for o in entries]
        if not {dict}.issuperset(map(type, shapes)):
            return None
        kinds = [_KINDS[s["kind"]] for s in shapes]
        flat = [s[k[1]] for s, k in zip(shapes, kinds)] + [s[k[2]] for s, k in zip(shapes, kinds)]
    except (TypeError, KeyError):  # a shape that is no JSON object, or an unknown kind or field
        return None
    if not (_NUMBERS.issuperset(map(type, flat)) and _finite(flat)):
        return None
    lo, hi = np.array(flat, dtype=float).reshape(2, -1)
    if not np.all((0.0 < lo) & (lo <= hi)):
        return None
    return [k[0] for k in kinds], lo.tolist(), hi.tolist()


def _scene_object(i: int, oid: str, center: list, shape) -> SceneObject:
    """Object i of a scene document; a region error names the object."""
    try:
        region = Region(center=Point3(*center), shape=shape)
    except InvalidRegionError as exc:
        raise InvalidRegionError(f"objects[{i}] ({_echo(oid, repr)}): {exc}") from None
    return SceneObject(id=oid, region=region)


def scene_from_json(text: str) -> Scene:
    """Parse a scene document; malformed fields raise ContractError naming their path.

    A scene with a coordinate too far from the origin to plan in is
    rejected too (see ``check_spacing``). Ids, centers and sphere and shell
    fields are checked as blocks and go straight into the scene's columns;
    only a sampled entry is made into a ``Region`` here. When a block fails,
    the entries are read one by one, so that the first fault in document
    order is named.
    """
    doc = _parse(text)
    entries = _list(doc, "objects")
    try:  # every id and every center, checked as a block
        ids, rows = [o["id"] for o in entries], [o["center_m"] for o in entries]
        centers = _points(rows, None) if {str}.issuperset(map(type, ids)) else None
    except (TypeError, KeyError):  # an entry that is no JSON object, or lacks the key
        centers = None
    columns = None if centers is None else _shape_columns(entries)
    if columns is None:
        # An entry that passes its own checks passes the block checks, so a failed block has
        # a faulty entry: walk them field by field, to name the first fault in document order.
        for i, o in enumerate(entries):
            at = f"objects[{i}]."
            if centers is not None:
                oid, center = ids[i], rows[i]
            else:
                oid = _typed(o, "id", at, str, "a string")
                center = _point(_field(o, "center_m", at), at + "center_m")
            _scene_object(i, oid, center, _shape_from_json(_field(o, "shape", at), at + "shape."))
        raise AssertionError("a scene block check failed, but every entry passed its own")
    kinds, d_min, d_max = columns
    built = [None] * len(entries)
    for i in (i for i, k in enumerate(kinds) if k is Sampled):
        shape = _shape_from_json(entries[i]["shape"], f"objects[{i}].shape.")
        built[i] = _scene_object(i, ids[i], rows[i], shape)
    scene = Scene.from_columns(
        ids, rows, kinds, d_min, d_max, built,
        d_min_global=_number(doc, "d_min_m"),
        d_max_global=_number(doc, "d_max_m"),
        cube_edge=_number(doc, "cube_edge_m"),
        centers=centers,
    )
    check_scene_spacing(scene, lambda i: f"objects[{i}] ({_echo(scene.ids[i], repr)})")
    return scene


def check_scene_spacing(scene: Scene, name) -> None:
    """``check_spacing`` on each object's center and, for a sampled region, boundary points."""
    far = np.abs(scene.centers).max(axis=1)
    for i in np.flatnonzero(~scene.exact).tolist():
        far[i] = max(far[i], np.abs(scene.region(i).shape.points).max())
    check_spacing(scene.d_min_global, far, scene.r_out, name)


def check_spacing(d_min: float, far, r_out, name) -> None:
    """Reject the first point i whose largest |coordinate| ``far[i]`` is too far out to plan in.

    Where four float steps exceed ``EXACT_TOUCH_FRACTION * d_min``, a touch
    point can round off the region it was projected onto, and the plan
    fails its own coverage check. Past ``FAR_LIMIT``, distances overflow:
    ``far[i]`` plus the outer radius ``r_out[i]`` of the region about the
    point must stay within it. ``far`` and ``r_out`` are numbers or arrays;
    ``name(i)`` names point i in the message.
    """
    far, r_out = np.atleast_1d(far, r_out)
    tol = EXACT_TOUCH_FRACTION * d_min
    # np.spacing is math.ulp for the non-negative floats here.
    bad = np.flatnonzero(4.0 * np.spacing(far) > tol)
    if bad.size:
        i, far_i = int(bad[0]), float(far[bad[0]])
        raise ContractError(
            f"{name(i)}: |coordinate| {far_i!r} m is too far from the origin to plan in: its "
            f"float spacing {math.ulp(far_i):.3g} m is over a quarter of the touch tolerance {tol:.3g} m"
        )
    # Subtracting, so that the test cannot overflow.
    bad = np.flatnonzero(far > FAR_LIMIT - r_out)
    if bad.size:
        i = int(bad[0])
        raise ContractError(
            f"{name(i)}: |coordinate| {float(far[i])!r} m plus outer radius {float(r_out[i])!r} m "
            f"is too far from the origin to plan in: distances past {FAR_LIMIT:.3g} m overflow"
        )


# Per shape class: an object as json.dumps(entry, indent=2) writes it at indent 0. The fields
# are the id, the center's coordinates, a sampled shape's points and normals, and the least
# and largest diameter.
_CENTER = '{\n  "id": %s,\n  "center_m": [\n    %s,\n    %s,\n    %s\n  ],\n  "shape": {\n    "kind": '
_OBJECT = {
    Sphere: _CENTER + '"sphere",\n    "diameter_m": %.0s%s\n  }\n}',  # "%.0s": a sphere's d_min is its d_max
    Shell: _CENTER + '"shell",\n    "inner_diameter_m": %s,\n    "outer_diameter_m": %s\n  }\n}',
    Sampled: _CENTER + '"sampled",\n    "points_m": %s,\n    "normals": %s,\n'
    '    "d_min_m": %s,\n    "d_max_m": %s\n  }\n}',
}


def _float_texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each finite float, as the json encoder writes it; each bit pattern once."""
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    return np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)[inverse].tolist()


def _rows_json(points: np.ndarray, pad: str) -> str:
    """A float (k, 3) array as ``json.dumps(points.tolist(), indent=2)`` writes it at indent ``pad``."""
    if not len(points):
        return "[]"
    # Each coordinate, then the separator after it; the last one closes the list.
    step, row = ",\n" + pad + "    ", "\n" + pad + "  ],\n" + pad + "  [\n" + pad + "    "
    block = [None] * (2 * points.size)
    block[0::2] = _float_texts(points)
    block[1::2] = [step, step, row] * len(points)
    block[-1] = "\n" + pad + "  ]\n" + pad + "]"
    return "[\n" + pad + "  [\n" + pad + "    " + "".join(block)


def objects_to_json(scene: Scene, pad: str = "") -> list[str]:
    """Each object as ``json.dumps(entry, indent=2)`` writes it at indent ``pad``, from the columns.

    Only a sampled object's region is read, for its points and normals.
    """
    n = len(scene)
    templates = {kind: t.replace("\n", "\n" + pad) for kind, t in _OBJECT.items()}
    flat = list(chain.from_iterable(scene.rows))
    # A JSON integer coordinate stays an integer; a float, np.float64 too, is written as a float.
    all_floats = {float}.issuperset(map(type, flat))
    xyz = iter(_float_texts(scene.centers) if all_floats else map(json.dumps, flat))
    diameters = _float_texts(np.concatenate([scene.d_min, scene.d_max]))
    fields = list(zip(map(encode_basestring_ascii, scene.ids), xyz, xyz, xyz, diameters[:n], diameters[n:]))
    for i in np.flatnonzero(~scene.exact).tolist():
        s, inner = scene.region(i).shape, pad + "    "
        blocks = _rows_json(s.points, inner), _rows_json(s.normals, inner)
        fields[i] = fields[i][:4] + blocks + fields[i][4:]
    return [templates[kind] % f for kind, f in zip(scene.kinds, fields)]


def scene_to_json(scene: Scene) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of the scene document, to the byte."""
    objects = ",\n    ".join(objects_to_json(scene, "    "))
    return '{\n  "cube_edge_m": %s,\n  "d_min_m": %s,\n  "d_max_m": %s,\n  "objects": %s\n}\n' % (
        *(json.dumps(float(v)) for v in (scene.cube_edge, scene.d_min_global, scene.d_max_global)),
        "[\n    " + objects + "\n  ]" if len(scene) else "[]",
    )


def tour_to_json(tour: Tour) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of the trajectory document, to the byte."""
    visits = ",\n    ".join(
        '{\n      "object_id": %s,\n      "waypoint_index": %d\n    }'
        % (encode_basestring_ascii(v.object_id), v.waypoint_index)
        for v in tour.visits
    )
    return '{\n  "length_m": %s,\n  "waypoints_m": %s,\n  "visits": %s\n}\n' % (
        json.dumps(tour_length(tour)),
        _rows_json(tour.waypoints, "  "),
        "[\n    " + visits + "\n  ]" if visits else "[]",
    )


def tour_from_json(text: str) -> Tour:
    """Parse a trajectory document; malformed fields raise ContractError naming their path."""
    doc = _parse(text)
    return Tour(
        waypoints=_points(_list(doc, "waypoints_m"), "waypoints_m"),
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


def _run_cell(scene: Scene, seed: int, method: str, samples_per_region: int) -> ComparisonRow:
    start, rng = Point3(0.0, 0.0, 0.0), np.random.default_rng(seed)
    t0 = time.perf_counter()
    tour, _ = PLANNERS[method](start, scene, rng, TspConfig(), samples_per_region)
    runtime = time.perf_counter() - t0
    valid = missed_objects(tour, scene) == []
    return ComparisonRow(
        method=method,
        n_objects=len(scene),
        seed=seed,
        length_m=tour_length(tour),
        runtime_s=runtime,
        valid=valid,
    )


def run_comparison(
    config: SceneConfig,
    methods: list[str],
    seeds: int,
    samples_per_region: int = DEFAULT_SAMPLES_PER_REGION,
) -> ComparisonReport:
    """Plan every (seed, method) cell from the origin and aggregate lengths/runtimes.

    Methods are ids of ``PLANNERS``. Scene seeds are ``config.seed + k`` for k
    in range(seeds); each seed's scene is drawn once, untimed, and planned by
    every method, which is handed ``np.random.default_rng(seed)``. Coverage is
    audited before a row is recorded; failures mark the row invalid.
    """
    if not methods:
        raise ContractError(f"no method given; choose from {tuple(PLANNERS)}")
    for k, m in enumerate(methods):
        if m not in PLANNERS:
            raise ContractError(f"unknown method {m!r}; choose from {tuple(PLANNERS)}")
        if m in methods[:k]:
            raise ContractError(f"method {m!r} given twice")
    if seeds < 1:
        raise ContractError("seeds must be >= 1")

    rows = []
    for seed in range(config.seed, config.seed + seeds):
        scene = generate_scene(replace(config, seed=seed))
        rows += (_run_cell(scene, seed, method, samples_per_region) for method in methods)

    aggregates = []
    for method in sorted(methods):
        lengths = np.array([r.length_m for r in rows if r.method == method])
        runtimes = np.array([r.runtime_s for r in rows if r.method == method])
        std = float(np.std(lengths, ddof=1)) if len(lengths) >= 2 else 0.0
        aggregates.append(
            Aggregate(
                method=method,
                n_objects=config.n_objects,
                mean_length_m=float(np.mean(lengths)),
                std_length_m=std,
                mean_runtime_s=float(np.mean(runtimes)),
            )
        )
    return ComparisonReport(rows=tuple(rows), aggregates=tuple(aggregates))


ROWS_CSV_HEADER = ["method", "n_objects", "seed", "length_m", "runtime_s"]
AGG_CSV_HEADER = ["method", "n_objects", "mean_length_m", "std_length_m", "mean_runtime_s"]


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_rows_csv(report: ComparisonReport) -> str:
    return _csv(
        ROWS_CSV_HEADER,
        ([r.method, r.n_objects, r.seed, repr(r.length_m), repr(r.runtime_s)] for r in report.rows),
    )


def report_aggregates_csv(report: ComparisonReport) -> str:
    return _csv(
        AGG_CSV_HEADER,
        (
            [a.method, a.n_objects, repr(a.mean_length_m), repr(a.std_length_m),
             repr(a.mean_runtime_s)]
            for a in report.aggregates
        ),
    )
