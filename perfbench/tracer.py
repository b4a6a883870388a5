"""Outside-in tracing of tspn's public functions.

The tracer swaps each traced function for a wrapper in every loaded
``tspn`` module namespace that holds it, so calls between modules and
within one module both pass through the wrapper. Each call is recorded as
a span (name, start, end, parent span, request id) in flat arrays kept in
memory; self time is derived from the spans when a request ends. Counters
are taken from arguments and return values at the same boundary.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter

import numpy as np


def _solve_order(c, args, result):
    n = len(args[0])
    c["tsp.solve_order.points"] += n
    c["tsp.matrix_bytes"] += 8 * n * n


def _mis(c, args, result):
    c["planner.mis.kept"] += len(result.kept)
    c["planner.mis.removed"] += len(result.assignment)


def _nondisjoint(c, args, result):
    c["planner.detours"] += len(result.detours)
    c["planner.patch_visits"] += len(result.patched_ids)
    c["planner.waypoints"] += len(result.tour.waypoints)


def _detour(c, args, result):
    owner, d_min = args[0], args[1]
    c["detour.length"] += result.length
    c["detour.limit"] += 3.0 * math.pi * owner.d_max**2 / d_min


def _intersect(c, args, result):
    c["geom.regions_intersect.hits"] += bool(result)


def _region_from_scores(c, args, result):
    c["viewscore.views_scored"] += len(args[1])
    c["viewscore.views_kept"] += result.shape.points.shape[0]


# (module, function, span name, counter hook). Hooks read positional
# arguments only; every traced call site in tspn passes these positionally.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("bench", "generate_scene", "bench.generate_scene", None),
    ("bench", "scene_from_json", "bench.scene_from_json", None),
    ("bench", "tour_to_json", "bench.tour_to_json", None),
    ("tsp", "solve_order", "tsp.solve_order", _solve_order),
    ("planner", "center_visit", "planner.center_visit", None),
    ("planner", "maximal_independent_set", "planner.maximal_independent_set", _mis),
    ("planner", "plan_nondisjoint_detailed", "planner.plan_nondisjoint_detailed", _nondisjoint),
    ("planner", "build_detour", "planner.build_detour", _detour),
    ("planner", "validate_bounds", "planner.validate_bounds", None),
    ("planner", "scene_is_disjoint", "planner.scene_is_disjoint", None),
    ("planner", "alpha_fat_baseline", "planner.alpha_fat_baseline", None),
    ("planner", "plan_online", "planner.plan_online", None),
    ("geom", "regions_intersect", "geom.regions_intersect", _intersect),
    ("geom", "region_contains", "geom.region_contains", None),
    ("geom", "closest_point_on_region", "geom.closest_point_on_region", None),
    ("geom", "farthest_pair_distance", "geom.farthest_pair_distance", None),
    ("viewscore", "viewing_score", "viewscore.viewing_score", None),
    ("viewscore", "build_region_from_scores", "viewscore.build_region_from_scores", _region_from_scores),
)
SPAN_NAMES = tuple(t[2] for t in TRACED)
# Spans reported as self time (their children are reported on their own);
# every other span is reported as inclusive time under "<span>.s".
SELF_TIMED = {
    "cli.main": "cli.self_s",
    "planner.center_visit": "planner.center_visit.s",
    "planner.plan_nondisjoint_detailed": "planner.plan_nondisjoint_detailed.self_s",
}


class Tracer:
    """Span recorder for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.request_id = -1
        self.names = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = _zero_counters()

    def _wrap(self, fn, span_id, hook):
        names, parents, requests = self.names, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Patch every traced function in every loaded tspn namespace."""
        tspn_modules = [m for k, m in sys.modules.items() if k == "tspn" or k.startswith("tspn.")]
        for span_id, (mod_name, fn_name, _, hook) in enumerate(TRACED):
            original = getattr(getattr(modules, mod_name), fn_name)
            wrapped = self._wrap(original, span_id, hook)
            for mod in tspn_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        oracle = modules.planner.SimulationOracle
        poll = oracle.__call__
        tracer = self

        def counted_poll(oracle_self, object_id, position):
            detected = poll(oracle_self, object_id, position)
            tracer.counters["planner.online.polls"] += 1
            tracer.counters["planner.online.detections"] += bool(detected)
            return detected

        self._patches.append((oracle, "__call__", poll))
        oracle.__call__ = counted_poll

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def begin(self, request_id: int) -> None:
        # Arrays are cleared in place: the installed wrappers hold them.
        for arr in (self.names, self.parents, self.requests, self.starts, self.ends):
            del arr[:]
        del self._stack[1:]
        self.counters.update(_zero_counters())
        self.request_id = request_id

    def collect(self) -> dict[str, float]:
        """Per-layer values of the spans and counters since begin()."""
        names = np.array(self.names, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        selftime = dur - child
        k = len(SPAN_NAMES)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=selftime, minlength=k)
        calls = np.bincount(names, minlength=k)
        by = {n: i for i, n in enumerate(SPAN_NAMES)}
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for i, name in enumerate(SPAN_NAMES):
            if name in SELF_TIMED:
                out[SELF_TIMED[name]] = self_total[i]
            else:
                out[name + ".s"] = total[i]
        for name in (
            "geom.regions_intersect", "geom.region_contains",
            "geom.closest_point_on_region", "viewscore.viewing_score",
        ):
            out[name + ".calls"] = calls[by[name]]
        for name in COUNTERS:
            out[name] = c[name]
        out["geom.regions_intersect.hit_ratio"] = ratio(
            c["geom.regions_intersect.hits"], calls[by["geom.regions_intersect"]]
        )
        out["planner.detour_budget_used"] = ratio(c["detour.length"], c["detour.limit"])
        out["planner.online.detect_ratio"] = ratio(
            c["planner.online.detections"], c["planner.online.polls"]
        )
        out["viewscore.kept_ratio"] = ratio(c["viewscore.views_kept"], c["viewscore.views_scored"])
        return {k: float(v) for k, v in out.items()}


# Counters reported as they are, and counters that only feed a ratio.
COUNTERS = (
    "tsp.solve_order.points", "tsp.matrix_bytes", "planner.mis.kept", "planner.mis.removed",
    "planner.detours", "planner.patch_visits", "planner.waypoints", "planner.online.polls",
)
_RATIO_PARTS = (
    "detour.length", "detour.limit", "geom.regions_intersect.hits",
    "viewscore.views_scored", "viewscore.views_kept", "planner.online.detections",
)
# Per-layer metrics that are counts or ratios of counts, so deterministic for
# a scene, as opposed to times: these are compared across repeats of a scene.
COUNT_METRICS = COUNTERS + (
    "geom.regions_intersect.calls", "geom.regions_intersect.hit_ratio",
    "geom.region_contains.calls", "geom.closest_point_on_region.calls",
    "planner.detour_budget_used", "planner.online.detect_ratio",
    "viewscore.viewing_score.calls", "viewscore.kept_ratio",
)


def _zero_counters() -> dict[str, float]:
    return dict.fromkeys(COUNTERS + _RATIO_PARTS, 0)
