"""Workload inputs, requests and output checks.

A workload prepares a set of scenes during set-up, then serves one request
per call of ``request``. Requests reach tspn through attribute lookups on
the module namespace (``mods.cli.main``), so that the tracer's patches are
the functions actually called. A request calls ``lap`` between its stages,
where the runner calibrates machine speed (see calibration.py); the time of
those pauses is not the request's. After each request, ``outputs`` checks what
it produced (untimed) and returns the bytes for the determinism digest and
the trajectory lengths for the quality metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import types
from pathlib import Path

import numpy as np

import check

MODULES = ("tspn", "tspn.cli", "tspn.bench", "tspn.geom", "tspn.planner", "tspn.tsp", "tspn.viewscore")


def fresh_import(src: Path) -> types.SimpleNamespace:
    """Import tspn from ``src`` afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "tspn" or m.startswith("tspn.")]:
        del sys.modules[name]
    mods = {m.rpartition(".")[2]: importlib.import_module(m) for m in MODULES}
    origin = Path(mods["tspn"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"imported tspn from {origin}, not from {src}")
    return types.SimpleNamespace(**mods)


def scene_seed(seed: int, workload_index: int, scene: int) -> int:
    return int(np.random.SeedSequence((seed, workload_index, scene)).generate_state(1)[0])


class Workload:
    """Scenes of one workload and the request run against each."""

    def __init__(self, spec: dict, profile: dict, index: int, seed: int, workdir: Path):
        self.spec = spec
        self.profile = profile
        self.index = index
        self.seed = seed
        self.workdir = workdir
        self.n = int(spec["n_objects"])
        self.d_min = float(profile["d_min_m"])
        self.d_max = float(profile["d_max_m"])
        self.start = np.array([float(v) for v in profile["start"].split(",")])
        self.scenes: list[dict] = []

    # ------------------------------------------------------------ set-up

    def prepare(self) -> None:
        """Benchmark-side inputs that are not program work (none by default)."""

    def _scene_json(self, mods, k: int) -> str:
        cfg = mods.bench.SceneConfig(
            n_objects=self.n,
            d_min=self.d_min,
            d_max=self.d_max,
            cube_edge=float(self.spec["cube_edge_m"]),
            disjoint=bool(self.spec["disjoint"]),
            overlap_rate=float(self.spec["overlap_rate"]),
            seed=scene_seed(self.seed, self.index, k),
        )
        return mods.bench.scene_to_json(mods.bench.generate_scene(cfg))

    def build_scene(self, mods, k: int) -> bytes:
        """Program-side input construction for scene ``k``; returns what it wrote."""
        text = self._scene_json(mods, k)
        (self.workdir / f"scene-{k}.json").write_text(text)
        return text.encode()

    def adopt_scene(self, k: int, data: bytes) -> None:
        """Parse scene ``k`` for the checks (untimed)."""
        doc = json.loads(data)
        self.scenes.append(
            {
                "path": str(self.workdir / f"scene-{k}.json"),
                "ids": [o["id"] for o in doc["objects"]],
                "centers": np.array([o["center_m"] for o in doc["objects"]], dtype=float),
                "radii": np.array([o["shape"]["diameter_m"] / 2.0 for o in doc["objects"]]),
            }
        )

    # ------------------------------------------------------------ requests

    def _cli(self, mods, argv: list[str]) -> None:
        code = mods.cli.main(argv)
        if code != 0:
            raise check.CheckError(f"tspn {argv[0]} exited with {code}")

    def request(self, mods, k: int, lap) -> None:
        raise NotImplementedError

    def outputs(self, k: int) -> tuple[bytes, list[float], list[float]]:
        """(artifact bytes, trajectory lengths, lengths over bound) after checks."""
        raise NotImplementedError

    def _out(self, name: str) -> Path:
        return self.workdir / name

    def _read(self, name: str) -> bytes:
        return self._out(name).read_bytes()

    def _checked_sphere_tour(self, scene: dict, data: bytes) -> float:
        w = check.check_trajectory(json.loads(data), self.start)
        check.check_touches_spheres(w, scene["centers"], scene["radii"], self.d_min)
        length = check.polyline_length(w)
        if self.spec["disjoint"]:
            check.check_count_bound(length, self.n, self.d_min)
        return length


class PlanWorkload(Workload):
    """``tspn plan`` then ``tspn validate`` on a pre-written scene file."""

    def request(self, mods, k: int, lap) -> None:
        scene = self.scenes[k]["path"]
        seed = str(self.profile["cli_seed"])
        self._cli(mods, ["plan", "--scene", scene, "--start", self.profile["start"],
                         "--seed", seed, "--out", str(self._out("traj.json"))])
        lap()
        self._cli(mods, ["validate", "--scene", scene, "--traj", str(self._out("traj.json")),
                         "--out", str(self._out("report.json"))])

    def outputs(self, k: int):
        traj, report = self._read("traj.json"), self._read("report.json")
        length = self._checked_sphere_tour(self.scenes[k], traj)
        check.check_report(json.loads(report), length, bool(self.spec["disjoint"]))
        return traj + report, [length], [length / check.lower_estimate(self.n, self.d_min)]


class BaselinesWorkload(Workload):
    """``tspn baseline`` then ``tspn online --outcomes`` on a pre-written scene file."""

    def request(self, mods, k: int, lap) -> None:
        scene = self.scenes[k]["path"]
        seed = str(self.profile["cli_seed"])
        start = self.profile["start"]
        self._cli(mods, ["baseline", "--scene", scene, "--start", start, "--seed", seed,
                         "--out", str(self._out("base.json"))])
        lap()
        self._cli(mods, ["online", "--scene", scene, "--start", start, "--seed", seed,
                         "--out", str(self._out("online.json")),
                         "--outcomes", str(self._out("outcomes.json"))])

    def outputs(self, k: int):
        scene = self.scenes[k]
        base, online, outcomes = (self._read(f) for f in ("base.json", "online.json", "outcomes.json"))
        lengths = [self._checked_sphere_tour(scene, base), self._checked_sphere_tour(scene, online)]
        check.check_online(
            lengths[1],
            json.loads(outcomes),
            dict(zip(scene["ids"], scene["centers"])),
            dict(zip(scene["ids"], scene["radii"].tolist())),
            self.d_min,
            self.d_max,
        )
        lb = check.lower_estimate(self.n, self.d_min)
        return base + online + outcomes, lengths, [x / lb for x in lengths]


class SampledWorkload(Workload):
    """Imagery pipeline: score synthetic views, fold them into regions, plan."""

    def prepare(self) -> None:
        # Synthetic views are the benchmark's own work: made once, before
        # set-up, and shared by the run's scenes (object i of every scene
        # is seen through view set i).
        spec = self.spec
        views, px = int(spec["views_per_object"]), int(spec["view_px"])
        rng = np.random.default_rng(scene_seed(self.seed, self.index, 1_000_000))
        yy, xx = np.mgrid[0:px, 0:px].astype(float) - (px - 1) / 2.0
        r_lo, r_hi = self.d_min / 2.0 * 1.02, self.d_max / 2.0 * 0.98
        self.images = np.empty((self.n, views, px, px), dtype=np.uint8)
        self.masks = np.empty((self.n, views, px, px), dtype=bool)
        self.geometry = np.empty((self.n, views, 3))  # azimuth, elevation, distance
        for i in range(self.n):
            for j in range(views):
                # The first 16 views are always unoccluded, so every object
                # keeps at least 8 views above the threshold.
                occluded = j >= 16 and rng.uniform() < float(spec["occluded_share"])
                self.images[i, j], self.masks[i, j], self.geometry[i, j] = _synthetic_view(
                    rng, xx, yy, px, r_lo, r_hi, occluded
                )

    def build_scene(self, mods, k: int) -> bytes:
        # The pipeline takes the scene in memory; the JSON is only compared.
        return self._scene_json(mods, k).encode()

    def adopt_scene(self, k: int, data: bytes) -> None:
        doc = json.loads(data)
        self.scenes.append({"centers": [(o["id"], o["center_m"]) for o in doc["objects"]]})

    def request(self, mods, k: int, lap) -> None:
        vs = mods.viewscore
        images, masks, geometry = self.images, self.masks, self.geometry
        objects = []
        for i, (oid, center) in enumerate(self.scenes[k]["centers"]):
            samples = [
                vs.ViewSample(
                    azimuth=float(g[0]),
                    elevation=float(g[1]),
                    distance=float(g[2]),
                    score=vs.viewing_score(
                        vs.GrayImage.from_array(images[i, j]), vs.ObjectMask.from_array(masks[i, j])
                    ),
                )
                for j, g in enumerate(geometry[i])
            ]
            region = vs.build_region_from_scores(
                mods.geom.Point3(*center), samples, float(self.spec["threshold"])
            )
            objects.append(mods.geom.SceneObject(id=oid, region=region))
        scene = mods.geom.Scene(
            objects=tuple(objects),
            d_min_global=self.d_min,
            d_max_global=self.d_max,
            cube_edge=float(self.spec["cube_edge_m"]),
        )
        lap()
        plan = mods.planner.plan_nondisjoint_detailed(
            mods.geom.Point3(*self.start.tolist()), scene, mods.tsp.TspConfig()
        )
        lap()
        report = mods.planner.validate_bounds(scene, plan.tour, plan.detours)
        self._result = (mods.bench.tour_to_json(plan.tour), report, scene)

    def outputs(self, k: int):
        text, report, scene = self._result
        self._result = None
        w = check.check_trajectory(json.loads(text), self.start)
        regions = []
        for (_, center), o in zip(self.scenes[k]["centers"], scene.objects):
            center, points = np.asarray(center, dtype=float), np.asarray(o.region.shape.points)
            d_min = 2.0 * float(np.sqrt(((points - center) ** 2).sum(axis=1)).min())
            regions.append((center, points, d_min))
        check.check_touches_sampled(w, regions)
        self._check_regions(regions)
        length = check.polyline_length(w)
        check.check_count_bound(length, self.n, self.d_min)
        report_doc = {
            "tour_length_m": report.tour_length,
            "count_bound_applicable": report.count_bound_applicable,
            "count_bound_holds": report.count_bound_holds,
            "detour_bounds_hold": [b.holds for b in report.detour_bounds],
        }
        check.check_report(report_doc, length, True)
        if not all(report_doc["detour_bounds_hold"]):
            raise check.CheckError("a detour exceeds its length budget")
        artifact = text.encode() + json.dumps(report_doc, sort_keys=True).encode()
        return artifact, [length], [length / check.lower_estimate(self.n, self.d_min)]

    def _check_regions(self, regions) -> None:
        """Each region's boundary points sit at the view positions of its kept views."""
        for i, (center, points, _) in enumerate(regions):
            az, el, dist = self.geometry[i].T
            ring = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
            expected = center + ring * dist[:, None]
            near = np.sqrt(((points[:, None, :] - expected[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
            if len(points) < 8 or len(points) > len(expected) or np.any(near > 1e-9):
                raise check.CheckError(f"region {i}: boundary points are not kept view positions")


def _synthetic_view(rng, xx, yy, px, r_lo, r_hi, occluded):
    """One textured object view; occluded views show too little object to pass."""
    distance = rng.uniform(r_lo, r_hi)
    azimuth = rng.uniform(-math.pi, math.pi)
    elevation = math.asin(rng.uniform(-1.0, 1.0))
    if occluded:
        a = rng.uniform(4.0, 7.0)
    else:
        a = px * 0.3 * r_lo / distance
    b = a * rng.uniform(0.6, 1.0)
    th = rng.uniform(0.0, math.pi)
    u = xx * math.cos(th) + yy * math.sin(th)
    v = -xx * math.sin(th) + yy * math.cos(th)
    mask = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    texture = np.zeros((px, px))
    for _ in range(4):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        freq = rng.uniform(0.15, 0.6)
        texture += np.sin(freq * (xx * math.cos(ang) + yy * math.sin(ang)) + rng.uniform(0.0, 2 * math.pi))
    image = np.clip(np.where(mask, 128.0 + 30.0 * texture, 40.0), 0, 255).astype(np.uint8)
    return image, mask, (azimuth, elevation, distance)


KINDS = {"plan": PlanWorkload, "baselines": BaselinesWorkload, "sampled": SampledWorkload}
