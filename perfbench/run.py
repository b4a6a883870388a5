"""tspn benchmark: seeded planning workloads, end-to-end and per-layer metrics.

One workload, as a fresh process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it, each starting with ``#``, give every metric with its unit
and sample count, the environment, the output digest and a ``# record``
line with all of it as JSON. Times are reported at reference machine
speed (see calibration.py); the record also keeps them unscaled. The exit
status is 1 when an output check fails and 2 when tspn cannot be imported
from ``src/``.

All workloads, each untraced and then traced in its own process, with a
summary of every metric, the tracing overhead and a digest comparison:

    python3 perfbench/run.py [--seed N] [--seconds S] [--out records.json]

Workloads, parameters and the layer-to-metric map are in perfbench/spec.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One thread everywhere, so a run's load stays within two cores; set before
# numpy is imported.
PINNED_ENV = {
    "TSPN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_spec() -> dict:
    with open(HERE / "spec.json") as f:
        return json.load(f)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(args, spec: dict) -> int:
    import numpy as np

    import calibration
    import workloads
    from tracer import COUNT_METRICS, Tracer

    names = [w["name"] for w in spec["workloads"]]
    index = names.index(args.workload)
    wspec = spec["workloads"][index]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.KINDS[wspec["kind"]](wspec, spec["profile"], index, args.seed, workdir)
        wl.prepare()
        n_scenes, reps = int(wspec["scenes"]), int(wspec["setup_reps"])
        tracer = Tracer() if args.trace else None
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        problems: list[str] = []
        # Every timed section is reported at reference machine speed; the
        # raw wall times go to the record as well (see calibration.py).
        speed = calibration.SpeedScale()
        wall: dict[str, list[float]] = {"setup_s": [], "request_s": []}

        # Set-up, repeated: fresh import plus one scene's construction.
        setup_s, generate_s, built = [], [], {}
        for rep in range(reps):
            k = rep % n_scenes
            t0 = perf_counter()
            mods = workloads.fresh_import(SRC)
            if tracer:
                tracer.install(mods)
                tracer.begin(-1 - rep)
            data = wl.build_scene(mods, k)
            elapsed = perf_counter() - t0
            scale = speed.after_section()
            wall["setup_s"].append(elapsed)
            setup_s.append(elapsed * scale)
            if tracer:
                generate_s.append(tracer.collect()["bench.generate_scene.s"] * scale)
                tracer.uninstall()
            if k not in built:
                built[k] = data
                wl.adopt_scene(k, data)
            elif built[k] != data:
                problems.append(f"scene {k} differs between set-up repetitions")

        # Closed loop, one client: request 0 is the discarded warm-up, and
        # the loop runs until the window has passed and every scene was served.
        if tracer:
            tracer.install(mods)
        first: dict[int, tuple] = {}
        times, layer_rows = [], []
        attempted = failed = objects = 0
        i, window_start = 0, None
        while True:
            k = i % n_scenes
            if tracer:
                tracer.begin(i)
            attempted += 1
            watch = calibration.Stopwatch(speed)
            try:
                wl.request(mods, k, watch.lap)
                watch.lap()
                artifact, lengths, ratios = wl.outputs(k)
            except Exception as exc:  # a failed request is counted, and the loop goes on
                failed += 1
                problems.append(f"request {i} (scene {k}): {exc!r}")
                traceback.print_exc(file=sys.stderr)
            else:
                scale = watch.scaled / watch.wall
                layers = tracer.collect() if tracer else {}
                layers = {m: v * scale if units[m] == "s" else v for m, v in layers.items()}
                counts = {m: layers[m] for m in COUNT_METRICS} if tracer else {}
                digest = hashlib.sha256(artifact).hexdigest()
                if k not in first:
                    first[k] = (digest, lengths, ratios, layers)
                elif (digest, counts) != (first[k][0], {m: first[k][3][m] for m in counts}):
                    failed += 1
                    problems.append(f"request {i}: scene {k} gave a different output or count")
                if i > 0:
                    wall["request_s"].append(watch.wall)
                    times.append(watch.scaled)
                    objects += wl.n
                    layer_rows.append(layers)
            i += 1
            if window_start is None:
                window_start = perf_counter()
            if i > n_scenes and perf_counter() - window_start >= args.seconds:
                break
        if tracer:
            tracer.uninstall()

        digests = [first[k][0] for k in sorted(first)]
        lengths = [x for k in sorted(first) for x in first[k][1]]
        ratios = [x for k in sorted(first) for x in first[k][2]]
        e2e = {
            "setup_s": (_median(setup_s), len(setup_s)),
            "plan_s_p50": (_median(times), len(times)),
            "objects_per_s": (objects / sum(times) if times else 0.0, len(times)),
            "tour_length_m": (statistics.fmean(lengths) if lengths else 0.0, len(lengths)),
            "length_over_lb": (statistics.fmean(ratios) if ratios else 0.0, len(ratios)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        per_layer = {}
        if tracer:
            for m in spec["per_layer"]:
                name = m["name"]
                if name in COUNT_METRICS:
                    per_layer[name] = (_median([first[k][3][name] for k in sorted(first)]), len(first))
                elif name == "bench.generate_scene.s":
                    per_layer[name] = (_median(generate_s), len(generate_s))
                elif name == "trace.request_s":
                    per_layer[name] = (_median(times), len(times))
                elif name == "machine.calibration_s":
                    per_layer[name] = (_median(speed.samples), len(speed.samples))
                else:
                    per_layer[name] = (_median([row[name] for row in layer_rows]), len(layer_rows))

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                **{k: os.environ.get(k) for k in PINNED_ENV},
            },
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "scene_digests": digests,
            "metrics": {
                name: {"value": v, "unit": units[name], "samples": n}
                for name, (v, n) in {**e2e, **per_layer}.items()
            },
            "problems": problems,
            "request_s": times,
            "wall": {
                "setup_s": wall["setup_s"],
                "request_s": wall["request_s"],
                "plan_s_p50": _median(wall["request_s"]),
                "calibration_s": speed.samples,
            },
        }
        env = record["environment"]
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace} | "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        for name, m in record["metrics"].items():
            print(f"# {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
        print(f"# failed_frac = {record['failed_frac']:.6g} ratio ({failed} of {attempted})")
        print(f"# unscaled wall plan_s_p50 = {record['wall']['plan_s_p50']:.6g} s; "
              f"calibration median {_median(speed.samples):.6g} s against "
              f"{calibration.REFERENCE_S} s reference (n={len(speed.samples)})")
        print(f"# digest {record['digest']}")
        for p in problems:
            print(f"# problem: {p}")
        print("# record " + json.dumps(record, sort_keys=True))
        shown = e2e if not args.trace else per_layer
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in shown.items()},
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_all(args, spec: dict) -> int:
    """Every workload untraced then traced, each in a fresh pinned process."""
    env = {**os.environ, **PINNED_ENV}
    records, ok = [], True
    for w in spec["workloads"]:
        pair = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("# record ")]
            if proc.returncode != 0 or not lines:
                print(f"{w['name']} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                sys.stderr.write(proc.stdout)
                ok = False
                continue
            pair[trace] = json.loads(lines[-1][len("# record "):])
            records.append(pair[trace])
        if len(pair) < 2:
            continue
        plain, traced = pair[0], pair[1]
        print(f"\n== {w['name']} (seed {args.seed}, {args.seconds} s)  "
              f"nproc={plain['environment']['nproc']} python={plain['environment']['python']} "
              f"numpy={plain['environment']['numpy']}")
        for m in spec["end_to_end"]:
            v = plain["metrics"][m["name"]]
            print(f"  {m['name']:<16} {v['value']:>14.6g} {v['unit']:<6} n={v['samples']}")
        print(f"  {'failed_frac':<16} {plain['failed_frac']:>14.6g} ratio  "
              f"n={plain['attempted']}")
        print("  per layer (traced run, median per request):")
        for m in spec["per_layer"]:
            v = traced["metrics"][m["name"]]
            print(f"    {m['name']:<42} {v['value']:>14.6g} {v['unit']:<6} n={v['samples']}")
        base = plain["metrics"]["plan_s_p50"]["value"]
        overhead = traced["metrics"]["trace.request_s"]["value"] / base - 1.0 if base else 0.0
        print(f"  tracing overhead: {overhead:+.1%} of the untraced plan_s_p50")
        print(f"  unscaled wall plan_s_p50 {plain['wall']['plan_s_p50']:.6g} s, calibration "
              f"median {statistics.median(plain['wall']['calibration_s']):.6g} s")
        same = plain["digest"] == traced["digest"] and all(
            plain["metrics"][q]["value"] == traced["metrics"][q]["value"]
            for q in ("tour_length_m", "length_over_lb")
        )
        print(f"  digest {plain['digest'][:16]}… identical with tracing: {same}")
        ok = ok and same and plain["failed"] == 0 and traced["failed"] == 0
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="tspn benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="all workloads: write the run records here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tspn" / "__init__.py").is_file():
        print(f"error: no tspn package under {SRC}; run from a tspn checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
