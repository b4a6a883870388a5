"""Command-line interface.

Subcommands cover scene generation, planning, the baseline, the online
planner, independent-set extraction, detour construction, viewing scores,
score-driven region construction, bound validation and the comparison
harness. gen-scene, plan, baseline, online and compare take a required
--seed and are reproducible. plan and baseline draw nothing from theirs:
it seeds the generator every planning method is handed, and stays required
because the benchmark passes it. Exit status is 0 on success, 1 on
contract errors and 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .bench import (
    SceneConfig,
    check_scene_spacing,
    check_spacing,
    generate_scene,
    objects_to_json,
    report_aggregates_csv,
    report_rows_csv,
    run_comparison,
    scene_from_json,
    scene_to_json,
    tour_from_json,
    tour_to_json,
)
from .errors import TspnError
from .geom import Point3, Scene, SceneObject
from .planner import DEFAULT_SAMPLES_PER_REGION, PLANNERS, build_detour, maximal_independent_set, validate_bounds
from .tsp import TspConfig
from .viewscore import (
    DIAMETER_PROFILES,
    build_region_from_scores,
    read_mask_pgm,
    read_pgm,
    read_score_csv,
    region_from_profile,
    viewing_score,
)


def _parse_point(text: str) -> Point3:
    parts = text.split(",")
    if len(parts) != 3:
        raise TspnError(f"expected x,y,z coordinates, got {text!r}")
    return Point3(float(parts[0]), float(parts[1]), float(parts[2]))


def _read_scene(path):
    with open(path) as f:
        return scene_from_json(f.read())


def _scene_and_start(args):
    """The scene, then ``--start``, held to the scene coordinates' spacing rule."""
    scene = _read_scene(args.scene)
    start = _parse_point(args.start)
    check_spacing(scene.d_min_global, np.abs(start.as_array()).max(), 0.0, lambda _: "--start")
    return scene, start


def _write(path, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _write_json(path, doc) -> None:
    _write(path, json.dumps(doc, indent=2) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(prog="tspn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        """A subcommand's parser, which binds itself as ``parser`` and its handler as ``run``."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(parser=p, run=run)
        return p

    p = command("gen-scene", _cmd_gen_scene, "generate a seeded random scene")
    p.add_argument("--n", type=int, required=True, help="number of objects")
    p.add_argument("--cube-edge", type=float, default=100.0, help="cube edge length (m)")
    p.add_argument("--dmin", type=float, required=True, help="global minimum diameter (m)")
    p.add_argument("--dmax", type=float, required=True, help="global maximum diameter (m)")
    p.add_argument("--disjoint", action="store_true", help="reject overlapping outer balls")
    p.add_argument("--overlap-rate", type=float, default=0.0,
                   help="fraction of centers placed within dmin of a prior center")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="output scene JSON path")

    def planning(name, method, help_text):
        """A planning command: the shared options, bound to ``method`` with every own option's default."""
        p = command(name, _cmd_planner, help_text)
        p.add_argument("--scene", required=True, help="scene JSON path")
        p.add_argument("--start", default="0,0,0", help="start position x,y,z (m)")
        p.add_argument("--seed", type=int, required=True, help="RNG seed")
        p.add_argument("--out", required=True, help="output trajectory JSON path")
        p.set_defaults(method=method, solver="heuristic", samples=DEFAULT_SAMPLES_PER_REGION, outcomes=None)
        return p

    planning("plan", "center-visit", "plan a tour touching every region").add_argument(
        "--solver", choices=["exact", "heuristic"])
    planning("baseline", "alpha-fat", "surface-representative baseline tour").add_argument(
        "--samples", type=int, help="boundary samples per region")
    planning("online", "online", "online hollow-ball planning with a detection oracle").add_argument(
        "--outcomes", help="optional detection-outcomes JSON path")

    p = command("mis", _cmd_mis, "greedy maximal independent set of a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)

    p = command("detour", _cmd_detour, "perimeter-and-spike detour around one region")
    p.add_argument("--scene", required=True)
    p.add_argument("--object", required=True, help="object id owning the detour")
    p.add_argument("--out", required=True)

    p = command("score", _cmd_score, "viewing score of an image/mask pair")
    p.add_argument("--image", required=True, help="grayscale PGM (P5)")
    p.add_argument("--mask", required=True, help="object mask PGM (nonzero = object)")
    p.add_argument("--edge-fraction", type=float, default=0.1)

    p = command("region", _cmd_region, "build a detection region from scored views")
    p.add_argument("--center", required=True, help="object center x,y,z (m)")
    p.add_argument("--scores", help="view-score CSV (azimuth_rad,elevation_rad,distance_m,score)")
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--profile", choices=sorted(DIAMETER_PROFILES),
                   help="class defaults used when no score table is supplied")
    p.add_argument("--out", required=True)

    p = command("validate", _cmd_validate, "evaluate analytic bounds for a planned tour")
    p.add_argument("--scene", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", help="optional report JSON path (stdout otherwise)")

    p = command("compare", _cmd_compare, "run the method-comparison harness")
    p.add_argument("--profile", choices=sorted(DIAMETER_PROFILES),
                   help="bind dmin/dmax from a class profile")
    p.add_argument("--dmin", type=float)
    p.add_argument("--dmax", type=float)
    p.add_argument("--n", type=int, required=True, help="objects per scene")
    p.add_argument("--cube-edge", type=float, default=100.0)
    p.add_argument("--seeds", type=int, default=10, help="number of seeded repetitions")
    p.add_argument("--seed", type=int, required=True, help="base seed")
    p.add_argument("--methods", default="center-visit,alpha-fat",
                   help="comma-separated method ids")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES_PER_REGION)
    p.add_argument("--overlap-rate", type=float, default=0.0)
    p.add_argument("--nondisjoint", action="store_true")
    p.add_argument("--out", required=True, help="per-run rows CSV path")
    p.add_argument("--aggregate-out", help="optional aggregate CSV path")
    return parser


def _cmd_gen_scene(args) -> int:
    cfg = SceneConfig(
        n_objects=args.n,
        d_min=args.dmin,
        d_max=args.dmax,
        cube_edge=args.cube_edge,
        disjoint=args.disjoint,
        overlap_rate=args.overlap_rate,
        seed=args.seed,
    )
    _write(args.out, scene_to_json(generate_scene(cfg)))
    return 0


# One detection outcome as json.dumps(outcomes, indent=2) writes it in its list.
_OUTCOME = (
    '{\n    "object_id": %s,\n    "realized_diameter_m": %s,\n'
    '    "detected_at_m": [\n      %s,\n      %s,\n      %s\n    ]\n  }'
)


def _cmd_planner(args) -> int:
    """``plan``, ``baseline`` or ``online``: the method its parser binds, run from the table."""
    scene, start = _scene_and_start(args)
    rng, tsp = np.random.default_rng(args.seed), TspConfig(solver=args.solver)
    tour, outcomes = PLANNERS[args.method](start, scene, rng, tsp, args.samples)
    _write(args.out, tour_to_json(tour))
    if args.outcomes:
        entries = ",\n  ".join(
            _OUTCOME % (encode_basestring_ascii(o.object_id),
                        *map(float.__repr__, [o.realized_diameter, *o.detected_at.tolist()]))
            for o in outcomes
        )
        _write(args.outcomes, "[\n  " + entries + "\n]\n" if entries else "[]\n")
    return 0


def _cmd_mis(args) -> int:
    scene = _read_scene(args.scene)
    res = maximal_independent_set(scene)
    doc = {"kept": list(res.kept), "assignment": dict(sorted(res.assignment.items()))}
    _write_json(args.out, doc)
    return 0


def _cmd_detour(args) -> int:
    scene = _read_scene(args.scene)
    obj = scene.get(args.object)
    plan = build_detour(obj.region, scene.d_min_global, owner_id=obj.id)
    doc = {
        "owner_id": plan.owner_id,
        "axis_m": plan.axis.tolist(),
        "length_m": plan.length,
        "perimeters_m": [ring.tolist() for ring in plan.perimeters],
        "spikes_m": [
            {"c_in_m": c_in.tolist(), "c_out_m": c_out.tolist()} for c_in, c_out in plan.spikes
        ],
        "stitched_m": plan.stitched.tolist(),
    }
    _write_json(args.out, doc)
    return 0


def _cmd_score(args) -> int:
    image = read_pgm(args.image)
    mask = read_mask_pgm(args.mask)
    print(viewing_score(image, mask, edge_fraction=args.edge_fraction))
    return 0


def _cmd_region(args) -> int:
    center = _parse_point(args.center)
    if args.scores:
        samples = read_score_csv(args.scores)
        region = build_region_from_scores(center, samples, threshold=args.threshold)
    elif args.profile:
        region = region_from_profile(center, args.profile)
    else:
        raise TspnError("provide --scores or --profile")
    scene = Scene([SceneObject("region-0", region)], region.d_min, region.d_max)
    check_scene_spacing(scene, lambda _: "--center")  # what scene_from_json would refuse
    _write(args.out, objects_to_json(scene)[0] + "\n")
    return 0


def _cmd_validate(args) -> int:
    scene = _read_scene(args.scene)
    with open(args.traj) as f:
        tour = tour_from_json(f.read())
    report = validate_bounds(scene, tour)
    doc = {
        "n_objects": report.n_objects,
        "tour_length_m": report.tour_length,
        "count_bound": report.count_bound,
        "count_bound_applicable": report.count_bound_applicable,
        "count_bound_holds": report.count_bound_holds,
        "online_lower_bound_m": report.online_lower_bound,
        "online_lower_bound_holds": report.online_lower_bound_holds,
        "length_over_lower_bound": report.length_over_lower_bound,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    d_min, d_max = args.dmin, args.dmax
    if args.profile:
        prof = DIAMETER_PROFILES[args.profile]
        d_min = prof.d_min if d_min is None else d_min
        d_max = prof.d_max if d_max is None else d_max
    if d_min is None or d_max is None:
        raise TspnError("provide --profile or both --dmin and --dmax")
    cfg = SceneConfig(
        n_objects=args.n,
        d_min=d_min,
        d_max=d_max,
        cube_edge=args.cube_edge,
        disjoint=not args.nondisjoint,
        overlap_rate=args.overlap_rate,
        seed=args.seed,
    )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = run_comparison(cfg, methods, seeds=args.seeds, samples_per_region=args.samples)
    _write(args.out, report_rows_csv(report))
    if args.aggregate_out:
        _write(args.aggregate_out, report_aggregates_csv(report))
    if report.has_invalid_rows:
        print("warning: some rows failed the coverage audit", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _parser()
        args, extra = parser.parse_known_args(argv)
        if extra:
            # A token before the subcommand was given to tspn, which knows none;
            # one after it to the subcommand, whose usage shows what it takes.
            argv = sys.argv[1:] if argv is None else argv
            before = argv[:argv.index(args.command)]
            (parser if before else args.parser).error(
                f"unrecognized arguments: {' '.join(before or extra)}")
        return args.run(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error
        return 1 if exc.code else 0
    except (TspnError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
