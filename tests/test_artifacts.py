"""Golden CLI artifacts: SHA-256 pins of each command's exit code, stderr and output bytes.

Three small scenes are made by the CLI itself: 200 disjoint spheres, 150
spheres at overlap rate 0.35, and a sampled scene of three ``region
--scores`` regions, a sphere and a shell. Every command that writes an
artifact runs on them in one process, and each result is pinned. A change
that means to change bytes updates only the pins it names; a new method
gets new pins. Run this file as a script to print the current table.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from tspn.cli import main

# name -> (exit code, SHA-256 of stderr, stdout and each output file, in order)
PINS = {
    'gen-scene disjoint': (0, '892a40ed6aba56d0362179c42128faf85113d12d776eb4d9f2759c9529fc8d03'),
    'gen-scene overlap': (0, 'cba8ea588d52d5ac9b8a47578ebb3133c91754c670b904565b9535813da52eda'),
    'region scores-0': (0, '1feacac03c6287600ac7fac7cdcd3cefdc1609e70e73ee9d7d96adc03a6adb4e'),
    'region scores-1': (0, '1d01e8160f632701cd58f901c39dcdfcd2e9a17279266f873ac085351206a2d5'),
    'region scores-2': (0, 'c621756a38acd5225cb15243ad8b081f2c9294c353517b3f971335541184f06b'),
    'region profile': (0, '9fb51ec6ac8905c12d6c1b72cc58b29cc5c67c80f03301bf1239c9598784d0ad'),
    'plan disjoint': (0, '984c0df6c1fe9708026c75a08c00cd5ba486eec560cdd921da811f4af99f6f35'),
    'plan --start disjoint': (0, '7f8bf48baedfcc83eac1c66d566ca701a4f1b556aa2bfa261a075aa822ef9d48'),
    'baseline disjoint': (0, '17694ee77464a10b59b18f6fc43db8e75f8ea18b9691720387709af36985cd7a'),
    'online disjoint': (0, '855340ccb53147e8479ff42b14c9aba0e752acea2c910f39ebe98d23eb644e7b'),
    'validate disjoint': (0, 'ce28fdc598505309fbcd9996a33fa939f55bc154b07631ab1c0ea026c3ef139f'),
    'validate stdout disjoint': (0, 'b9a913828d18d678f2f4b258c1011958d289dea6896e4faddecc9c8f69d5ad58'),
    'mis disjoint': (0, '0c16ce06934250decbae38e22f6757a713dad099d4104b7a76081b1d2c804b86'),
    'detour disjoint': (0, '033fdbc0733fb77d7723ef7b0ca77b0617ad2693f83fa93e08389ede09f06fc8'),
    'plan overlap': (0, '01cc65fc5f058bb4a5b7576f38ec502a0fec489394a9474ab1fead3f1bc542cc'),
    'plan --start overlap': (0, '75e282bbb86fab6f856e96e494c37848f1342593af1ac29d393c6eedd31afba1'),
    'baseline overlap': (0, 'b2986879f0adc0fc2b2351b7fb63003bc4fe9a1bd2b3293c95d8400155b4cf47'),
    'online overlap': (1, 'b51a95eca6b830b16e93610b98602c9327d013e5016155ecc8cf03bba51ed076'),
    'validate overlap': (0, '37952938bc7cc35c2af2de61340af7b49a9d7c3029ee09fcb04b8fe4dd6193d3'),
    'validate stdout overlap': (0, 'c3a0e5584592effd7281769dfadd6a8f4a4aca3853d7e5ea8de313fcf43e74c7'),
    'mis overlap': (0, 'f60f3cdc3c44a8d400e2bbb1b40dbd72bbafd0bc9026f52b2331a2892c8855f3'),
    'detour overlap': (0, '0cb6d3fff5ca0f99f732bafe80cdf9e4130c38005c3ef83968c7b6e8e3829671'),
    'plan sampled': (0, 'aa38b1887205b771d0952b85cdb1367787cc6bf86fd6a62c07c58b6e11b1b430'),
    'plan --start sampled': (0, '8a2e9fe30b7a85d6df496916a05c220337d9db2f54b25d3a491a305ebe580efc'),
    'baseline sampled': (0, 'cb3003c8e44cebb8ec54eea1d0701f6fe7dccf1488c96fd0debf1e2f87acfd87'),
    'online sampled': (1, '2db552df2b117f97227cfd4f7f40fd353be686548577c06f8ff79faf9cfec9ae'),
    'validate sampled': (0, '7e89c20e0e8efbedce90549e1031753e10b73e92d94c03d56749974e71ed6ecb'),
    'validate stdout sampled': (0, '9ca6a989be82c0efd62bfcd9d9e36cb7ee16e5f763c2da84d0ca22f814dfd1ed'),
    'mis sampled': (0, 'a4573eaa34d98c0f4b7907f60fc5b3b178a82158af1bf039ebab53f12796aa1e'),
    'detour sampled': (0, 'd2d7aba6a448f647b5e454852d4d26d8bb4122fd9a28b11c29be7eb77e3b6bfd'),
    'compare disjoint': (0, '62d66cee7f375aa0d88bc21f9505ea20140663cfccba060c3332d3c3056ecf79'),
    'compare overlap': (0, '6108ed2b88aa0c8a0650a1f713ea7ec5ec28d41fc4da3f9eef0a65a1468f5aa8'),
}

START = "50,-20,10"


def _score_rows(t: int) -> str:
    """A view-score table whose kept views give an irregular star-shaped region; a few fall below 0.3."""
    rows = ["azimuth_rad,elevation_rad,distance_m,score"]
    for k in range(12):
        for e, elevation in enumerate((-0.9, -0.3, 0.3, 0.9)):
            distance = 2.4 + 0.3 * t + 0.4 * ((3 * k + 5 * e + t) % 4) / 3.0
            score = 0.1 if (k + e + t) % 7 == 0 else 0.9
            rows.append(f"{2.0 * math.pi * k / 12},{elevation},{distance},{score}")
    return "\n".join(rows) + "\n"


def _run(argv, outputs, cut_runtime=False):
    """(exit code, digest) of one in-process CLI call; ``outputs`` are the paths it should write.

    With ``cut_runtime`` the last column, a comparison CSV's runtime, is dropped from each output.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    h = hashlib.sha256(err.getvalue().encode() + b"\0" + out.getvalue().encode())
    for path in outputs:
        data = path.read_bytes() if path.exists() else b"<missing>"
        if cut_runtime:
            data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
        h.update(b"\0" + data)
    return code, h.hexdigest()


def record(tmp: Path) -> dict:
    """Run every pinned command in ``tmp`` and return name -> (exit code, digest)."""
    got = {}

    def run(name, argv, *outputs, cut_runtime=False):
        got[name] = _run(argv, outputs, cut_runtime)

    scenes = {"disjoint": tmp / "disjoint.json", "overlap": tmp / "overlap.json", "sampled": tmp / "sampled.json"}
    run("gen-scene disjoint", ["gen-scene", "--n", 200, "--cube-edge", 120, "--dmin", 5.4, "--dmax", 8.2,
                               "--disjoint", "--seed", 1, "--out", scenes["disjoint"]], scenes["disjoint"])
    run("gen-scene overlap", ["gen-scene", "--n", 150, "--dmin", 5.4, "--dmax", 8.2, "--overlap-rate", 0.35,
                              "--seed", 1, "--out", scenes["overlap"]], scenes["overlap"])

    objects = []
    for t, center in enumerate(("20,20,20", "24,20,20", "40,30,25")):
        scores, region = tmp / f"scores-{t}.csv", tmp / f"region-{t}.json"
        scores.write_text(_score_rows(t))
        run(f"region scores-{t}", ["region", "--center", center, "--scores", scores, "--out", region], region)
        objects.append({**json.loads(region.read_text()), "id": f"region-{t}"})
    profile = tmp / "profile.json"
    run("region profile", ["region", "--center", "1,2,3", "--profile", "car", "--out", profile], profile)
    objects += [
        {"id": "sphere-0", "center_m": [22.0, 24.0, 20.0], "shape": {"kind": "sphere", "diameter_m": 6.0}},
        {"id": "shell-0", "center_m": [10.0, 40.0, 30.0],
         "shape": {"kind": "shell", "inner_diameter_m": 4.0, "outer_diameter_m": 7.0}},
    ]
    diameters = [o["shape"][k] for o in objects for k in ("d_min_m", "d_max_m") if k in o["shape"]]
    doc = {"cube_edge_m": 100.0, "d_min_m": min(diameters + [4.0]), "d_max_m": max(diameters + [7.0]),
           "objects": objects}
    scenes["sampled"].write_text(json.dumps(doc, indent=2) + "\n")

    detour_owner = {"disjoint": "obj-000", "overlap": "obj-000", "sampled": "region-0"}
    for s, scene in scenes.items():
        traj, traj_start = tmp / f"{s}-plan.json", tmp / f"{s}-plan-start.json"
        run(f"plan {s}", ["plan", "--scene", scene, "--seed", 1, "--out", traj], traj)
        run(f"plan --start {s}", ["plan", "--scene", scene, "--start", START, "--seed", 1, "--out", traj_start],
            traj_start)
        base = tmp / f"{s}-baseline.json"
        run(f"baseline {s}", ["baseline", "--scene", scene, "--seed", 1, "--out", base], base)
        online, outcomes = tmp / f"{s}-online.json", tmp / f"{s}-outcomes.json"
        run(f"online {s}", ["online", "--scene", scene, "--seed", 1, "--out", online, "--outcomes", outcomes],
            online, outcomes)
        report = tmp / f"{s}-validate.json"
        run(f"validate {s}", ["validate", "--scene", scene, "--traj", traj, "--out", report], report)
        run(f"validate stdout {s}", ["validate", "--scene", scene, "--traj", traj_start])
        mis = tmp / f"{s}-mis.json"
        run(f"mis {s}", ["mis", "--scene", scene, "--out", mis], mis)
        detour = tmp / f"{s}-detour.json"
        run(f"detour {s}", ["detour", "--scene", scene, "--object", detour_owner[s], "--out", detour], detour)

    for s, extra in (("disjoint", ["--n", 30, "--seeds", 3, "--methods", "center-visit,alpha-fat,online"]),
                     ("overlap", ["--n", 40, "--seeds", 2, "--methods", "center-visit,alpha-fat",
                                  "--nondisjoint", "--overlap-rate", 0.35])):
        rows, agg = tmp / f"compare-{s}.csv", tmp / f"compare-{s}-agg.csv"
        run(f"compare {s}", ["compare", "--dmin", 5.4, "--dmax", 8.2, "--seed", 1, *extra,
                             "--out", rows, "--aggregate-out", agg], rows, agg, cut_runtime=True)
    return got


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return record(tmp_path_factory.mktemp("artifacts"))


def test_every_pinned_command_runs_and_every_run_is_pinned(artifacts):
    assert sorted(artifacts) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_is_pinned(artifacts, name):
    assert artifacts[name] == PINS[name], f"`tspn {name}` changed its exit code, stderr or output bytes"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = record(Path(tmp))
    sys.stdout.write("PINS = {\n" + "".join(f"    {k!r}: {v!r},\n" for k, v in table.items()) + "}\n")
