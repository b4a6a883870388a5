"""Every tspn name the benchmark patches or calls resolves in a fresh import.

perfbench's tracer patches each ``(module, function)`` of its ``TRACED`` table
and ``planner.SimulationOracle.__call__``; its workloads reach tspn through
``mods.<module>.<name>`` lookups on the namespace ``workloads.fresh_import``
returns. The names are read from those files, and resolved in a new process
through that same import, so a removed or renamed name fails here and not
only in a traced benchmark run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def _traced() -> set[tuple[str, ...]]:
    """The (module, function) pairs of the tracer's ``TRACED`` table."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    return {(row.elts[0].value, row.elts[1].value) for row in table.elts}


def _chain(node) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for anything that is not a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _workload_names() -> set[tuple[str, ...]]:
    """Every dotted name under ``mods`` the workloads use, aliases (``vs = mods.viewscore``) resolved."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            chain = _chain(node.value)
            if chain and chain[0] == "mods":
                alias[node.targets[0].id] = chain[1:]
    names = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] == "mods":
            names.add(tuple(chain[1:]))
        elif chain and chain[0] in alias:
            names.add((*alias[chain[0]], *chain[1:]))
    return names


RESOLVE = """
import json, sys
from pathlib import Path
import workloads
mods = workloads.fresh_import(Path(sys.argv[1]))
missing = []
for path in json.loads(sys.argv[2]):
    obj = mods
    for part in path:
        # A class's own attribute: every class has a __call__, its metaclass's.
        owner, obj = obj, getattr(obj, part, None)
        if obj is None or isinstance(owner, type) and not any(part in vars(c) for c in owner.__mro__):
            missing.append(".".join(path))
            break
print(json.dumps(missing))
"""


def test_every_name_the_benchmark_patches_or_calls_resolves():
    traced, called = _traced(), _workload_names()
    # The tables were read: a traced function, a workload's call and an alias's.
    assert ("geom", "region_contains") in traced and ("planner", "plan_online") in traced
    assert {("cli", "main"), ("bench", "SceneConfig"), ("viewscore", "GrayImage", "from_array")} <= called
    names = sorted(traced | called | {("planner", "SimulationOracle", "__call__")})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(SRC)]))
    out = subprocess.run(
        [sys.executable, "-c", RESOLVE, str(SRC), json.dumps(names)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == []
