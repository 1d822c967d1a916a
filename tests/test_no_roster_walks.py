"""Controllers act on the fleet in batch calls, not server-roster walks.

DVFS, the macro manager, the fault engine and the federation site
command the vector fleet through ``park_many``, ``batch_set_pstate``
and column counts.  This scan fails on any ``for`` loop or
comprehension whose iterable is ``<...>.servers``,
``active_servers()`` or ``believed_active(...)`` — directly or through
a name bound to one in the same function — outside the control
plane's per-command branches, which are allowed by function name.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SCANNED = ("control/dvfs.py", "core/manager.py", "core/faults.py",
           "federation/sites.py")

#: The control plane's per-command branches: one command per server
#: until the plane itself is columnar.
ALLOWED = {
    "core/manager.py": {"_drain_zone_via_plane", "_set_pstate_via_plane"},
}

ROSTER_CALLS = {"active_servers", "believed_active"}


def _is_roster(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "servers"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        return name in ROSTER_CALLS
    return False


def _mentions_roster(expr: ast.AST, rosters: set) -> bool:
    return any(_is_roster(n) or (isinstance(n, ast.Name)
                                 and n.id in rosters)
               for n in ast.walk(expr))


def roster_walks(source: str, allowed=frozenset()) -> list[str]:
    """``"<function>:<line>"`` for each roster walk in ``source``
    outside the ``allowed`` functions."""
    hits: list[str] = []

    def scan(func: ast.AST, name: str) -> None:
        rosters: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _mentions_roster(
                    node.value, rosters):
                rosters.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                if (_mentions_roster(node.iter, rosters)
                        and name not in allowed):
                    hits.append(f"{name}:{node.iter.lineno}")

    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func in functions:
        scan(func, func.name)
    return sorted(set(hits))


@pytest.mark.parametrize("module", SCANNED)
def test_no_roster_walk_outside_the_plane_branches(module):
    source = (SRC / module).read_text()
    allowed = ALLOWED.get(module, set())
    assert roster_walks(source, allowed) == []
    defined = {n.name for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.FunctionDef)}
    assert allowed <= defined, "allowlist names a deleted function"


def test_scan_finds_each_walk_shape():
    source = '''
def dvfs(self):
    active = self.farm.active_servers()
    top = max(s.pstate for s in active)
    for server in active:
        server.set_pstate(top)

def trip(self):
    victims = [s for s in self.dc.servers if s.zone == "z"]
    return victims

def believed(self, cp):
    return {s.name for s in cp.believed_active(self.farm)}

def plane_branch(self):
    for server in rack.servers:
        server.fail()

def columns(self):
    plant = self.farm.fleet.plant
    table = self.farm.servers[0].model.pstates
    return plant.rows_in(("ACTIVE",)), table
'''
    assert roster_walks(source, {"plane_branch"}) == [
        "believed:13", "dvfs:4", "dvfs:5", "trip:9"]
