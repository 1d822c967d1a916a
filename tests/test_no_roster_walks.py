"""Controllers act on the fleet in batch calls, not server-roster walks.

DVFS, the macro manager, the fault engine and the federation site
command the vector fleet through ``park_many``, ``batch_set_pstate``
and column counts.  This scan fails on any ``for`` loop or
comprehension whose iterable is ``<...>.servers``,
``active_servers()`` or ``believed_active(...)`` — directly or through
a name bound to one in the same function — outside the control
plane's per-command branches, which are allowed by function name.

The physical spine's per-step functions — the room's step, zone
update and plant power, and the facility's physical sync — run on the
room's zone columns and the rack columns, so the same scan holds them
to no walk over ``.zones``, ``.racks`` or ``rack_nodes``.  Their CRAC
loops and per-zone monitor records iterate other names.
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

ROSTER_ATTRS = {"servers"}
ROSTER_CALLS = {"active_servers", "believed_active"}

#: The spine's per-step functions, by module.
SPINE = {
    "cooling/room.py": {"step_once", "_step_zones", "mechanical_power_w"},
    "datacenter/spec.py": {"sync_physical"},
}
SPINE_ATTRS = {"zones", "racks", "rack_nodes"}


def _is_roster(node: ast.AST, attrs, calls) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in attrs
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        return name in calls
    return False


def roster_walks(source: str, allowed=frozenset(), attrs=ROSTER_ATTRS,
                 calls=ROSTER_CALLS, only=None) -> list[str]:
    """``"<function>:<line>"`` for each walk in ``source`` over an
    attribute in ``attrs`` or a call in ``calls``, outside the
    ``allowed`` functions (and inside ``only``, when given)."""
    hits: list[str] = []

    def mentions(expr: ast.AST, rosters: set) -> bool:
        return any(_is_roster(n, attrs, calls)
                   or (isinstance(n, ast.Name) and n.id in rosters)
                   for n in ast.walk(expr))

    def scan(func: ast.AST, name: str) -> None:
        rosters: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and mentions(node.value,
                                                         rosters):
                rosters.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                if mentions(node.iter, rosters) and name not in allowed:
                    hits.append(f"{name}:{node.iter.lineno}")

    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and (only is None or n.name in only)]
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


@pytest.mark.parametrize("module", sorted(SPINE))
def test_no_zone_or_rack_walk_in_the_spine_steps(module):
    source = (SRC / module).read_text()
    steps = SPINE[module]
    assert roster_walks(source, attrs=SPINE_ATTRS, calls=(),
                        only=steps) == []
    defined = {n.name for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.FunctionDef)}
    assert steps <= defined, "spine list names a deleted function"


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


def test_spine_scan_finds_zone_and_rack_walks():
    source = '''
def sync_physical(self):
    for zone in self.room.zones:
        zone.set_heat_load(0.0)
    leaves = self.rack_nodes
    return [leaf.failed for leaf in leaves.values()]

def _step_zones(self, dt_s):
    zones = self.zones
    heat = np.array([z.heat_load_w for z in zones])
    for j, crac in enumerate(self.cracs):
        pass
    for monitor, value in zip(self._zone_monitor_list, self.temp_c):
        monitor.record(value)

def zone(self, name):
    for zone in self.zones:
        pass
'''
    assert roster_walks(source, attrs=SPINE_ATTRS, calls=(),
                        only={"sync_physical", "_step_zones"}) == [
        "_step_zones:10", "sync_physical:3", "sync_physical:6"]
