"""Documentation-consistency guards.

DESIGN.md promises an experiment index and EXPERIMENTS.md records the
results; these tests keep both honest against the code on disk, so a
new benchmark cannot land undocumented and a documented one cannot
silently disappear.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text()


def benchmark_files():
    return {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}


def test_every_benchmark_is_in_design_index():
    design = read("DESIGN.md")
    missing = [name for name in benchmark_files()
               if name not in design and name != "conftest.py"
               and "perf" not in name]
    # PERF is indexed as a single row without file enumeration.
    assert not missing, f"benchmarks missing from DESIGN.md: {missing}"


def test_design_index_points_at_real_files():
    design = read("DESIGN.md")
    referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
    ghosts = referenced - benchmark_files()
    assert not ghosts, f"DESIGN.md references missing files: {ghosts}"


def test_every_paper_experiment_has_experiments_entry():
    """Each FIG/CLM/EXP/ABL id in the DESIGN index appears in
    EXPERIMENTS.md."""
    design = read("DESIGN.md")
    experiments = read("EXPERIMENTS.md")
    ids = set(re.findall(r"\|\s((?:FIG|CLM|EXP|ABL)-[A-Z0-9]+)\s\|",
                         design))
    assert ids, "no experiment ids found in DESIGN.md"
    missing = [i for i in ids if i not in experiments]
    assert not missing, f"EXPERIMENTS.md missing: {missing}"


def test_readme_examples_exist():
    readme = read("README.md")
    referenced = set(re.findall(r"examples/(\w+\.py)", readme))
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    ghosts = referenced - on_disk
    assert not ghosts, f"README references missing examples: {ghosts}"


def test_all_packages_documented_in_readme():
    readme = read("README.md")
    packages = {p.parent.name
                for p in (ROOT / "src" / "repro").glob("*/__init__.py")}
    missing = [p for p in packages if f"repro.{p}" not in readme]
    assert not missing, f"README architecture omits: {missing}"


def _resolves(dotted):
    """Whether ``dotted`` names a module, or a name inside one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_documented_modules_exist():
    """Every dotted ``repro.…`` path in the docs resolves, so a deleted
    or renamed module cannot stay documented."""
    paths = set()
    for name in ("DESIGN.md", "README.md", "EXPERIMENTS.md"):
        paths |= set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", read(name)))
    assert paths, "no repro.* paths found in the docs"
    ghosts = sorted(p for p in paths if not _resolves(p))
    assert not ghosts, f"docs name missing modules or names: {ghosts}"
