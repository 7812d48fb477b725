"""What the package's modules import: no cycle, function-local imports included, and per command only what it runs."""

import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pcsplab"


def imported_modules(tree, modules):
    """The package modules a module's source imports, wherever the import statement sits."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("pcsplab."))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pcsplab"):
            parts = (node.module or "").split(".")
            inner = parts[node.level == 0 :]  # drop the package name of an absolute import
            if inner and inner[0]:
                out.add(inner[0])
            else:  # "from . import x" names modules or the package itself
                out.update(alias.name if alias.name in modules else "__init__" for alias in node.names)
    return out


def import_graph(package=PACKAGE):
    modules = {path.stem for path in package.glob("*.py")}
    return {name: imported_modules(ast.parse((package / f"{name}.py").read_text()), modules) for name in modules}


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert "structures" in graph["homs"]
    # the search engine sees only cells and triples: it knows no structures, blocks or tables
    assert graph["_network"] == {"errors"}
    # each name has one home, its defining module, so importing a module runs only what it imports
    assert graph["__init__"] == set()
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_cycle_finder_sees_function_local_imports():
    source = "def f():\n    from .b import g\n"
    graph = {"a": imported_modules(ast.parse(source), {"a", "b"}), "b": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]


def clock_readers(package=PACKAGE):
    """The package modules whose source names time.monotonic, as an attribute or a `from time import`."""
    readers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            attribute = isinstance(node, ast.Attribute) and node.attr == "monotonic"
            imported = isinstance(node, ast.ImportFrom) and node.module == "time" and "monotonic" in {a.name for a in node.names}
            if attribute or imported:
                readers.add(path.stem)
    return readers


def test_only_errors_reads_the_monotonic_clock():
    # every budget becomes a deadline in errors.deadline_after, and every check of one is errors.expired
    assert clock_readers() == {"errors"}


def test_only_the_command_line_makes_a_deadline():
    # every budgeted function takes deadline=; only cli turns --time-budget seconds into one, with errors.deadline_after
    makers, budget_parameters = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "deadline_after" in {getattr(node, field, None) for field in ("id", "attr", "name")}:
                makers.add(path.stem)  # a name, an attribute, an import or the definition
            if isinstance(node, ast.arg) and node.arg == "time_budget":
                budget_parameters.add(path.stem)
    assert makers == {"errors", "cli"}
    assert budget_parameters == set()


def test_only_the_boundary_modules_name_template_pair():
    # the library takes the target alone: a pair is built in structures, made from the command line's SRC TGT in cli,
    # checked once by polymorphisms.one_in_three_target, and taken by symmetric's two answer checks of perfbench
    namers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "TemplatePair" in {getattr(node, field, None) for field in ("id", "attr", "name")}:
                namers.add(path.stem)  # a name, an attribute, an import or the definition
    assert namers == {"structures", "cli", "polymorphisms", "symmetric"}


def test_dataclass_decorates_only_the_records_an_outside_reader_needs():
    # every other record is a namedtuple subclass: a decoration execs five or six generated methods at import
    decorated = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    called = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if "dataclass" in {getattr(called, "id", None), getattr(called, "attr", None)}:
                        decorated.add(node.name)
    assert decorated == {
        "PropertyReport",  # the tests pass reports to dataclasses.replace to zero their elapsed_ms
        "SelectorSpec",  # the tests pass catalog specs to dataclasses.replace to swap their rule
        "TemplatePair",  # perfbench/tracing.py wraps TemplatePair.__post_init__ to count the pairs built
    }


# runs the commands of argv[1] in turn in one fresh interpreter, each reading the stdout of the one before,
# then prints their exit codes and the pcsplab modules loaded
FRESH_COMMANDS = """
import io, json, sys
from pcsplab import cli
codes, text = [], ""
for argv in json.loads(sys.argv[1]):
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    codes.append(cli.main(argv))
    text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("pcsplab"))]))
"""
SEARCH_MODULES = {"pcsplab.properties", "pcsplab.polymorphisms", "pcsplab.symmetric", "pcsplab._network"}


def run_fresh(*commands):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_COMMANDS, json.dumps(commands)], env=env, capture_output=True, text=True, check=True
    )
    codes, modules = json.loads(proc.stdout)
    return codes, set(modules)


def test_each_command_loads_only_the_modules_it_runs():
    codes, modules = run_fresh(["gen", "12", "8", "1"], ["solve", "NAE"])
    assert codes == [0, 0]
    assert {"pcsplab.cli", "pcsplab.solvers"} <= modules
    assert not modules & SEARCH_MODULES
    codes, modules = run_fresh(["poly", "search-sym", "1in3", "LO_3", "12"])
    assert codes == [1]
    assert modules & SEARCH_MODULES == SEARCH_MODULES - {"pcsplab.properties"}  # a search runs no fact suite
