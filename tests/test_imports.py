"""The intra-package imports of pcsplab form no cycle, function-local imports included."""

import ast
import pathlib

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
