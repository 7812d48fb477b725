"""Time and weigh the layers of a polymorphism search, phase by phase, for one or more source trees.

    python bench/network_layers.py --src parent=../parent/src --src change=src --runs 5 --out BENCH.json

A search on coordinate blocks goes through three phases: the search network
that `polymorphisms._search_network` builds for the target on the blocks
(phase `network`, which times listing the constraints too), the depth-first
search for the first table (`Network.solutions`), and the answer check of
that table (`polymorphisms.is_polymorphism`).  Each case below times each
phase; a phase that a case does not reach is left out.  Its `triples` counter
is the number of sorted cell triples of the blocks' 3-partitions, counted
from the block sizes alone, so it reads the same whatever a tree's network
keeps.  One more case times 1000 builds of the 32-cell network of `verify
lemmas` at arity 5 (phase `networks`).  A check-only case times the answer
check of a given table on unit blocks, as `poly verify` runs it: a dictator,
a symmetric table expanded to every subset, or a seeded random table, which
fails.  Two enumeration cases time the walks that `verify lemmas` and `verify
selector` make on unit blocks: `enumerate_orbits` run to exhaustion (phase
`orbits`, counting leaders and the tables their orbits cover) and
`verify_selector` with the template's selector (phase `selector`, counting
chain states).  A colouring case times `properties.chromatic_number` on a
Kneser graph (phase `colour`) and counts the vertices `_dsatur_picks` picks
across every colour budget it tries, in a second call that is not timed.
Three cases time the hom tests and the solver of `hom lattice --all3`,
`classify_template` and `gen | solve`: `hom_lattice` over the 1023 symmetric
ternary structures on three elements (phase `lattice`, counting its classes
and, in a second call that is not timed, its `hom_exists` calls),
`classify_template` over the same 1023 structures (phase `classify`,
counting each label), and `gauss_gf3` on the systems of 60 planted instances
(phase `gauss`, counting the systems solved and the sum of their solutions'
values).  `hnf_solve` runs on the not-all-equal systems of the same 60
instances, and of 20 planted instances at (400, 800) (phase `hnf`), counting
the systems solved, their values' sum, the largest bit length of a value
and, in a second call that is not timed, the column operations and the
columns examined while finding each row's entries.  Two more cases time
`solve_t2` and `solve_nae` on the same 60 instances (phase `solve`),
counting the colourings found and, in a second pass that is not timed, the
rows the route's kernel solves (`core_rows`) and the rest (`set_aside`):
the kernel cases feed every row to the kernel, the solve cases only the
rows that the route does.  `kneser_graph` builds
the 21 Kneser graphs of perfbench's `suites` set-up (phase `kneser`, counting
vertices and neighbour entries).  Two cases time `named_template` loading
`LO_60` and `NAE_60` (phase `template`, counting the relation's tuples).
Each builds its inputs fresh before its clock starts.  A memory pass runs
each searching or checking case again, untimed, in an interpreter of its own, so that nothing another case left
behind hides its growth, after importing every `pcsplab` module in name
order, so that the imports a tree happens to make do not move its baseline.
It records how far each phase raised the process's peak resident set
(`ru_maxrss`, as `<phase>_rss`), and then, for a searching case, builds its
network again under tracemalloc and records the peak and the bytes still
held once it exists, all in MB.

Four start-up cases time whole fresh processes, from spawn to exit, as the
`pcsplab` console script runs them: `import pcsplab.cli` alone, `gen 240
180 7`, `solve NAE --prefer nae` reading that `gen`'s output, and `poly
search-sym 1in3 LO_3 64` (phase `process`).  Each case runs once more,
untimed, in an interpreter that counts the `pcsplab` modules loaded; its
exit code and a digest of its stdout are counters too.

Every interpreter of a tree reads and writes bytecode under one
PYTHONPYCACHEPREFIX directory made fresh for that tree, so no tree reads a
`__pycache__` that tests or earlier runs left in its checkout.  Without
PYTHONDONTWRITEBYTECODE the first interpreter of each tree fills its cache
and the rest read it; with it set, every interpreter compiles every module
it imports, the standard library's too.  The ledger's `host` block records
both settings.

Each tree's library must take the target alone, with 1-in-3 as the fixed
source: the cases call `search_symmetric`, `enumerate_orbits`,
`verify_selector`, `is_polymorphism` and `_search_network` with a target,
not a pair.  Its network must hold no branch order: the cases build it as
`_search_network(target, blocks)` and give the order to
`Network.solutions(order, first_colors, deadline)`, so a tree whose
network still takes the order in its constructor cannot be measured.
Every run is one timed interpreter and one memory interpreter per memory
case for each source tree, so no row or cache built by one run is seen by
the next, and the order of the trees alternates from run to run.  The
output gives, per case and tree, the median of the runs for each phase in
seconds, the medians of the memory counters, and the work counters
(triples, nodes, builds, picks, hom tests), which must repeat exactly across runs and trees
for the times to compare the same work, and each tree's commit (`git
rev-parse HEAD`, with "-dirty" when the tree has uncommitted changes, null
for a tree outside a git checkout).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

# (label, target, blocks, phases): NAE (31, 30) finds a table after 32 nodes and CHplus (23, 24) refutes at 2, so
# both spend their time on the network, while NAE_3 (31, 30) finds its table after 993 nodes, so its time is the
# engine's scans of the partner lists; T2 at symmetric arity 2000 has 334,334 triples and its last block's
# compositions are the most that any case's answer check reads, and T2 at 601 is that check at a tenth.  The networks
# case builds the network that `verify lemmas` enumerates at arity 5.  A check-only case checks the table its
# label's first word names, on unit blocks: the first-coordinate dictator and the expanded symmetric table are
# polymorphisms with few distinct sub-tables at each level (the dictator has one), and the random table has nearly all
# its sub-tables distinct and fails early in the walk.  The colouring case's blocks are the Kneser parameters (n, m):
# KG(10, 4) has 210 vertices and chromatic number 4, and refuting 3 colours takes most of its picks.  The GF(3) case's
# blocks are the planted (nv, ne) of perfbench's `gen | solve` jobs, where the cyclic and the not-all-equal routes
# cost about the same, and so are the first integer case's and the two solve cases'; the second integer case has
# twice as many edges as variables, where the integer values grow with nv.  The Kneser case's graphs are those of
# perfbench's `suites` set-up.  The template cases load the largest LO_k and NAE_k that the README's budget paragraph
# names
CASES = (
    ("NAE (31, 30)", "NAE", (31, 30), ("network", "solutions", "check")),
    ("CHplus (23, 24)", "CHplus", (23, 24), ("network", "solutions", "check")),
    ("NAE_3 (31, 30)", "NAE_3", (31, 30), ("network", "solutions", "check")),
    ("T2 (601,)", "T2", (601,), ("network", "solutions", "check")),
    ("T2 (2000,)", "T2", (2000,), ("network", "solutions", "check")),
    ("networks T1 5 x 1000", "T1", (1,) * 5, ("networks",)),
    ("dictator 12 / NAE", "NAE", (1,) * 12, ("check",)),
    ("dictator 14 / NAE", "NAE", (1,) * 14, ("check",)),
    ("symmetric 14 / T2", "T2", (1,) * 14, ("check",)),
    ("random 14 / NAE", "NAE", (1,) * 14, ("check",)),
    ("orbits T1 5", "T1", (1,) * 5, ("orbits",)),
    ("selector CH 4", "CH", (1,) * 4, ("selector",)),
    ("colour KG(10, 4)", None, (10, 4), ("colour",)),
    ("hom lattice all3", None, (), ("lattice",)),
    ("classify all3", None, (), ("classify",)),
    ("gauss_gf3 60 x (240, 180)", None, (240, 180), ("gauss",)),
    ("hnf_solve 60 x (240, 180)", None, (240, 180, 60), ("hnf",)),
    ("hnf_solve 20 x (400, 800)", None, (400, 800, 20), ("hnf",)),
    ("solve_t2 60 x (240, 180)", None, ("t2", 240, 180), ("solve",)),
    ("solve_nae 60 x (240, 180)", None, ("nae", 240, 180), ("solve",)),
    ("kneser_graph perfbench 21", None, (), ("kneser",)),
    ("template LO_60", None, ("LO_60",), ("template",)),
    ("template NAE_60", None, ("NAE_60",), ("template",)),
)
NETWORK_BUILDS = 1000
KNESER = [(n, m) for n in range(2, 10) for m in range(1, 5) if n >= 2 * m] + [(10, 4)]
# the cases the memory pass runs: those that search or check a table
MEMORY_CASES = [label for label, _, _, phases in CASES if "network" in phases or "check" in phases]
# (label, interpreter arguments, the label of the case whose stdout is this one's stdin); CONSOLE is what the
# console script runs
CONSOLE = "import sys; from pcsplab.cli import main; sys.exit(main())"
STARTUP_CASES = (
    ("start-up import pcsplab.cli", ["-c", "import pcsplab.cli"], None),
    ("start-up gen 240 180 7", ["-c", CONSOLE, "gen", "240", "180", "7"], None),
    ("start-up solve NAE", ["-c", CONSOLE, "solve", "NAE", "--prefer", "nae"], "start-up gen 240 180 7"),
    ("start-up search-sym LO_3 64", ["-c", CONSOLE, "poly", "search-sym", "1in3", "LO_3", "64"], None),
)
# runs `-c CODE ARGS` given as CODE ARGS and ends stderr with a JSON line of the count of pcsplab modules loaded
COUNTING = """
import json, sys
code, sys.argv = sys.argv[1], ["-c", *sys.argv[2:]]
try:
    exec(code, {"__name__": "__main__"})
except SystemExit:
    pass
modules = [name for name in sys.modules if name == "pcsplab" or name.startswith("pcsplab.")]
print(json.dumps({"pcsplab_modules": len(modules)}), file=sys.stderr)
"""


def _colour_case(n, m):
    """Time chromatic_number on KG(n, m), then count the picks of every budget it tries in a second, untimed call."""
    from pcsplab import properties

    graph = properties.kneser_graph(n, m)
    start = time.perf_counter()
    chi = properties.chromatic_number(graph, n)
    seconds = time.perf_counter() - start
    picks = 0
    dsatur_picks = properties._dsatur_picks

    def counted(*args):
        nonlocal picks
        for vertex in dsatur_picks(*args):
            picks += vertex is not None
            yield vertex

    properties._dsatur_picks = counted
    try:
        if properties.chromatic_number(graph, n) != chi:
            raise SystemExit(f"KG({n}, {m}): the chromatic number changed between two calls")
    finally:
        properties._dsatur_picks = dsatur_picks
    if chi != n - 2 * m + 2:
        raise SystemExit(f"KG({n}, {m}): chromatic number {chi}, not {n - 2 * m + 2}")
    return {"s": {"colour": seconds}, "counters": {"chi": chi, "picks": picks}}


def _lattice_case():
    """Time hom_lattice on the all3 structures, then count its hom tests in a second, untimed call."""
    from pcsplab import homs
    from pcsplab.structures import all_symmetric_ternary_structures

    structures = all_symmetric_ternary_structures()
    start = time.perf_counter()
    lattice = homs.hom_lattice(structures)
    seconds = time.perf_counter() - start
    tests = 0
    hom_exists = homs.hom_exists

    def counted(source, target):
        nonlocal tests
        tests += 1
        return hom_exists(source, target)

    homs.hom_exists = counted
    try:
        if len(homs.hom_lattice(all_symmetric_ternary_structures()).classes) != len(lattice.classes):
            raise SystemExit("hom lattice all3: the class count changed between two calls")
    finally:
        homs.hom_exists = hom_exists
    return {"s": {"lattice": seconds}, "counters": {"hom_tests": tests, "classes": len(lattice.classes)}}


def _classify_case():
    """Time classify_template on each all3 structure and count the labels."""
    from pcsplab.solvers import classify_template
    from pcsplab.structures import all_symmetric_ternary_structures

    structures = all_symmetric_ternary_structures()
    start = time.perf_counter()
    labels = [classify_template(s) for s in structures]
    seconds = time.perf_counter() - start
    return {"s": {"classify": seconds}, "counters": {label: labels.count(label) for label in sorted(set(labels))}}


def _gauss_case(nv, ne):
    """Time gauss_gf3 on the cyclic-route systems of the planted instances with seeds 0 to 59."""
    from pcsplab.solvers import gauss_gf3, generate_planted

    systems = [tuple((e, 1) for e in generate_planted(nv, ne, seed)[0].edges) for seed in range(60)]
    start = time.perf_counter()
    solutions = [gauss_gf3(rows, nv) for rows in systems]
    seconds = time.perf_counter() - start
    solved = [x for x in solutions if x is not None]
    return {"s": {"gauss": seconds}, "counters": {"solved": len(solved), "value_sum": sum(map(sum, solved))}}


def _hnf_case(nv, ne, count):
    """Time hnf_solve on the not-all-equal-route systems of the planted instances with seeds 0 to count - 1, then
    count its column operations and the columns it examines in a second, untimed pass."""
    from pcsplab import solvers

    systems = [solvers.generate_planted(nv, ne, seed)[0].edges for seed in range(count)]
    start = time.perf_counter()
    solutions = [solvers.hnf_solve(rows, nv) for rows in systems]
    seconds = time.perf_counter() - start
    solved = [x for x in solutions if x is not None]
    counters = {"solved": len(solved), "value_sum": sum(map(sum, solved))}
    counters["max_bits"] = max((abs(v).bit_length() for x in solved for v in x), default=0)
    counters.update(_hnf_work(solvers, systems, nv, solutions))
    return {"s": {"hnf": seconds}, "counters": counters}


def _solve_case(route, nv, ne):
    """Time solve_t2 or solve_nae on the planted instances with seeds 0 to 59, then count the rows the route's kernel
    solves in a second, untimed pass with the kernel wrapped; the rows it never sees were set aside."""
    from pcsplab import solvers

    solve = getattr(solvers, f"solve_{route}")
    instances = [solvers.generate_planted(nv, ne, seed)[0] for seed in range(60)]
    start = time.perf_counter()
    colorings = [solve(instance) for instance in instances]
    seconds = time.perf_counter() - start
    name = "gauss_gf3" if route == "t2" else "hnf_solve"
    kernel = getattr(solvers, name)
    core_rows = 0

    def counted(rows, *args, **kwargs):
        nonlocal core_rows
        core_rows += len(rows)
        return kernel(rows, *args, **kwargs)

    setattr(solvers, name, counted)
    try:
        if [solve(instance) for instance in instances] != colorings:
            raise SystemExit(f"solve_{route}: the colourings changed between two passes")
    finally:
        setattr(solvers, name, kernel)
    counters = {"solved": sum(c is not None for c in colorings), "core_rows": core_rows}
    counters["set_aside"] = len(instances) * ne - core_rows
    return {"s": {"solve": seconds}, "counters": counters}


def _hnf_work(solvers, systems, nv, solutions):
    """hnf_solve's column operations and the columns it examines to find each row's entries, summed over systems.

    The operations are the length of the kernel's `ops` list as it returns, read by a trace function on its frame.
    The columns examined are the candidates it draws for each row: a scan of every column from the next pivot on
    is a two-argument `range`, and a read of the row's index is a `sorted`.  Both builtins are shadowed in the
    module for this pass alone; hnf_solve calls neither for anything else.
    """
    work = {"column_ops": 0, "columns_examined": 0}

    def counted_range(*args):
        work["columns_examined"] += len(range(*args)) if len(args) == 2 else 0
        return range(*args)

    def counted_sorted(items):
        out = sorted(items)
        work["columns_examined"] += len(out)
        return out

    def on_call(frame, event, arg):
        if frame.f_code is not solvers.hnf_solve.__code__:
            return None
        frame.f_trace_lines = False
        return on_return

    def on_return(frame, event, arg):
        if event == "return":
            work["column_ops"] += len(frame.f_locals["ops"])
        return on_return

    solvers.range, solvers.sorted = counted_range, counted_sorted
    sys.settrace(on_call)
    try:
        if [solvers.hnf_solve(rows, nv) for rows in systems] != solutions:
            raise SystemExit("hnf_solve: the solutions changed between two passes")
    finally:
        sys.settrace(None)
        del solvers.range, solvers.sorted
    return work


def _kneser_case():
    """Time kneser_graph on the Kneser graphs of perfbench's suites set-up and count their vertices and neighbours."""
    from pcsplab.properties import kneser_graph

    start = time.perf_counter()
    graphs = [kneser_graph(n, m) for n, m in KNESER]
    seconds = time.perf_counter() - start
    counters = {"vertices": sum(len(g.vertices) for g in graphs)}
    counters["neighbour_entries"] = sum(len(nb) for g in graphs for nb in g.adjacency)
    return {"s": {"kneser": seconds}, "counters": counters}


def _template_case(name):
    """Time named_template on the name and count its relation's tuples."""
    from pcsplab.structures import named_template

    start = time.perf_counter()
    structure = named_template(name)
    seconds = time.perf_counter() - start
    return {"s": {"template": seconds}, "counters": {"tuples": len(structure.single_ternary().tuples)}}


# cases that time one library call on inputs of their own, by phase
CALL_CASES = {
    "colour": _colour_case,
    "lattice": _lattice_case,
    "classify": _classify_case,
    "gauss": _gauss_case,
    "hnf": _hnf_case,
    "solve": _solve_case,
    "kneser": _kneser_case,
    "template": _template_case,
}


def _checked_table(kind, structure, n):
    """The values of the table a check-only case checks, indexed by subset mask."""
    from pcsplab.polymorphisms import dictator
    from pcsplab.symmetric import search_symmetric

    if kind == "dictator":
        return dictator(n, 1).values
    if kind == "symmetric":
        weights = search_symmetric(structure, n).table.values
        return tuple(weights[mask.bit_count()] for mask in range(1 << n))
    return tuple(random.Random(n).choices(range(structure.domain_size), k=1 << n))


def _case_inputs(target, blocks):
    from pcsplab.structures import named_template
    from pcsplab.symmetric import _block_branch_order

    ncells = math.prod(size + 1 for size in blocks)
    return named_template(target), _block_branch_order(*blocks) if len(blocks) == 2 else range(ncells)


def triple_count(blocks) -> int:
    """The sorted cell triples of the 3-partitions of the blocks, by Burnside's lemma over orderings of the parts.

    A block of size s splits into (s + 2 choose 2) ordered triples of parts,
    s // 2 + 1 of them with two equal parts, and one with three equal parts
    when 3 divides s.
    """
    ordered = math.prod(math.comb(size + 2, 2) for size in blocks)
    two_equal = math.prod(size // 2 + 1 for size in blocks)
    all_equal = math.prod(size % 3 == 0 for size in blocks)
    return (ordered + 3 * two_equal + 2 * all_equal) // 6


def measure_once() -> dict:
    """One timed run of every case in this interpreter: {case: {"s": {phase: seconds}, "counters": {...}}}."""
    from pcsplab.polymorphisms import BlockTable, _search_network, enumerate_orbits, is_polymorphism
    from pcsplab.properties import SELECTOR_CATALOG, verify_selector
    from pcsplab.symmetric import _wlog_colors

    out = {}
    for label, target, blocks, phases in CASES:
        if phases[0] in CALL_CASES:
            out[label] = CALL_CASES[phases[0]](*blocks)
            continue
        structure, order = _case_inputs(target, blocks)
        s, counters = {}, {}
        net = values = None
        if "network" in phases:
            start = time.perf_counter()
            net = _search_network(structure, blocks)
            s["network"] = time.perf_counter() - start
            counters["triples"] = triple_count(blocks)
        elif "networks" in phases:
            start = time.perf_counter()
            for _ in range(NETWORK_BUILDS):
                _search_network(structure, blocks)
            s["networks"] = time.perf_counter() - start
            counters.update(builds=NETWORK_BUILDS, triples=triple_count(blocks))
        elif "check" in phases:
            values = _checked_table(label.split()[0], structure, len(blocks))
        if "orbits" in phases:
            start = time.perf_counter()
            leaders = list(enumerate_orbits(structure, len(blocks)))
            s["orbits"] = time.perf_counter() - start
            counters["leaders"] = len(leaders)
            counters["tables"] = sum(size for _, size in leaders)
        if "selector" in phases:
            spec = next(spec for spec in SELECTOR_CATALOG.values() if spec.template_name == target)
            start = time.perf_counter()
            report = verify_selector(structure, spec, len(blocks))
            s["selector"] = time.perf_counter() - start
            counters["states"] = report.states_explored
            if not report.holds:
                raise SystemExit(f"{label}: {spec.name} fails")
        if "solutions" in phases:
            wlog = _wlog_colors(structure)
            start = time.perf_counter()
            values = next(net.solutions(order, wlog, None), None)
            s["solutions"] = time.perf_counter() - start
            counters["nodes"] = net.nodes
            counters["found"] = values is not None
        if values is not None and "check" in phases:
            table = BlockTable(blocks, structure.domain_size, values)
            start = time.perf_counter()
            holds = is_polymorphism(table, structure)
            s["check"] = time.perf_counter() - start
            counters["holds"] = holds
            if holds != (label.split()[0] != "random"):
                raise SystemExit(f"{label}: the answer check gives {holds}")
        out[label] = {"s": s, "counters": counters}
        del net
    return out


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def measure_memory(label: str) -> dict:
    """The memory pass of one case, run in an interpreter of its own: {counter: MB}.

    `<phase>_rss` is how far the phase raised the peak resident set; a
    searching case adds the tracemalloc peak of building its network again
    and the bytes still held once it is built, as `peak` and `held`.
    """
    import pcsplab

    for module in sorted(info.name for info in pkgutil.iter_modules(pcsplab.__path__)):
        importlib.import_module(f"pcsplab.{module}")
    from pcsplab.polymorphisms import BlockTable, _search_network, is_polymorphism
    from pcsplab.symmetric import _wlog_colors

    _, target, blocks, phases = next(case for case in CASES if case[0] == label)
    structure, order = _case_inputs(target, blocks)
    values = net = None
    if "network" not in phases:
        values = _checked_table(label.split()[0], structure, len(blocks))
    out = {}
    gc.collect()
    before = _maxrss_mb()

    def grew(phase):
        nonlocal before
        now = _maxrss_mb()
        out[f"{phase}_rss"] = now - before
        before = now

    if "network" in phases:
        net = _search_network(structure, blocks)
        grew("network")
        values = next(net.solutions(order, _wlog_colors(structure), None), None)
        grew("solutions")
    if values is not None:
        is_polymorphism(BlockTable(blocks, structure.domain_size, values), structure)
        grew("check")
    if net is not None:
        del net
        gc.collect()
        tracemalloc.start()
        net = _search_network(structure, blocks)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out.update(peak=peak / 2**20, held=held / 2**20)
    return out


def _tree_env(path: str, pycache: str) -> dict:
    """The environment of the tree's interpreters: its library first on the path and its own bytecode cache."""
    return dict(os.environ, PYTHONPATH=os.path.abspath(path), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=pycache)


def _child(path: str, pycache: str, *args: str) -> dict:
    env = _tree_env(path, pycache)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def measure_startup(path: str, pycache: str) -> dict:
    """Each start-up case of the tree at path, timed in a fresh interpreter and then counted in another."""
    out, stdout = {}, {}
    env = _tree_env(path, pycache)
    for label, argv, stdin_from in STARTUP_CASES:
        stdin = stdout[stdin_from] if stdin_from else None
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, input=stdin, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        counted = subprocess.run(
            [sys.executable, "-c", COUNTING, *argv[1:]], env=env, input=stdin, capture_output=True, text=True
        )
        stdout[label] = proc.stdout
        counters = {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()[:16]}
        counters.update(json.loads(counted.stderr.splitlines()[-1]))
        out[label] = {"s": {"process": seconds}, "counters": counters}
    return out


def run_tree(path: str, pycache: str) -> dict:
    """One timed run of the tree at path, one memory pass per memory case and the start-up cases, each in fresh
    interpreters that keep their bytecode under pycache."""
    out = _child(path, pycache, "--child")
    for label in MEMORY_CASES:
        out[label]["mb"] = _child(path, pycache, "--child-memory", label)
    out.update(measure_startup(path, pycache))
    return out


def commit_of(path: str):
    """The HEAD commit of the git checkout holding path, with "-dirty" if path differs from it; None outside one."""
    proc = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"], capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    clean = subprocess.run(["git", "-C", path, "diff", "--quiet", "HEAD", "--", "."], capture_output=True)
    return proc.stdout.strip() + ("" if clean.returncode == 0 else "-dirty")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH", help="a source tree to measure")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5: the ledger gives medians of at least 5 runs")
    trees = []
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not os.path.isdir(os.path.join(path, "pcsplab")):
            parser.error(f"--src {item!r}: expected LABEL=PATH with PATH holding pcsplab/")
        trees.append((label, path))
    samples = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory(prefix="network_layers-") as root:
        pycaches = {label: os.path.join(root, f"tree{i}") for i, (label, _) in enumerate(trees)}
        for run in range(args.runs):
            for label, path in trees if run % 2 == 0 else trees[::-1]:
                samples[label].append(run_tree(path, pycaches[label]))
                print(f"run {run + 1}/{args.runs} {label} done", file=sys.stderr)
    cases = {}
    for case, phases in [(case[0], case[3]) for case in CASES] + [(case[0], ("process",)) for case in STARTUP_CASES]:
        cases[case] = {}
        for label, runs in samples.items():
            counters = [r[case]["counters"] for r in runs]
            if any(c != counters[0] for c in counters):
                raise SystemExit(f"{case} / {label}: work counters changed between runs: {counters}")
            medians = {}
            for phase in phases:
                times = [r[case]["s"][phase] for r in runs if phase in r[case]["s"]]
                if times:
                    medians[phase] = round(statistics.median(times), 4)
            cases[case][label] = {"median_s": medians, "counters": counters[0]}
            if case in MEMORY_CASES:
                cases[case][label]["median_mb"] = {
                    key: round(statistics.median(r[case]["mb"][key] for r in runs), 2) for key in runs[0][case]["mb"]
                }
    ledger = {
        "script": "bench/network_layers.py",
        "runs": args.runs,
        "commits": {label: commit_of(path) for label, path in trees},
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "PYTHONPYCACHEPREFIX": "a fresh directory per tree",
        },
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    for case, by_tree in cases.items():
        for label, entry in by_tree.items():
            phases = " ".join(f"{p} {t:.4f}" for p, t in entry["median_s"].items())
            memory = " ".join(f"{key} {mb:.2f} MB" for key, mb in entry.get("median_mb", {}).items())
            print(f"{case:16} {label:8} {phases}  {memory}  {entry['counters']}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:  # one timed run in this interpreter, for run_tree
        json.dump(measure_once(), sys.stdout)
        sys.exit(0)
    if sys.argv[1:2] == ["--child-memory"]:  # the memory pass of one case in this interpreter, for run_tree
        json.dump(measure_memory(sys.argv[2]), sys.stdout)
        sys.exit(0)
    sys.exit(main())
