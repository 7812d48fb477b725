"""Job lists, fixed inputs and output checks for the three benchmark workloads.

A job is one call into the program: a `pcsplab.cli.main(argv)` invocation
with stdout captured, or a direct library call where the command line has no
entry point.  Every job carries a check that compares its output with the
recorded answer in `expected.json` and returns the job's work counters.

Jobs call the library through module attributes (`solvers.classify_template`,
...), so that the wrappers `tracing` installs there see them.  Checks run
after the wrappers are removed, so they never show in counters or spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pcsplab import cli, properties, solvers  # noqa: E402
from pcsplab.homs import check_coloring  # noqa: E402
from pcsplab.solvers import parse_instance  # noqa: E402
from pcsplab.structures import TemplatePair, named_template  # noqa: E402
from pcsplab.symmetric import (  # noqa: E402
    BlockSymTable,
    SymTable,
    is_block_symmetric_polymorphism,
    is_symmetric_polymorphism,
)

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@functools.lru_cache(maxsize=None)
def expected(section):
    """Recorded answers of one workload (written by record_expected.py)."""
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)[section]


# gen | solve size: at nv=240, ne=180 the cyclic (GF(3)) and not-all-equal
# (integer) routes cost about the same, so the latency percentiles do not
# sit on the gap between two route clusters.
SOLVE_NV, SOLVE_NE = 240, 180
SOLVE_JOBS = 120
RANDOM_JOBS = 12  # non-planted minority, drawn from the recorded pool
POOL_SIZE = 32
T2_TARGETS = ("T2", "T2plus", "Splus")
NAE_TARGETS = ("NAE", "NAE_3", "Q1plus")
KNESER = [(n, m) for n in range(2, 10) for m in range(1, 5) if n >= 2 * m] + [(10, 4)]


class CheckFailed(Exception):
    """The program answered, but not with the recorded answer."""


@dataclass
class Job:
    id: str
    run: object  # () -> output, timed
    check: object  # (output) -> counters dict; raises CheckFailed on a wrong answer
    group: str = ""  # "solve" for the gen | solve latency samples


def run_cli(argv, stdin_text=None):
    """`pcsplab.cli.main(argv)` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- search -----------------------------------------------------------------


def _search_job(argv, section="search"):
    kind, target = argv[1], argv[3]
    job_id = " ".join(argv)

    def check(output):
        code, text = output
        payload = json.loads(text)
        found = expected(section)[job_id]
        _expect(payload["found"] == found, f"found={payload['found']}, recorded {found}")
        _expect(code == (0 if found else 1), f"exit {code}")
        if found:
            pair = TemplatePair(named_template("1in3"), named_template(target))
            k = pair.target.domain_size
            values = tuple(payload["values"])
            if kind == "search-sym":
                ok = is_symmetric_polymorphism(SymTable(int(argv[4]), k, values), pair)
            else:
                ok = is_block_symmetric_polymorphism(BlockSymTable(int(argv[4]), int(argv[5]), k, values), pair)
            _expect(ok, "returned table is not a polymorphism")
        return {"nodes": payload["nodes"]}

    return Job(job_id, lambda: run_cli(argv + ["--json"]), check)


def _appendix_b_job():
    def check(output):
        code, text = output
        payload = json.loads(text)
        _expect(code == 0 and payload["arity"] == 23, f"exit {code}")
        _expect(all(c["complete"] for c in payload["certificates"]), "incomplete certificate")
        _expect(payload["automorphism_transitive"], "color group not transitive")
        return {"forced": sum(len(c["forced"]) for c in payload["certificates"])}

    return Job("poly verify --appendix-b", lambda: run_cli(["poly", "verify", "--appendix-b", "--json"]), check)


def search_jobs(rng):
    argvs = [["poly", "search-sym", "1in3", "LO_3", str(n)] for n in (40, 50, 55, 60, 64)]
    argvs += [["poly", "search-block", "1in3", "LO_3", str(k + 1), str(k)] for k in (3, 4, 5, 6, 7, 8, 9)]
    argvs += [["poly", "search-block", "1in3", "CHplus", "23", "24"], ["poly", "search-block", "1in3", "NAE", "31", "30"]]
    return [_search_job(a) for a in argvs] + [_appendix_b_job()]


# --- suites -----------------------------------------------------------------

_LEMMA_LINE = re.compile(r"^(\S+): (ok|FAIL.*) \(examined (\d+), ")
_SELECTOR_LINE = re.compile(r"^(\S+) \(k=\d+, l=\d+\): (ok|FAIL) \((\d+) states, ")


def _report_job(argv, line_re, counter, section="suites"):
    job_id = " ".join(argv)

    def check(output):
        code, text = output
        rows = [line_re.match(line).groups() for line in text.splitlines()]
        got = {name: int(count) for name, _, count in rows}
        recorded = expected(section)[job_id]
        _expect(got == recorded, f"{counter} {got}, recorded {recorded}")
        _expect(code == 0 and all(status == "ok" for _, status, _ in rows), "a fact or selector failed")
        return {counter: sum(got.values())}

    return Job(job_id, lambda: run_cli(argv), check)


def _kneser_job(pairs):
    from pcsplab.properties import kneser_graph

    graphs = [(n, m, kneser_graph(n, m)) for n, m in pairs]

    def run():
        return [(n, m, properties.chromatic_number(g, limit=n)) for n, m, g in graphs]

    def check(results):
        for n, m, chi in results:
            # Lovasz: chi(KG(n, m)) = n - 2m + 2
            _expect(chi == n - 2 * m + 2, f"chi(KG({n},{m})) = {chi}")
        return {"graphs": len(results)}

    return Job(f"chromatic_number of {len(pairs)} Kneser graphs", run, check)


def suites_jobs(rng):
    jobs = [
        _report_job(["verify", "lemmas", t, "--max-arity", "4"], _LEMMA_LINE, "examined")
        for t in ("T1", "D2plus", "CH", "D1plus")
    ]
    jobs += [
        _report_job(["verify", "lemmas", t, "--max-arity", "5", "--force"], _LEMMA_LINE, "examined")
        for t in ("T1", "CH")
    ]
    jobs += [
        _report_job(["verify", "selector", t, "--max-arity", "3"], _SELECTOR_LINE, "states")
        for t in ("D1plus", "D2plus", "T1")
    ]
    jobs.append(_report_job(["verify", "selector", "CH", "--max-arity", "4"], _SELECTOR_LINE, "states"))
    return jobs + [_kneser_job(KNESER)]


# --- classify_solve -----------------------------------------------------------


def _lattice_job(flag, section="classify_solve"):
    argv = ["hom", "lattice", flag]
    job_id = " ".join(argv)

    def check(output):
        code, text = output
        classes = text.count(" [label=")
        digest = hashlib.sha256(text.encode()).hexdigest()
        recorded = expected(section)[job_id]
        _expect(code == 0 and classes == recorded["classes"], f"{classes} classes")
        _expect(digest == recorded["dot_sha256"], "DOT output differs from the recorded one")
        return {"classes": classes}

    return Job(job_id, lambda: run_cli(argv), check)


def _classify_job():
    structures = cli.all_symmetric_ternary_structures()

    def check(labels):
        got = dict(Counter(labels))
        recorded = expected("classify_solve")["classify_template all3"]
        _expect(got == recorded, f"labels {got}, recorded {recorded}")
        return {"structures": len(labels)}

    return Job("classify_template all3", lambda: [solvers.classify_template(s) for s in structures], check)


def random_instance_text(index):
    """Non-planted instance `index` of the recorded pool.

    Even indices draw every edge from all variables (sparse, colorable);
    odd ones from the first half only (dense there, no coloring).
    """
    rng = random.Random(index)
    span = SOLVE_NV if index % 2 == 0 else SOLVE_NV // 2
    lines = [f"p hyp3 {SOLVE_NV} {SOLVE_NE}"]
    lines += ["e %d %d %d" % tuple(rng.sample(range(1, span + 1), 3)) for _ in range(SOLVE_NE)]
    return "\n".join(lines) + "\n"


def _solve_argv(target, route):
    return ["solve", target] + (["--prefer", "nae"] if route == "nae" else [])


def _check_solve(code, text, instance_text, target, colorable):
    _expect(code == (0 if colorable else 1), f"exit {code}, recorded {'colorable' if colorable else 'no coloring'}")
    if code == 0:
        coloring = {}
        for line in text.splitlines():
            tag, var, color = line.split()
            _expect(tag == "v", f"unexpected line {line!r}")
            coloring[int(var)] = int(color)
        instance = parse_instance(instance_text)
        _expect(check_coloring(instance, coloring, named_template(target)), "coloring violates an edge")


def _planted_job(seed, target, route, nv=SOLVE_NV, ne=SOLVE_NE):
    gen_argv = ["gen", str(nv), str(ne), str(seed)]
    solve_argv = _solve_argv(target, route)

    def run():
        gen = run_cli(gen_argv)
        return gen, run_cli(solve_argv, gen[1])

    def check(output):
        (gen_code, instance_text), (code, text) = output
        _expect(gen_code == 0, f"gen exit {gen_code}")
        _check_solve(code, text, instance_text, target, True)
        return {}

    return Job(" ".join(gen_argv + ["|"] + solve_argv), run, check, "solve")


def _random_job(index, target, route):
    text_in = random_instance_text(index)
    solve_argv = _solve_argv(target, route)

    def check(output):
        code, text = output
        colorable = expected("classify_solve")["pool"][str(index)][route]
        _check_solve(code, text, text_in, target, colorable)
        return {}

    return Job(f"random {index} | " + " ".join(solve_argv), lambda: run_cli(solve_argv, text_in), check, "solve")


def _target_route(i):
    """Job i's target and route: the routes alternate, each cycles its three targets."""
    if i % 2 == 0:
        return T2_TARGETS[i // 2 % 3], "t2"
    return NAE_TARGETS[i // 2 % 3], "nae"


def classify_solve_jobs(rng):
    jobs = [_lattice_job("--all3"), _lattice_job("--named3"), _classify_job()]
    seeds = rng.sample(range(1 << 31), SOLVE_JOBS - RANDOM_JOBS)
    jobs += [_planted_job(seed, *_target_route(i)) for i, seed in enumerate(seeds)]
    pool = rng.sample(range(POOL_SIZE), RANDOM_JOBS)
    jobs += [_random_job(index, *_target_route(i)) for i, index in enumerate(pool)]
    return jobs


def probe_jobs():
    """One toy-size call into every layer the traced run reports on.

    The traced run ends with these, outside its timed pass, so that every
    per-layer metric is measured on every workload: on a workload that
    bypasses a layer, the layer shows only the probe's small, steady cost.
    """
    return [
        _search_job(["poly", "search-sym", "1in3", "LO_3", "12"], "probe"),
        _search_job(["poly", "search-sym", "1in3", "T2", "7"], "probe"),
        _search_job(["poly", "search-block", "1in3", "NAE", "3", "2"], "probe"),
        _appendix_b_job(),
        _report_job(["verify", "lemmas", "CH", "--max-arity", "3"], _LEMMA_LINE, "examined", "probe"),
        _report_job(["verify", "selector", "T1", "--max-arity", "2"], _SELECTOR_LINE, "states", "probe"),
        _kneser_job([(5, 2)]),
        _lattice_job("--named3", "probe"),
        _template_classify_job("LO_3", "open"),
        _planted_job(1, "T2", "t2", nv=12, ne=8),
        _planted_job(1, "NAE", "nae", nv=12, ne=8),
    ]


def _template_classify_job(name, label):
    argv = ["template", "classify", name]

    def check(output):
        code, text = output
        _expect(code == 0 and text.strip() == label, f"label {text.strip()!r}, expected {label}")
        return {}

    return Job(" ".join(argv), lambda: run_cli(argv), check)


JOB_LISTS = {"search": search_jobs, "suites": suites_jobs, "classify_solve": classify_solve_jobs}


def build(workload, seed):
    """The workload's job list: fixed inputs built, order drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = JOB_LISTS[workload](rng)
    rng.shuffle(jobs)
    return jobs
