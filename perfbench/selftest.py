"""Self-test of the output checks at toy size.

    python3 perfbench/selftest.py

Runs four toy jobs through the runner and checks the benchmark uses: once as
the program answers, then once per injected fault (a wrong search verdict, a
returned table that is not a polymorphism, a failed lemma, a planted
instance reported uncolorable, a crash).  Exits 0 only if the clean pass has
no failure and each injected fault is counted as exactly one failed
operation.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads as w


def toy_jobs():
    return [
        w._search_job(["poly", "search-sym", "1in3", "T2", "7"], "probe"),
        w._report_job(["verify", "lemmas", "CH", "--max-arity", "3"], w._LEMMA_LINE, "examined", "probe"),
        w._planted_job(1, "T2", "t2", nv=12, ne=8),
        w._template_classify_job("LO_3", "open"),
    ]


def failed_jobs(jobs):
    tracer = tracing.Tracer(record_spans=False)
    failed = []
    for i, job in enumerate(jobs):
        output, error, _ = run._run_job(job, tracer, i)
        if not run._check_job(job, output, error, tracer, i)["ok"]:
            failed.append(job.id)
    return failed


def _wrong_search(output):
    code, text = output
    payload = dict(json.loads(text), found=False, values=None)
    return 1, json.dumps(payload)


def _broken_table(output):
    code, text = output
    payload = json.loads(text)
    return code, json.dumps(dict(payload, values=[0] * len(payload["values"])))


def _failed_lemma(output):
    code, text = output
    return 1, text.replace(": ok ", ": FAIL (1 counterexamples) ", 1)


def _planted_uncolorable(output):
    gen, _ = output
    return gen, (1, "no T2-coloring found; promise violated or instance hard\n")


def _crash(output):
    raise RuntimeError("injected crash")


INJECTIONS = [(0, _wrong_search), (0, _broken_table), (1, _failed_lemma), (2, _planted_uncolorable), (3, _crash)]


def main():
    clean = failed_jobs(toy_jobs())
    ok = not clean
    print(f"clean pass: {len(clean)} failed {clean}")
    for index, tamper in INJECTIONS:
        jobs = toy_jobs()
        job = jobs[index]
        job.run = (lambda run_job, tamper: lambda: tamper(run_job()))(job.run, tamper)
        failed = failed_jobs(jobs)
        caught = failed == [job.id]
        ok = ok and caught
        print(f"{tamper.__name__.lstrip('_')} injected into {job.id!r}: {'counted as failed' if caught else f'NOT caught ({failed})'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
