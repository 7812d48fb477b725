"""Record the answers the benchmark checks against, into expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose answers are trusted, and review the diff: the
benchmark counts every later answer that differs as a failed operation.
Work counters (nodes, states of the search, ...) are not recorded here; a
change may lower them.  Lemma `examined` and selector `states` counts are,
because the suites report them as part of their result.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import workloads as w


def answer(job_id, output):
    if job_id.startswith("poly search"):
        return json.loads(output[1])["found"]
    for prefix, line_re in (("verify lemmas", w._LEMMA_LINE), ("verify selector", w._SELECTOR_LINE)):
        if job_id.startswith(prefix):
            rows = [line_re.match(line).groups() for line in output[1].splitlines()]
            return {name: int(count) for name, _, count in rows}
    if job_id.startswith("hom lattice"):
        text = output[1]
        return {"classes": text.count(" [label="), "dot_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if job_id == "classify_template all3":
        return dict(Counter(output))
    return None  # checked against a known fact, not against a recording


def main():
    job_lists = dict(w.JOB_LISTS, probe=lambda rng: w.probe_jobs())
    record = {}
    for section, job_list in job_lists.items():
        record[section] = {}
        for job in job_list(random.Random(0)):
            if job.group == "solve":
                continue
            value = answer(job.id, job.run())
            if value is not None:
                record[section][job.id] = value
                print(f"{section}: {job.id}: {value}", flush=True)
    # a route's verdict does not depend on the target reached through it
    record["classify_solve"]["pool"] = {
        str(index): {
            route: w.run_cli(w._solve_argv(target, route), w.random_instance_text(index))[0] == 0
            for route, target in (("t2", "T2"), ("nae", "NAE"))
        }
        for index in range(w.POOL_SIZE)
    }
    with open(w.EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
