"""pcsplab benchmark: three workloads driven through the public API.

    python3 perfbench/run.py --workload search --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every metric of every workload, by name and unit

Run from the root of a pcsplab checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
readable summary goes to standard error.  `wall_s` and `setup_s` are in
reference seconds (see speed.py); the summary also prints the plain times as
`raw_wall_s` and `raw_setup_s`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("search", "suites", "classify_solve")
SETUP_SAMPLES = 15  # fresh interpreters per run; their median is setup_s
RUN_BUDGET_S = 170  # the whole run, children included, ends within this
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = (
    ("symmetric.search_symmetric", ("s", "nodes", "nodes_per_s")),
    ("symmetric.search_block_symmetric", ("s", "nodes", "nodes_per_s")),
    ("symmetric.propagate", ("s", "calls")),
    ("symmetric.chplus23_certificate", ("s",)),
    ("symmetric.is_symmetric_polymorphism", ("s",)),
    ("symmetric.is_block_symmetric_polymorphism", ("s",)),
    ("polymorphisms.enumerate_polymorphisms", ("s", "tables", "tables_per_s")),
    ("polymorphisms.minor", ("s", "calls")),
    ("polymorphisms.preimage_set", ("s", "calls")),
    ("properties.check_property", ("s", "examined")),
    ("properties.verify_selector", ("s", "states")),
    ("properties.chromatic_number", ("s",)),
    ("homs.hom_exists", ("s", "calls")),
    ("homs.hom_lattice", ("s", "classes")),
    ("homs.check_coloring", ("s", "edges")),
    ("homs.find_homomorphism", ("s", "calls")),
    ("structures.named_template", ("s", "calls")),
    ("structures.TemplatePair", ("s", "calls")),
    ("solvers.gauss_gf3", ("s",)),
    ("solvers.hnf_solve", ("s", "max_bits")),
    ("solvers.solve_via_relaxation", ("s",)),
    ("solvers.generate_planted", ("s",)),
    ("solvers.parse_instance", ("s",)),
    ("solvers.classify_template", ("s", "calls")),
)
UNITS = {"s": "s", "nodes_per_s": "1/s", "tables_per_s": "1/s", "max_bits": "bits"}


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


# --- child processes ----------------------------------------------------------


def child_setup(workload, seed):
    import workloads

    workloads.build(workload, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _run_job(job, tracer, index, meter=None):
    """Runs one job; its seconds exclude the speed samples taken meanwhile."""
    tracer.job = index
    sampled = meter.kernel_s if meter else 0.0
    start = time.perf_counter()
    try:
        output, error = job.run(), ""
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a benchmark error
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return output, error, elapsed - ((meter.kernel_s - sampled) if meter else 0.0)


def _check_job(job, output, error, tracer, index):
    counters = {}
    if not error:
        try:
            counters = job.check(output)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    counters.update(tracer.job_counters(index))
    return {"ok": not error, "error": error, "counters": counters}


def child_pass(workload, seed, trace):
    import resource

    import tracing
    import workloads

    jobs = workloads.build(workload, seed)
    probe = workloads.probe_jobs() if trace else []
    tracer, restore = tracing.install(trace)
    with speed.Speedometer() as meter:
        cpu_start = time.process_time()
        start = time.perf_counter()
        runs = [_run_job(job, tracer, i, meter) for i, job in enumerate(jobs)]
        wall = time.perf_counter() - start - meter.kernel_s
        cpu = time.process_time() - cpu_start - meter.kernel_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs += [_run_job(job, tracer, len(jobs) + i) for i, job in enumerate(probe)]
    restore()  # checks call into pcsplab too; keep them out of the counters
    records = []
    for i, (job, (output, error, seconds)) in enumerate(zip(jobs + probe, runs)):
        record = {"id": job.id, "seconds": seconds, "group": job.group, "probe": i >= len(jobs)}
        record.update(_check_job(job, output, error, tracer, i))
        records.append(record)
    result = {
        "raw_wall_s": wall,
        "wall_s": speed.reference_seconds(wall, meter.samples),
        "speed": speed.reference_seconds(1.0, meter.samples),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
    }
    if trace:
        result["layers"] = {
            name: dict(stat.extra, calls=stat.calls, s=stat.self_s, total_s=stat.total)
            for name, stat in tracer.layer_totals().items()
        }
        os.makedirs(STATE_DIR, exist_ok=True)
        with open(os.path.join(STATE_DIR, f"trace-{workload}-seed{seed}.json"), "w", encoding="utf-8") as handle:
            json.dump({
                "jobs": [job.id for job in jobs + probe],
                "span_fields": ["job", "name", "start", "end", "parent"],
                "spans": tracer.spans,
                "stats": [
                    dict(stat.extra, job=job, name=name, calls=stat.calls, total_s=stat.total, self_s=stat.self_s)
                    for (job, name), stat in tracer.stats.items()
                ],
            }, handle)
    print(json.dumps(result))


# --- the measuring process ------------------------------------------------------


def _child_cmd(kind, workload, seed, trace=False):
    return [sys.executable, os.path.join(HERE, "run.py"), "--child", kind,
            "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget")
    return left


def _start_seconds(cmd, deadline):
    """Wall time from spawning cmd until it prints its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return elapsed


def setup_samples(workload, seed, count, deadline):
    """(plain, reference) seconds of `count` set-ups: from spawning a fresh
    interpreter until it has imported pcsplab and built the workload's fixed
    inputs, scaled by reference starts (speed.START_COMMAND) timed just
    before and just after it."""
    reference = [sys.executable, *speed.START_COMMAND]
    before = _start_seconds(reference, deadline)
    samples = []
    for _ in range(count):
        plain = _start_seconds(_child_cmd("setup", workload, seed), deadline)
        after = _start_seconds(reference, deadline)
        samples.append((plain, speed.reference_seconds(plain, [before, after], speed.NOMINAL_START_S)))
        before = after
    return samples


def run_pass(workload, seed, trace, deadline):
    try:
        proc = subprocess.run(_child_cmd("pass", workload, seed, trace), cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass ran past the {RUN_BUDGET_S} s run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest():
    """Digest of the program and benchmark sources: the counters depend on both."""
    digest = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "pcsplab"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def check_counters(workload, seed, counters):
    """Compare per-job work counters with earlier runs of the same sources and seed.

    The ledger lives in .perfbench/ of the checkout; a change between two runs
    of one commit means the work is not deterministic, which is a benchmark
    error rather than a slow or fast run.
    """
    path = os.path.join(STATE_DIR, "counters.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            ledger = json.load(handle)
    seen = ledger.setdefault(_source_digest(), {}).setdefault(f"{workload} {seed}", {})
    problems = [
        f"counters of {job!r} changed between runs: {seen[job]} then {value}"
        for job, value in counters.items() if job in seen and seen[job] != value
    ]
    seen.update(counters)
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle)
    os.replace(path + ".tmp", path)
    return problems


def _percentile_ms(samples, q):
    return (statistics.median(samples) if q == 50 else statistics.quantiles(samples, n=100)[q - 1]) * 1000.0


def layer_metrics(traced, untraced):
    layers = traced["layers"]
    metrics = {}
    for name, fields in LAYERS:
        stat = layers.get(name, {})
        seconds = stat.get("s", 0.0)
        for field in fields:
            if field.endswith("_per_s"):
                work = stat.get(field[: -len("_per_s")], 0)
                value = work / seconds if seconds > 0 else 0.0
            else:
                value = stat.get(field, 0)
            metrics[f"{name}.{field}"] = {"value": value, "unit": UNITS.get(field, "count")}
    cli_self = sum(stat["s"] for name, stat in layers.items() if name.startswith("cli."))
    metrics["cli.self_s"] = {"value": cli_self, "unit": "s"}
    metrics["process.cpu_s"] = {"value": untraced["cpu_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
    return metrics


def measure(workload, seed, seconds, trace):
    """One run: set-up samples, the untraced pass and, with trace, the traced one."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_samples(workload, seed, 1, deadline)  # warms the bytecode and file caches; not counted
    # half the samples before the pass and half after, so that the median
    # spans the run rather than one stretch of the machine's speed
    setup = setup_samples(workload, seed, SETUP_SAMPLES // 2, deadline)
    untraced = run_pass(workload, seed, False, deadline)
    setup += setup_samples(workload, seed, SETUP_SAMPLES - len(setup), deadline)
    setup_s = statistics.median(ref for _, ref in setup)
    raw_setup_s = statistics.median(plain for plain, _ in setup)
    passes = [untraced]
    if trace:
        passes.append(run_pass(workload, seed, True, deadline))
    counters = {j["id"]: j["counters"] for j in untraced["jobs"] if j["ok"]}
    problems = check_counters(workload, seed, counters)
    if trace:
        problems += [
            f"counters of {j['id']!r} differ between the untraced and traced pass: {counters[j['id']]} vs {j['counters']}"
            for j in passes[1]["jobs"]
            if j["ok"] and j["id"] in counters and not j["probe"] and counters[j["id"]] != j["counters"]
        ]
    if problems:
        raise BenchError("; ".join(problems))
    jobs = [j for p in passes for j in p["jobs"]]
    values = {"wall_s": untraced["wall_s"], "setup_s": setup_s, "peak_rss_mb": untraced["peak_rss_mb"]}
    extras = {
        "raw_wall_s": (untraced["raw_wall_s"], "s"),
        "raw_setup_s": (raw_setup_s, "s"),
        "speed": (untraced["speed"], "reference s per s"),
        "cpu_s": (untraced["cpu_s"], "s"),
    }
    solve = [j["seconds"] * untraced["speed"] for j in untraced["jobs"] if j["group"] == "solve"]
    if solve:
        extras["solve_p50_ms"] = (_percentile_ms(solve, 50), f"ms (reference, n={len(solve)})")
        extras["solve_p90_ms"] = (_percentile_ms(solve, 90), f"ms (reference, n={len(solve)})")
    if trace:
        metrics = layer_metrics(passes[1], untraced)
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": all(j["ok"] for j in jobs),
        "attempted": len(jobs),
        "failed": sum(not j["ok"] for j in jobs),
        "metrics": metrics,
    }
    lines = [f"{workload} (seed {seed}): {result['attempted']} jobs attempted, {result['failed']} failed"]
    lines += [f"  {name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in extras.items()]
    if trace:
        lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  FAILED {j['id']}: {j['error']}" for j in jobs if not j["ok"]]
    if untraced["raw_wall_s"] > seconds:
        lines.append(f"  note: the timed pass took longer than --seconds {seconds}")
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="drives generated instances and job order")
    parser.add_argument("--seconds", type=int, default=35,
                        help="budget the fixed job lists are sized to; a pass over it is reported")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child == "setup":
        return child_setup(args.workload, args.seed)
    if args.child == "pass":
        return child_pass(args.workload, args.seed, bool(args.trace))
    if not os.path.isfile(os.path.join(ROOT, "src", "pcsplab", "__init__.py")):
        print(f"perfbench: no pcsplab sources under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), file=sys.stdout if args.workload == "all" else sys.stderr, flush=True)
    except BenchError as exc:
        print(f"perfbench: benchmark error: {exc}", file=sys.stderr)
        return 3
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
