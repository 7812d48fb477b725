"""Spans and work counters recorded from outside the program.

`install` replaces public functions of the `pcsplab` modules with wrappers,
under every name a `pcsplab` module binds them to (`solvers.hom_exists` as
well as `homs.hom_exists`), so calls between modules are seen too.  Nothing
under `src/` changes.

Two modes:

- counting (every run): only `homs.hom_exists`, `solvers.hnf_solve` and
  `polymorphisms.enumerate_polymorphisms` are wrapped, to give the per-job
  work counters `hom_exists_calls`, `hnf_max_bits` and `tables`; these
  wrappers read no clock;
- tracing (the traced run): every public function, plus the validity check
  of `TemplatePair`, records a span and its time.

Statistics are kept per job and function.  Spans keep the first `SPAN_CAP`
calls of each function in each job; later calls are counted in the
statistics only, so a job with millions of calls stays in bounded memory.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = ("structures", "homs", "polymorphisms", "symmetric", "properties", "solvers", "cli")
COUNTED = ("homs.hom_exists", "solvers.hnf_solve", "polymorphisms.enumerate_polymorphisms")
SPAN_CAP = 1000


def _hnf_bits(args, result):
    return {"max_bits": max((abs(x).bit_length() for x in result), default=0) if result else 0}


# per-call work taken from a function's arguments and result; "max_*" keys keep
# the maximum, all others add up
EXTRAS = {
    "symmetric.search_symmetric": lambda a, r: {"nodes": r.nodes},
    "symmetric.search_block_symmetric": lambda a, r: {"nodes": r.nodes},
    "properties.check_property": lambda a, r: {"examined": r.examined},
    "properties.verify_selector": lambda a, r: {"states": r.states_explored},
    "homs.hom_lattice": lambda a, r: {"classes": len(r.classes)},
    "homs.check_coloring": lambda a, r: {"edges": len(a[0].edges)},
    "solvers.hnf_solve": _hnf_bits,
}


class Stat:
    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra = {}

    @property
    def self_s(self):
        return self.total - self.child

    def add_extra(self, values):
        for key, value in values.items():
            if key.startswith("max_"):
                self.extra[key] = max(self.extra.get(key, 0), value)
            else:
                self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Per-job statistics and spans of the wrapped functions."""

    def __init__(self, record_spans):
        self.record_spans = record_spans
        self.job = -1
        self.stats = {}  # (job, name) -> Stat
        self.spans = []  # (job, name, start, end, parent span index or -1)
        self.stack = []  # open calls: [child seconds, span index]

    def _stat(self, name):
        key = (self.job, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _enter(self, name, stat):
        span = -1
        if self.record_spans and stat.calls < SPAN_CAP:
            parent = self.stack[-1][1] if self.stack else -1
            span = len(self.spans)
            self.spans.append([self.job, name, 0.0, 0.0, parent])
        frame = [0.0, span]
        self.stack.append(frame)
        return frame

    def _leave(self, stat, frame, start, end):
        self.stack.pop()
        elapsed = end - start
        if self.stack:
            self.stack[-1][0] += elapsed
        stat.total += elapsed
        stat.child += frame[0]
        if frame[1] >= 0:
            self.spans[frame[1]][2:4] = [start, end]

    def wrap(self, name, fn):
        if not self.record_spans:
            return self._wrap_counting(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        extra = EXTRAS.get(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat = tracer._stat(name)
            frame = tracer._enter(name, stat)
            stat.calls += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(stat, frame, start, clock())
            if extra is not None:
                stat.add_extra(extra(args, result))
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Times each step of the generator; counts the items it yields as tables."""
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tracer._stat(name).calls += 1
            gen = fn(*args, **kwargs)

            def steps():
                while True:
                    stat = tracer._stat(name)
                    frame = tracer._enter(name, stat)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(stat, frame, start, clock())
                    stat.add_extra({"tables": 1})
                    yield item

            return steps()

        return wrapper

    def _wrap_counting(self, name, fn):
        """Counts calls and work only: no clock, no stack, no spans."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def counting_generator(*args, **kwargs):
                stat = tracer._stat(name)
                stat.calls += 1
                tables = 0
                try:
                    for item in fn(*args, **kwargs):
                        tables += 1
                        yield item
                finally:
                    stat.add_extra({"tables": tables})

            return counting_generator

        extra = EXTRAS.get(name)

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            stat = tracer._stat(name)
            stat.calls += 1
            if extra is not None:
                stat.add_extra(extra(args, result))
            return result

        return counting

    def layer_totals(self):
        """Statistics summed over jobs: name -> Stat."""
        totals = {}
        for (_, name), stat in self.stats.items():
            total = totals.setdefault(name, Stat())
            total.calls += stat.calls
            total.total += stat.total
            total.child += stat.child
            total.add_extra(stat.extra)
        return totals

    def job_counters(self, job):
        """The work counters every run records for one job."""
        def stat(name):
            return self.stats.get((job, name)) or Stat()

        return {
            "hom_exists_calls": stat("homs.hom_exists").calls,
            "hnf_max_bits": stat("solvers.hnf_solve").extra.get("max_bits", 0),
            "tables": stat("polymorphisms.enumerate_polymorphisms").extra.get("tables", 0),
        }


def public_functions():
    """original function -> "module.name" for every public function of MODULES."""
    found = {}
    for short in MODULES:
        module = importlib.import_module("pcsplab." + short)
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{short}.{name}"
    return found


def install(trace):
    """Wrap the counted functions (trace=False) or every public function (trace=True).

    Returns the tracer and a function that puts the originals back.
    """
    tracer = Tracer(record_spans=trace)
    targets = {fn: name for fn, name in public_functions().items() if trace or name in COUNTED}
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    patched = []  # (owner, attribute, original)
    for modname, module in list(sys.modules.items()):
        if modname == "pcsplab" or modname.startswith("pcsplab."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
    if trace:
        from pcsplab.structures import TemplatePair

        original = TemplatePair.__post_init__
        wrappers[original] = tracer.wrap("structures.TemplatePair", original)
        patched.append((TemplatePair, "__post_init__", original))
    for owner, attr, original in patched:
        setattr(owner, attr, wrappers[original])

    def restore():
        for owner, attr, original in patched:
            setattr(owner, attr, original)

    return tracer, restore
