"""Homomorphism search between finite structures and the induced order.

The search is the map backtracker of the structures module, run over source
elements in degree-descending order; each constraint tuple is tested once,
when its last-ranked element is assigned.  At the desk scales used here
(domains of size two to four, instances with a few dozen variables) this is
exhaustive and fast.  The lattice construction groups structures into
mutual-homomorphism classes and emits the cover edges of the induced
partial order.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

from .errors import SignatureMismatchError, TimeBudgetExceeded
from .structures import RelStructure, _maps

STRICTLY_BELOW = "strictly_below"
STRICTLY_ABOVE = "strictly_above"
EQUIVALENT = "equivalent"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class HomMap:
    """A total map between domains, with on-demand verification."""

    source_size: int
    target_size: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source_size:
            raise ValueError("assignment must be total on the source domain")
        for v in self.assignment:
            if not 0 <= v < self.target_size:
                raise ValueError(f"assignment value {v} outside target domain")

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def preserves(self, source: RelStructure, target: RelStructure) -> bool:
        for rel_x, rel_b in zip(source.relations, target.relations):
            allowed = rel_b.as_set
            for t in rel_x.tuples:
                if tuple(self.assignment[x] for x in t) not in allowed:
                    return False
        return True


def _check_signatures(a: RelStructure, b: RelStructure) -> None:
    if a.signature != b.signature:
        raise SignatureMismatchError(f"signatures differ: {a.signature} vs {b.signature}")


def find_homomorphism(source: RelStructure, target: RelStructure) -> HomMap | None:
    """First homomorphism in deterministic search order, or None.

    Elements are assigned in degree-descending order (ties by index), each
    trying the target values in ascending order.  A value is rejected when
    some tuple whose last-ranked element it completes maps outside the target
    relation; partially assigned tuples are not checked, so no candidate
    values are pruned ahead of assignment.
    """
    _check_signatures(source, target)
    n, k = source.domain_size, target.domain_size
    degree = [0] * n
    for rel in source.relations:
        for t in rel.tuples:
            for x in t:
                degree[x] += 1
    order = sorted(range(n), key=lambda x: (-degree[x], x))
    assignment = next(_maps(source, target, order, [range(k)] * n), None)
    if assignment is None:
        return None
    hom = HomMap(n, k, assignment)
    assert hom.preserves(source, target)
    return hom


def hom_exists(source: RelStructure, target: RelStructure) -> bool:
    return find_homomorphism(source, target) is not None


def hom_order_compare(b1: RelStructure, b2: RelStructure) -> str:
    forward = hom_exists(b1, b2)
    backward = hom_exists(b2, b1)
    if forward and backward:
        return EQUIVALENT
    if forward:
        return STRICTLY_BELOW
    if backward:
        return STRICTLY_ABOVE
    return INCOMPARABLE


def check_coloring(instance, coloring: dict[int, int], target: RelStructure) -> bool:
    """Does the coloring map every instance edge into the ternary relation?

    The coloring must be total on 1..variable_count; membership is tested on
    ordered triples, so repeated coordinates behave as written.
    """
    rel = target.single_ternary().as_set
    for v in range(1, instance.variable_count + 1):
        if v not in coloring:
            raise ValueError(f"coloring is not total: variable {v} missing")
        if not 0 <= coloring[v] < target.domain_size:
            raise ValueError(f"color {coloring[v]} outside target domain")
    return all((coloring[a], coloring[b], coloring[c]) in rel for a, b, c in instance.edges)


@dataclass(frozen=True)
class HomClass:
    """One mutual-homomorphism class with its canonical representative."""

    members: tuple[RelStructure, ...]
    representative: RelStructure


@dataclass(frozen=True)
class HomLattice:
    classes: tuple[HomClass, ...]
    cover_edges: frozenset[tuple[int, int]]  # (lower index, higher index)

    def class_index_of(self, structure: RelStructure) -> int:
        for i, cls in enumerate(self.classes):
            if structure in cls.members:
                return i
        raise ValueError("structure not in lattice input")


def _iso_key(structure: RelStructure) -> tuple:
    """Canonical encoding minimized over domain permutations."""
    best = None
    for perm in itertools.permutations(range(structure.domain_size)):
        enc = tuple(
            (rel.arity, tuple(sorted(tuple(perm[x] for x in t) for t in rel.tuples)))
            for rel in structure.relations
        )
        if best is None or enc < best:
            best = enc
    return (structure.domain_size, best)


def _pairwise_hom_matrix(reps: list[RelStructure], jobs: int = 1, deadline: float | None = None) -> list[list[bool]]:
    m = len(reps)
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    jobs = min(jobs, os.cpu_count() or 1)  # the answers do not depend on the chunking
    if jobs > 1 and len(pairs) > 512:
        import multiprocessing

        chunks = [pairs[i::jobs] for i in range(jobs)]
        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(_hom_chunk, [(reps, chunk, deadline) for chunk in chunks])
        answers = dict(itertools.chain.from_iterable(results))
    else:
        answers = dict(_hom_chunk(reps, pairs, deadline))
    matrix = [[True] * m for _ in range(m)]
    for (i, j), ok in answers.items():
        matrix[i][j] = ok
    return matrix


def _hom_chunk(reps, pairs, deadline=None):
    answers = []
    for i, j in pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"hom lattice ran past its time budget after {len(answers)} of {len(pairs)} pairs")
        answers.append(((i, j), hom_exists(reps[i], reps[j])))
    return answers


def hom_lattice(structures, jobs: int = 1, time_budget: float | None = None) -> HomLattice:
    """Mutual-homomorphism classes of the input and their Hasse cover edges.

    Structures are first grouped up to isomorphism so the pairwise search
    runs once per isomorphism class; the emitted lattice is identical to a
    full sequential pairwise computation.  time_budget bounds the whole call
    in seconds; the deadline is checked before each pair, in every worker,
    and TimeBudgetExceeded is raised once it passes.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    structures = list(structures)
    if not structures:
        raise ValueError("lattice needs at least one structure")
    for s in structures:
        _check_signatures(structures[0], s)

    iso_groups: dict[tuple, list[int]] = {}
    for idx, s in enumerate(structures):
        iso_groups.setdefault(_iso_key(s), []).append(idx)
    iso_keys = sorted(iso_groups)
    reps = [structures[iso_groups[key][0]] for key in iso_keys]

    matrix = _pairwise_hom_matrix(reps, jobs=jobs, deadline=deadline)

    m = len(reps)
    class_of_rep = [-1] * m
    classes_reps: list[list[int]] = []
    for i in range(m):
        if class_of_rep[i] >= 0:
            continue
        cls = [j for j in range(m) if matrix[i][j] and matrix[j][i]]
        for j in cls:
            class_of_rep[j] = len(classes_reps)
        classes_reps.append(cls)

    classes = []  # (hom class, one of its isomorphism-class representatives), by representative encoding
    for rep_ids in classes_reps:
        member_ids = sorted(itertools.chain.from_iterable(iso_groups[iso_keys[r]] for r in rep_ids))
        members = tuple(structures[i] for i in member_ids)
        representative = min(members, key=lambda s: s.encoding())
        classes.append((HomClass(members, representative), rep_ids[0]))
    classes.sort(key=lambda c: c[0].representative.encoding())
    hom_classes = [c for c, _ in classes]
    heads = [r for _, r in classes]
    below = [[i != j and matrix[a][b] for j, b in enumerate(heads)] for i, a in enumerate(heads)]

    nclasses = len(hom_classes)
    covers = set()
    for i in range(nclasses):
        for j in range(nclasses):
            if not below[i][j]:
                continue
            if any(below[i][k] and below[k][j] for k in range(nclasses)):
                continue
            covers.add((i, j))
    return HomLattice(tuple(hom_classes), frozenset(covers))


def _default_label(structure: RelStructure) -> str:
    rel_txt = ";".join(
        ",".join("".join(str(x) for x in t) for t in rel.tuples) for rel in structure.relations
    )
    return f"d{structure.domain_size}:{rel_txt}"


def lattice_to_dot(lattice: HomLattice, labeler=None) -> str:
    """DOT digraph with one node per class and one edge per cover pair (low to high)."""
    lines = ["digraph hom_lattice {", "  rankdir=BT;"]
    for i, cls in enumerate(lattice.classes):
        label = None
        if labeler is not None:
            names = sorted({name for member in cls.members for name in [labeler(member)] if name})
            if names:
                label = "=".join(names)
        if label is None:
            label = _default_label(cls.representative)
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in sorted(lattice.cover_edges):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
