"""Weight tables and propagation-based existence search.

A symmetric table is a BlockTable with one block: one value per Hamming
weight 0..n.  Compatibility says every weight triple (a, b, c) with
a+b+c = n must map into the target relation (in every order, which is free
when the relation is symmetric).  A two-block table has blocks (k1, k2)
and one value per weight pair.  Search is chronological backtracking that
keeps every node arc consistent; when the target's automorphism group
identifies colors, the first branched cell only tries orbit
representatives.  Propagation traces record forward checking.  The tables,
the check and the search networks come from `polymorphisms`, which accepts
only the exactly-one-1 source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polymorphisms import BlockTable, _search_network, allowed_table, is_polymorphism
from .structures import RelStructure, TemplatePair, automorphism_orbits


def SymTable(arity: int, target_size: int, values) -> BlockTable:
    """The symmetric table with values per weight 0..arity; perfbench builds its tables by this name."""
    return BlockTable((arity,), target_size, values)


def BlockSymTable(k1: int, k2: int, target_size: int, values) -> BlockTable:
    """The two-block table with values per weight pair (w1, w2); perfbench builds its tables by this name."""
    return BlockTable((k1, k2), target_size, values)


@dataclass(frozen=True)
class ForceEvent:
    cell: int
    color: int
    triple: tuple


@dataclass(frozen=True)
class ContradictionEvent:
    cell: int
    eliminations: tuple[tuple[int, tuple], ...]  # (color, justifying triple)


@dataclass(frozen=True)
class PropagationTrace:
    events: tuple

    @property
    def contradiction(self) -> ContradictionEvent | None:
        if self.events and isinstance(self.events[-1], ContradictionEvent):
            return self.events[-1]
        return None

    def forced(self) -> list[ForceEvent]:
        return [e for e in self.events if isinstance(e, ForceEvent)]

    def to_dict(self) -> dict:
        events = []
        for e in self.events:
            if isinstance(e, ForceEvent):
                events.append({"kind": "force", "cell": e.cell, "color": e.color, "triple": list(e.triple)})
            else:
                events.append({
                    "kind": "contradiction",
                    "cell": e.cell,
                    "eliminations": [{"color": c, "triple": list(t)} for c, t in e.eliminations],
                })
        return {"events": events}


def sym_compatible_triples(n: int) -> list[tuple[int, int, int]]:
    """All weight multisets {a, b, c} with a+b+c = n, in canonical order."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(a, n + 1) if n - a - b >= b]


def is_symmetric_polymorphism(table: BlockTable, template: TemplatePair) -> bool:
    """is_polymorphism under the name search_symmetric asserts through; perfbench traces it by this name."""
    return is_polymorphism(table, template)


def is_block_symmetric_polymorphism(table: BlockTable, template: TemplatePair) -> bool:
    """is_polymorphism under the name search_block_symmetric asserts through; perfbench traces it by this name."""
    return is_polymorphism(table, template)


def propagate(template: TemplatePair, n: int, seed: dict[int, int]) -> tuple[dict[int, int], PropagationTrace]:
    """Forward-checking fixpoint of the arity-n search network from the seeded weights, weight -> color.

    For every triple with two assigned weights the third weight's candidate
    set is intersected with the values compatible with the assigned pair;
    singletons are forced and propagate in turn, and an emptied candidate
    set stops propagation.  The seeded weights are queued in ascending
    order and the queue propagates its newest weight first, so the event
    order is deterministic.  Returns the seed with every forced weight added.
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    net = _search_network(template, (n,), range(n + 1))
    k = net.k
    cand = [net.full] * net.ncells
    for w, v in seed.items():
        if w not in range(n + 1) or v not in range(k):
            raise ValueError(f"seed f({w}) = {v} outside weights 0..{n} or colors 0..{k - 1}")
        cand[w] = 1 << v
    assigned = dict(seed)
    events: list = []
    eliminations: list[list[tuple[int, tuple]]] = [[] for _ in range(net.ncells)]

    def on_narrow(cell: int, removed: int, triple: tuple) -> None:
        eliminations[cell].extend((v, triple) for v in range(k) if removed >> v & 1)
        new = cand[cell] & ~removed
        if not new:
            events.append(ContradictionEvent(cell, tuple(eliminations[cell])))
        elif new & (new - 1) == 0:
            assigned[cell] = new.bit_length() - 1
            events.append(ForceEvent(cell, assigned[cell], triple))

    net.propagate_from(cand, sorted(seed), net.forward, on_narrow)
    return assigned, PropagationTrace(tuple(events))


@dataclass(frozen=True)
class SearchResult:
    table: BlockTable | None
    nodes: int


def _wlog_colors(target: RelStructure) -> tuple[int, ...]:
    """One representative color per automorphism orbit of the target domain.

    Composing a polymorphism with a target automorphism yields another
    polymorphism, so the first branched cell only needs one color per orbit.
    """
    return tuple(sorted(min(orbit) for orbit in automorphism_orbits(target)))


def _first_solution(template: TemplatePair, blocks, branch_order, use_wlog: bool, deadline):
    """The first table on the cells of the coordinate blocks, or None, with the nodes searched."""
    net = _search_network(template, blocks, branch_order, deadline)
    wlog = _wlog_colors(template.target) if use_wlog else None
    return next(net.solutions(wlog, deadline), None), net.nodes


def search_symmetric(
    template: TemplatePair,
    n: int,
    *,
    use_wlog: bool = True,
    deadline: float | None = None,
) -> SearchResult:
    """Backtracking search for a weight table; lowest unassigned weight first.

    `deadline` bounds building the network and the search, then raises TimeBudgetExceeded.
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    values, nodes = _first_solution(template, (n,), range(n + 1), use_wlog, deadline)
    table = None if values is None else BlockTable((n,), template.target.domain_size, values)
    assert table is None or is_symmetric_polymorphism(table, template)
    return SearchResult(table, nodes)


def _block_branch_order(k1: int, k2: int) -> list[int]:
    """Cells of one embedded symmetric subproblem first, then the rest.

    When a block size is divisible by three, splitting that block into three
    equal parts ties the other block's cells at that column into a pure
    symmetric-arity subnetwork; branching it first surfaces refutations that
    live inside the subnetwork without hurting satisfiable cases.
    """
    width = k2 + 1
    ncells = (k1 + 1) * width
    if k2 % 3 == 0:
        first = range(k2 // 3, ncells, width)  # column w2 = k2/3
    elif k1 % 3 == 0:
        first = range(k1 // 3 * width, (k1 // 3 + 1) * width)  # row w1 = k1/3
    else:
        first = range(0)
    return [*first, *(cell for cell in range(ncells) if cell not in first)]


def search_block_symmetric(
    template: TemplatePair,
    k1: int,
    k2: int,
    *,
    use_wlog: bool = True,
    deadline: float | None = None,
) -> SearchResult:
    """Backtracking search for a two-block weight table; `deadline` works as in search_symmetric."""
    if k1 < 1 or k2 < 1:
        raise ValueError("block sizes must be >= 1")
    values, nodes = _first_solution(template, (k1, k2), _block_branch_order(k1, k2), use_wlog, deadline)
    table = None if values is None else BlockTable((k1, k2), template.target.domain_size, values)
    assert table is None or is_block_symmetric_polymorphism(table, template)
    return SearchResult(table, nodes)


def restrict_block_to_symmetric(table: BlockTable) -> BlockTable:
    """Symmetric arity-k1 table f(m) = g(m, k2/3) of a two-block table g; needs 3 | k2.

    Any weight triple of the restriction lifts to a block partition that
    puts k2/3 second-block elements in each part, so compatibility carries
    over from the block table.
    """
    k1, k2 = table.blocks
    if k2 % 3 != 0:
        raise ValueError(f"second block size {k2} is not divisible by 3")
    return BlockTable((k1,), table.target_size, tuple(table.value(m, k2 // 3) for m in range(k1 + 1)))


# --- seeded contradiction replay ---------------------------------------------

_REPLAY_SCRIPT: tuple[tuple[int, tuple[int, int, int]], ...] = (
    (7, (7, 8, 8)),
    (9, (7, 7, 9)),
    (5, (5, 9, 9)),
    (13, (5, 5, 13)),
    (2, (2, 8, 13)),
    (14, (2, 7, 14)),
    (0, (0, 9, 14)),
)


@dataclass(frozen=True)
class ForcingCertificate:
    """A machine-checked derivation: seeded value, forced chain, dead cell."""

    arity: int
    seed_weight: int
    seed_color: int
    forced: tuple[ForceEvent, ...]
    contradiction_weight: int
    refutations: tuple[tuple[int, PropagationTrace], ...]  # color -> failing trace
    automorphism_transitive: bool

    @property
    def complete(self) -> bool:
        colors_refuted = {color for color, trace in self.refutations if trace.contradiction is not None}
        return len(colors_refuted) == len(self.refutations) and len(self.refutations) > 0

    def to_dict(self) -> dict:
        return {
            "seed_color": self.seed_color,
            "forced": [{"weight": e.cell, "color": e.color, "triple": list(e.triple)} for e in self.forced],
            "contradiction_weight": self.contradiction_weight,
            "refutations": [{"color": color, "trace": trace.to_dict()} for color, trace in self.refutations],
            "complete": self.complete,
        }


def chplus23_certificate(template: TemplatePair, seed_color: int = 0) -> ForcingCertificate:
    """Replay the arity-23 forced chain from f(8) = seed over the 4-cycle-plus target.

    Each step narrows one weight with a single compatibility triple whose
    other slots are already assigned and asserts the candidate set is a
    singleton; afterwards every color for weight 6 is refuted by running
    the general propagator.  A complete certificate plus the transitivity
    of the target's automorphism group rules out symmetric tables of
    arity 23 altogether.
    """
    n = 23
    k = template.target.domain_size
    allowed = allowed_table(template.target)
    assigned: dict[int, int] = {8: seed_color}
    forced: list[ForceEvent] = []
    for weight, triple in _REPLAY_SCRIPT:
        rest = list(triple)
        rest.remove(weight)
        o1, o2 = rest
        if o1 not in assigned or o2 not in assigned:
            raise ValueError(f"replay step for weight {weight}: triple {triple} not yet determined")
        mask = allowed[assigned[o1]][assigned[o2]]
        if mask == 0 or mask & (mask - 1) != 0:
            raise ValueError(f"replay step for weight {weight}: candidates not a singleton")
        color = mask.bit_length() - 1
        assigned[weight] = color
        forced.append(ForceEvent(weight, color, triple))

    refutations = []
    for color in range(k):
        _, trace = propagate(template, n, {**assigned, 6: color})
        refutations.append((color, trace))

    transitive = len(automorphism_orbits(template.target)) == 1
    return ForcingCertificate(
        n, 8, seed_color, tuple(forced), 6, tuple(refutations), transitive
    )
