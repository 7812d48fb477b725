"""Weight tables and propagation-based existence search.

A symmetric table is a BlockTable with one block: one value per Hamming
weight 0..n.  Compatibility says every weight triple (a, b, c) with
a+b+c = n must map into the target relation (in every order, which is free
when the relation is symmetric).  A two-block table has blocks (k1, k2)
and one value per weight pair.  Search is chronological backtracking that
keeps every node arc consistent; when the target's automorphism group
identifies colors, the first branched cell only tries orbit
representatives.  Propagation traces record forward checking on a network
built once.  The tables, the check and the search networks come from
`polymorphisms`; the source is always 1-in-3, so every function takes the
target alone, or a network built for it.
"""

from __future__ import annotations

from collections import namedtuple

from ._network import Network
from .polymorphisms import BlockTable, _search_network, allowed_table, is_polymorphism, one_in_three_target
from .structures import RelStructure, TemplatePair, automorphism_orbits


def SymTable(arity: int, target_size: int, values) -> BlockTable:
    """The symmetric table with values per weight 0..arity; perfbench builds its tables by this name."""
    return BlockTable((arity,), target_size, values)


def BlockSymTable(k1: int, k2: int, target_size: int, values) -> BlockTable:
    """The two-block table with values per weight pair (w1, w2); perfbench builds its tables by this name."""
    return BlockTable((k1, k2), target_size, values)


class ForceEvent(namedtuple("ForceEvent", "cell color triple")):
    __slots__ = ()


class ContradictionEvent(namedtuple("ContradictionEvent", "cell eliminations")):
    """eliminations holds (color, justifying triple) pairs."""

    __slots__ = ()


class PropagationTrace(namedtuple("PropagationTrace", "events")):
    __slots__ = ()

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
    """is_polymorphism of a 1-in-3 pair's target; perfbench checks found symmetric tables by this name."""
    return is_polymorphism(table, one_in_three_target(template))


def is_block_symmetric_polymorphism(table: BlockTable, template: TemplatePair) -> bool:
    """is_polymorphism of a 1-in-3 pair's target; perfbench checks found two-block tables by this name."""
    return is_polymorphism(table, one_in_three_target(template))


def propagate(net: Network, seed: dict[int, int]) -> tuple[dict[int, int], PropagationTrace]:
    """Forward-checking fixpoint of a symmetric search network from the seeded weights, weight -> color.

    For every triple with two assigned weights the third weight's candidate
    set is intersected with the values compatible with the assigned pair;
    singletons are forced and propagate in turn, and an emptied candidate
    set stops propagation.  The seeded weights are queued in ascending
    order and the queue propagates its newest weight first, so the event
    order is deterministic.  Returns the seed with every forced weight added.
    Each call starts from fresh candidates, so one network serves every seed.
    """
    k = net.k
    cand = [net.full] * net.ncells
    for w, v in seed.items():
        if w not in range(net.ncells) or v not in range(k):
            raise ValueError(f"seed f({w}) = {v} outside weights 0..{net.ncells - 1} or colors 0..{k - 1}")
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


class SearchResult(namedtuple("SearchResult", "table nodes")):
    """The table found, or None, and the search nodes it took."""

    __slots__ = ()


def _wlog_colors(target: RelStructure) -> tuple[int, ...]:
    """One representative color per automorphism orbit of the target domain.

    Composing a polymorphism with a target automorphism yields another
    polymorphism, so the first branched cell only needs one color per orbit.
    """
    return tuple(sorted(min(orbit) for orbit in automorphism_orbits(target)))


def _first_solution(target: RelStructure, blocks, branch_order, use_wlog: bool, deadline) -> SearchResult:
    """The first table on the cells of the coordinate blocks, or None, checked, with the nodes searched."""
    net = _search_network(target, blocks, deadline)
    values = next(net.solutions(branch_order, _wlog_colors(target) if use_wlog else None, deadline), None)
    table = None if values is None else BlockTable(blocks, target.domain_size, values)
    assert table is None or is_polymorphism(table, target)
    return SearchResult(table, net.nodes)


def search_symmetric(
    target: RelStructure,
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
    return _first_solution(target, (n,), range(n + 1), use_wlog, deadline)


def _block_branch_order(k1: int, k2: int) -> list[int]:
    """Cells nearest the centre (k1/3, k2/3) first: by |w1 - k1/3| + |w2 - k2/3|, ties by index.

    A cell near the centre shares its near-balanced 3-partitions with
    other cells near it, so the first cells branched constrain one another,
    and a refutation that lives among those partitions shows after a few
    nodes (fail first).
    """
    width = k2 + 1
    return sorted(range((k1 + 1) * width), key=lambda c: (abs(3 * (c // width) - k1) + abs(3 * (c % width) - k2), c))


def search_block_symmetric(
    target: RelStructure,
    k1: int,
    k2: int,
    *,
    use_wlog: bool = True,
    deadline: float | None = None,
) -> SearchResult:
    """Backtracking search for a two-block weight table, centre-first; `deadline` works as in search_symmetric.

    Cells are branched in `_block_branch_order` and colors tried in ascending
    order, so the table found is the least one along that order.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("block sizes must be >= 1")
    return _first_solution(target, (k1, k2), _block_branch_order(k1, k2), use_wlog, deadline)


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


class ForcingCertificate(
    namedtuple(
        "ForcingCertificate",
        "arity seed_weight seed_color forced contradiction_weight refutations automorphism_transitive",
    )
):
    """A machine-checked derivation: seeded value, forced chain, dead cell.

    refutations pairs each color of the refuted cell with its failing trace.
    """

    __slots__ = ()

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


def chplus23_certificate(target: RelStructure, seed_color: int = 0) -> ForcingCertificate:
    """Replay the arity-23 forced chain from f(8) = seed over the 4-cycle-plus target.

    Each step narrows one weight with a single compatibility triple whose
    other slots are already assigned and asserts the candidate set is a
    singleton; afterwards every color for weight 6 is refuted by running
    the general propagator on one arity-23 network.  A complete certificate
    plus the transitivity of the target's automorphism group rules out
    symmetric tables of arity 23 altogether.
    """
    n = 23
    k = target.domain_size
    allowed = allowed_table(target)
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

    net = _search_network(target, (n,))
    refutations = [(color, propagate(net, {**assigned, 6: color})[1]) for color in range(k)]

    transitive = len(automorphism_orbits(target)) == 1
    return ForcingCertificate(
        n, 8, seed_color, tuple(forced), 6, tuple(refutations), transitive
    )
