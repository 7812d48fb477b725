"""Exhaustive desk-scale verification of structural facts about polymorphisms.

Every catalog entry is a closed predicate over a single table; a check
streams one polymorphism per orbit under permuting the coordinates for
each arity, weighted by the orbit's size, and collects violating tables
together with witness data, so a reported counterexample can be
re-verified independently.  Every predicate's pass or fail is the same on
all members of an orbit; the failing orbits are listed member by member.
Conditional statements pass vacuously when their hypotheses fail.

Predicates read a table bit-sliced: a SlicedTable holds one plane per
colour, an integer whose bit m is set iff the table maps the subset m to
that colour, and a MaskTables holds the planes that depend on the arity
only.  check_properties builds the MaskTables once per arity and one
SlicedTable per table; nothing is built at import or kept between calls.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from collections import namedtuple

from .errors import TimeBudgetExceeded, expired
from .polymorphisms import (
    BlockTable,
    MinorMap,
    enumerate_orbits,
    enumerate_polymorphisms,
    orbit_permutations,
    subset_masks,
)
from .structures import RelStructure


# --- the sliced view ------------------------------------------------------------
#
# A plane is an integer of 2**n bits, bit m standing for the subset mask m, so a
# family of subsets is one integer and "every set of size <= j is a 1-set" is
# one AND.  For y disjoint from x, x | y == x + y: shifting a plane left by x
# unions x into each of its members.


class MaskTables:
    """The planes fixed by the arity n and target size k; check_properties builds one per arity.

    down[u] holds the subsets of u, layers[j] the sets of size j, upto[j] the
    sets of size at most j (both listed up to j = max(n, 3)), has[i] the sets
    containing coordinate i (from 0) and par[e] the sets m with |m & e| odd.
    split maps the singleton bits of a plane to the coordinate mask they
    stand for.
    """

    __slots__ = ("n", "top", "every", "lower", "down", "layers", "upto", "singles", "has", "lacks", "par", "split", "color_bytes", "padding")

    def __init__(self, n: int, k: int):
        size = 1 << n
        self.n = n
        self.top = size - 1
        self.every = (1 << size) - 1
        self.lower = (1 << (size >> 1)) - 1  # the sets without the top coordinate
        self.down = [sum(1 << m for m in range(size) if m & u == m) for u in range(size)]
        self.layers = [sum(1 << m for m in range(size) if m.bit_count() == j) for j in range(max(n, 3) + 1)]
        self.upto = list(itertools.accumulate(self.layers, operator.or_))
        self.singles = self.layers[1]
        self.has = [sum(1 << m for m in range(size) if m >> i & 1) for i in range(n)]
        self.lacks = [(1 << i, self.every ^ has) for i, has in enumerate(self.has)]
        self.par = [sum(1 << m for m in range(size) if (m & e).bit_count() % 2) for e in range(size)]
        self.split = {sum(1 << (1 << i) for i in range(n) if e >> i & 1): e for e in range(size)}
        # translate the reversed value bytes to the binary digits of the plane of colour c, 1 <= c < k
        self.color_bytes = [bytes(49 if b == c else 48 for b in range(256)) for c in range(1, k)]
        self.padding = [0] * (4 - k)


class SlicedTable:
    """One table as colour planes: bit m of planes[c] is set iff values[m] == c.

    planes has an entry for each colour below max(k, 4), so the CH facts may
    name colours mod 4 on a table of any target.  nonzero is the plane of the
    sets with a non-zero value and e the split E_f as a mask: the
    coordinates whose singleton has a non-zero value.
    """

    __slots__ = ("values", "masks", "planes", "nonzero", "e")

    def __init__(self, values: tuple[int, ...], masks: MaskTables):
        digits = bytes(values)[::-1]
        planes = [int(digits.translate(color), 2) for color in masks.color_bytes]
        nonzero = sum(planes)  # the planes are disjoint
        self.values = values
        self.masks = masks
        self.planes = [masks.every ^ nonzero, *planes, *masks.padding]
        self.nonzero = nonzero
        self.e = masks.split[nonzero & masks.singles]


def _lowest(plane: int) -> int:
    return (plane & -plane).bit_length() - 1


def _disjoint_pair(t: SlicedTable, color: int):
    """The first (x, y) of disjoint color-sets, x ascending, then y ascending.

    The pair relation is symmetric and one of two disjoint sets lacks the top
    coordinate, so the first x lies below 2**(n-1).
    """
    plane = t.planes[color]
    masks = t.masks
    lower = plane & masks.lower
    while lower:
        low = lower & -lower
        x = low.bit_length() - 1
        partners = plane & masks.down[masks.top ^ x]
        if partners:
            return x, _lowest(partners)
        lower ^= low
    return None


def _union_witness(t: SlicedTable, cases):
    """The first (tag, x, y) over disjoint pairs, x ascending, then y descending.

    Each case is (tag, xs, ys, bad) and is violated by x in xs, y in ys and
    x | y in bad; the xs are disjoint, so at most one case is live per x.
    """
    masks = t.masks
    live = 0
    for _, xs, _, _ in cases:
        live |= xs
    while live:
        low = live & -live
        x = low.bit_length() - 1
        for tag, xs, ys, bad in cases:
            if xs & low:
                hits = ys & masks.down[masks.top ^ x] & (bad >> x)
                if hits:
                    return tag, x, hits.bit_length() - 1
        live ^= low
    return None


# --- property predicates ------------------------------------------------------
# Each reads one SlicedTable and returns None when the table satisfies the
# property, otherwise a small witness tuple (tag, masks...) sufficient to
# re-check the violation.  The witness is the first one in the order of the
# plain loops kept in tests/loop_properties.py: the lowest bit stands for an
# ascending scan and the highest for a descending submask walk.


def _p_d1_no_disjoint(t):
    for color in (1, 2):
        pair = _disjoint_pair(t, color)
        if pair:
            return ("disjoint-sets", color, *pair)
    return None


def _p_d1_small_iset(t):
    if (t.planes[1] | t.planes[2]) & t.masks.upto[3]:
        return None
    return ("no-small-set",)


def _p_d2_unions(t):
    p0, p1, p2 = t.planes[:3]
    every = t.masks.every
    if t.values[0] == 0:
        cases = (("a", p0, p0 | p2, every ^ p0 ^ p2), ("b", p1, p0 | p1, every ^ p1))
    elif t.values[0] == 1:
        cases = (("c", p1, p1, every ^ p0 ^ p1), ("d", p0, p0, every ^ p2))
    else:
        return None
    return _union_witness(t, cases)


def _p_d2_singleton(t):
    singles = t.masks.singles
    if t.values[0] != 0 or t.planes[2] & singles:
        return None
    if not t.planes[1] & singles:
        return ("no-singleton-1-set",)
    pair = _disjoint_pair(t, 1)
    if pair:
        return ("disjoint-1-sets", *pair)
    return None


def _p_d2_successor(t):
    if t.values[0] != 1:
        return None
    masks = t.masks
    n = masks.n
    others = masks.every ^ t.planes[1]
    for j in range(2, n + 1):
        if masks.upto[j] & others:
            return None  # then no larger j qualifies either
        if j >= n:
            return ("full-cube-of-1-sets", j)
        bad = masks.layers[j + 1] & others
        if bad:
            return ("successor-size-fails", j, _lowest(bad))
    return None


def _p_d2_small02(t):
    if t.values[0] != 1 or (t.planes[0] | t.planes[2]) & t.masks.upto[2]:
        return None
    return ("no-small-0-or-2-set",)


def _p_t1_subunion(t):
    # disjoint 1-sets; the union argument needs the pair to partition with
    # its complement (overlapping pairs admit arity-2 counterexamples)
    twos = t.planes[2]
    if not twos:
        return None
    masks = t.masks
    covering = twos  # the unions that hold a 2-set: the superset closure of the 2-sets
    for shift, lacks in masks.lacks:
        covering |= (covering & lacks) << shift
    ones = t.planes[1]
    down = masks.down
    top = masks.top
    # as for _disjoint_pair, the first x of a symmetric pair relation lies in the lower half
    lower = ones & masks.lower
    while lower:
        low = lower & -lower
        x = low.bit_length() - 1
        hits = ((ones & down[top ^ x]) << x) & covering
        if hits:
            u = _lowest(hits)
            return ("2-set-inside-union", x, u - x, (twos & down[u]).bit_length() - 1)
        lower ^= low
    return None


def _p_t1_parity(t):
    if t.values[0] != 0:
        return None
    e = t.e
    if e.bit_count() % 2 == 0:
        return ("even-split-size", e)
    mismatch = t.nonzero ^ t.masks.par[e]
    if mismatch:
        return ("parity-mismatch", _lowest(mismatch), e)
    return None


def _p_t1_addif(t):
    masks = t.masks
    if t.values[0] != 0 or t.planes[2] & masks.layers[2]:
        return None
    # bit m of fails: m | i_mask is not a 1-set, where m | i_mask is not the full set
    fails = (masks.every ^ t.planes[1]) & ~(1 << masks.top)
    for i, has in enumerate(masks.has):
        if not t.e >> i & 1:  # m | i_mask does not depend on coordinate i of m
            fails &= has
            fails |= fails >> (1 << i)
    fails &= t.planes[1]
    if fails:
        return ("augmented-not-1-set", _lowest(fails))
    return None


def _p_t1_sizes(t):
    masks = t.masks
    if t.values[0] != 0 or t.planes[2] & masks.singles:
        return None
    inside = masks.down[t.e]
    ones = t.planes[1] & inside
    split_class = 0
    for layer in masks.layers:
        if layer & ones:
            split_class |= layer & inside
    bad = split_class & ~ones
    if bad:
        return ("size-class-splits", _lowest(bad))
    return None


def _p_t1_smallef(t):
    if t.values[0] != 0 or t.planes[2] & t.masks.upto[2]:
        return None
    if t.e.bit_count() > 5:
        return ("split-too-large", t.e)
    return None


def _p_t1_nonidemp(t):
    if t.values[0] != 1 or t.planes[2] & t.masks.upto[2]:
        return None
    return ("no-small-2-set",)


def _p_ch_forbid(t):
    i = t.values[0]
    opposite = t.planes[(i + 2) % 4]
    if opposite:
        return ("opposite-color-set", _lowest(opposite))
    pair = _disjoint_pair(t, (i + 1) % 4)
    if pair:
        return ("disjoint-successor-sets", *pair)
    return None


def _p_ch_union(t):
    i = t.values[0]
    every = t.masks.every
    own = t.planes[i]
    prev = t.planes[(i + 3) % 4]
    return _union_witness(t, (("a", own, own, every ^ own), ("b", prev, prev, every ^ t.planes[(i + 1) % 4])))


def _p_ch_singleton(t):
    i = t.values[0]
    if t.planes[(i + 3) % 4] & t.masks.upto[2]:
        return None
    if t.planes[(i + 1) % 4] & t.masks.singles:
        return None
    return ("no-successor-singleton",)


class PropertySpec(namedtuple("PropertySpec", "property_id template_name description predicate")):
    """A catalog property; predicate maps a SlicedTable, built once per table, to a witness or None."""

    __slots__ = ()


PROPERTY_CATALOG: dict[str, PropertySpec] = {
    spec.property_id: spec
    for spec in (
        PropertySpec("D1_no_disjoint", "D1plus", "no two disjoint 1-sets and no two disjoint 2-sets", _p_d1_no_disjoint),
        PropertySpec("D1_small_iset", "D1plus", "some 1-set or 2-set of size at most 3", _p_d1_small_iset),
        PropertySpec("D2_unions", "D2plus", "the four union implications on disjoint sets", _p_d2_unions),
        PropertySpec("D2_singleton", "D2plus", "empty-set color 0 without singleton 2-sets forces a singleton 1-set and no disjoint 1-sets", _p_d2_singleton),
        PropertySpec("D2_successor", "D2plus", "all sets up to size j>=2 being 1-sets propagates to size j+1", _p_d2_successor),
        PropertySpec("D2_small02", "D2plus", "empty-set color 1 forces a 0-set or 2-set of size at most 2", _p_d2_small02),
        PropertySpec("T1_subunion", "T1", "no 2-set inside the union of two disjoint 1-sets", _p_t1_subunion),
        PropertySpec("T1_parity", "T1", "odd split size and residue given by intersection parity", _p_t1_parity),
        PropertySpec("T1_addIf", "T1", "a 1-set missing part of the split stays a 1-set after adding the complement side", _p_t1_addif),
        PropertySpec("T1_sizes", "T1", "equal-size subsets of the split share 1-set status", _p_t1_sizes),
        PropertySpec("T1_smallEf", "T1", "without small 2-sets the split has size at most 5", _p_t1_smallef),
        PropertySpec("T1_nonidemp", "T1", "empty-set color 1 forces a 2-set of size at most 2", _p_t1_nonidemp),
        PropertySpec("CH_forbid", "CH", "no opposite-color sets and no two disjoint successor-color sets", _p_ch_forbid),
        PropertySpec("CH_union", "CH", "the two union implications", _p_ch_union),
        PropertySpec("CH_singleton", "CH", "no small predecessor-color set forces a successor-color singleton", _p_ch_singleton),
    )
}


class Counterexample(namedtuple("Counterexample", "arity table witness")):
    __slots__ = ()


class PropertyReport(
    namedtuple("PropertyReport", "template_label property_id max_arity examined counterexamples elapsed_ms")
):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "template": self.template_label,
            "property": self.property_id,
            "arities": list(range(1, self.max_arity + 1)),
            "examined": self.examined,
            "counterexamples": [
                {"arity": c.arity, "values": list(c.table.values), "witness": list(c.witness)}
                for c in self.counterexamples
            ],
            "elapsed_ms": self.elapsed_ms,
        }


COUNTEREXAMPLE_CAP = 25  # the failing tables check_properties keeps per property


def check_properties(
    target: RelStructure, property_ids, max_arity: int, *, deadline: float | None = None
) -> tuple[PropertyReport, ...]:
    """Evaluate catalog properties over every polymorphism up to max_arity.

    Each arity is enumerated once, one table per orbit under permuting the
    coordinates (enumerate_orbits): the leader is sliced into one
    SlicedTable, over that arity's MaskTables, and fed to all requested
    predicates, and `examined` grows by the orbit size, so it counts every
    polymorphism.  This is sound because each predicate's pass or fail is
    the same on every member of an orbit, which the tests check.  When a
    predicate fails on a leader, the orbit's distinct members are listed in
    stream order, each with its own witness, and merged into that
    property's counterexamples, which are the first COUNTEREXAMPLE_CAP
    failing tables of the full stream; a leader that sorts after the last
    kept failure of a full list is skipped.  Memory does not grow with the
    enumeration.  One report per id comes back, in the given order; each
    carries the elapsed time of the shared pass.  Any max_arity >= 1 is
    taken, and `deadline` is the one bound on the whole pass: it goes to
    every arity's enumeration, which raises TimeBudgetExceeded once it
    passes.  The arity cap and its note belong to the command line.
    """
    for property_id in property_ids:
        if property_id not in PROPERTY_CATALOG:
            raise KeyError(f"unknown property id {property_id!r}")
    if max_arity < 1:
        raise ValueError(f"max arity must be >= 1, got {max_arity}")
    specs = [PROPERTY_CATALOG[pid] for pid in property_ids]
    checks = [(spec, []) for spec in specs]  # kept: ((arity, stream key), Counterexample), in stream order

    def past_cap(kept, key) -> bool:
        # a full list keeps nothing that sorts after its last entry
        return len(kept) >= COUNTEREXAMPLE_CAP and (not kept or key > kept[-1][0])

    start = time.perf_counter()
    examined = 0
    k = target.domain_size
    for n in range(1, max_arity + 1):
        masks = MaskTables(n, k)
        stream_key = operator.itemgetter(*subset_masks(n))
        members = None  # the image getters of the orbit group, built on the first failure
        for values, size in enumerate_orbits(target, n, deadline=deadline):
            examined += size
            view = SlicedTable(values, masks)
            for spec, kept in checks:
                if spec.predicate(view) is None or past_cap(kept, (n, stream_key(values))):
                    continue
                if members is None:
                    members = [operator.itemgetter(*img) for img in orbit_permutations(n)]
                for member in sorted({get(values) for get in members}, key=stream_key):
                    key = (n, stream_key(member))
                    if past_cap(kept, key):
                        break
                    witness = spec.predicate(SlicedTable(member, masks))
                    if witness is None:
                        raise AssertionError(f"{spec.property_id} holds on a coordinate permutation of a failing table")
                    bisect.insort(kept, (key, Counterexample(n, BlockTable((1,) * n, k, member), witness)), key=operator.itemgetter(0))
                    del kept[COUNTEREXAMPLE_CAP:]
    elapsed = (time.perf_counter() - start) * 1000.0
    return tuple(
        PropertyReport(spec.template_name, spec.property_id, max_arity, examined, tuple(c for _, c in kept), elapsed)
        for spec, kept in checks
    )


def properties_for_template(template_name: str) -> list[str]:
    return [pid for pid, spec in PROPERTY_CATALOG.items() if spec.template_name == template_name]


# --- Kneser graphs and exact coloring ----------------------------------------


class KneserGraph(namedtuple("KneserGraph", "n m vertices adjacency")):
    """m-element subsets of [n]; adjacency is disjointness."""

    __slots__ = ()

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adjacency) // 2


def kneser_graph(n: int, m: int) -> KneserGraph:
    """KG(n, m), its vertices in lexicographic order and each neighbour list ascending.

    The neighbours of v are the m-subsets of the complement of v, listed by
    `combinations` over the sorted complement in the vertices' own order.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    vertices = tuple(itertools.combinations(range(1, n + 1), m))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = tuple(
        tuple(index[w] for w in itertools.combinations([x for x in range(1, n + 1) if x not in v], m))
        for v in vertices
    )
    return KneserGraph(n, m, vertices, adjacency)


def _coloring_view(adjacency):
    """(order, position, nbr): the vertices by (-degree, index), position[v] = v's index in order, nbr[p] = p's neighbors as a mask of positions."""
    order = sorted(range(len(adjacency)), key=lambda v: (-len(adjacency[v]), v))
    position = {v: p for p, v in enumerate(order)}
    return order, position, [sum(1 << position[w] for w in adjacency[v]) for v in order]


def _greedy_clique(view) -> list[int]:
    order, _, nbr = view
    best: list[int] = []
    for start in range(len(order)):
        clique, candidates = [start], nbr[start]
        while candidates:
            clique.append((candidates & -candidates).bit_length() - 1)  # the first candidate in degree order
            candidates &= nbr[clique[-1]]
        if len(clique) > len(best):
            best = clique
    return [order[p] for p in best]


def _dsatur_picks(view, k: int, clique):
    """Search for a k-coloring extending the clique's, yielding each vertex as it is picked.

    Yields None and stops once every vertex is colored; stops without it
    when no k-coloring exists.  A pick is the uncolored vertex of highest
    saturation (distinct neighbor colors), then highest degree, then lowest
    index.  Vertex sets are int masks over positions in the view's order:
    nbr[p] holds p's neighbors, seen[c] those with a neighbor colored c.
    Saturation is a bit-sliced counter, planes[j] holding bit j of every
    position's, so coloring p with c adds one on nbr[p] & ~seen[c].  A pick
    narrows the uncolored mask to each plane that meets it, top plane first,
    and takes the lowest position left.
    """
    if len(clique) > k:
        return
    order, position, nbr = view
    planes, seen = [0] * k.bit_length(), [0] * k

    def paint(p: int, c: int) -> None:
        carry = nbr[p] & ~seen[c]
        seen[c] |= nbr[p]
        j = 0
        while carry:
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1

    uncolored = (1 << len(order)) - 1
    for c, v in enumerate(clique):
        paint(position[v], c)
        uncolored ^= 1 << position[v]
    stack = []  # one (position, untried colors, colors used before it, planes and seen before it) frame per colored vertex
    used = len(clique)
    while uncolored:
        candidates = uncolored
        for plane in reversed(planes):
            if candidates & plane:
                candidates &= plane
        p = (candidates & -candidates).bit_length() - 1
        yield order[p]
        uncolored ^= 1 << p
        # at most one brand-new color keeps color classes canonical
        stack.append((p, iter([c for c in range(min(k, used + 1)) if not seen[c] >> p & 1]), used, planes[:], seen[:]))
        while stack:
            p, colors, used, planes[:], seen[:] = stack[-1]  # backtracking restores the masks
            c = next(colors, -1)
            if c >= 0:
                paint(p, c)
                used = max(used, c + 1)
                break
            stack.pop()
            uncolored |= 1 << p
        else:
            return
    yield None


def chromatic_number(graph, limit: int) -> int | None:
    """Exact chromatic number when it is <= limit, else None.

    Accepts a KneserGraph or a plain adjacency sequence listing each edge on
    both sides; a vertex among its own neighbors, a neighbor outside 0..V-1
    or an edge listed on one side raises ValueError naming the vertex, before
    any search.  Iterates the color budget upward from a greedy clique bound,
    deciding each with _dsatur_picks over vertex bitsets built once per graph.
    """
    adjacency = graph.adjacency if isinstance(graph, KneserGraph) else tuple(tuple(nb) for nb in graph)
    for v, nb in enumerate(adjacency):
        for w in nb:
            if not 0 <= w < len(adjacency):
                raise ValueError(f"vertex {v} has neighbor {w}, which is not a vertex 0..{len(adjacency) - 1}")
            if w == v:
                raise ValueError(f"vertex {v} is its own neighbor")
            if v not in adjacency[w]:
                raise ValueError(f"vertex {v} has neighbor {w}, which does not list {v} back")
    if not adjacency:
        return 0
    view = _coloring_view(adjacency)
    clique = _greedy_clique(view)
    for k in range(max(1, len(clique)), limit + 1):
        if None in _dsatur_picks(view, k, clique):  # None marks a completed coloring
            return k
    return None


# --- selector verification ----------------------------------------------------


def _first_mask(f, n, color, max_size):
    """The first mask of size <= max_size in canonical order with f[m] == color, or None."""
    for j in range(max_size + 1):
        for c in itertools.combinations(range(n), j):
            m = sum(1 << i for i in c)
            if f[m] == color:
                return m
    return None


def _sel_d1(f, n):
    # prefer a 2-set over a 1-set, then smaller cardinality, then lexicographic
    for color in (2, 1):
        m = _first_mask(f, n, color, 3)
        if m is not None:
            return m
    return None


def _sel_d2(f, n):
    m = _first_mask(f, n, 2, 2)
    if m is not None:
        return m
    if f[0] == 0:
        return _first_mask(f, n, 1, 1)
    if f[0] == 1:
        return _first_mask(f, n, 0, 2)
    return None


def _e_mask(f: tuple[int, ...], n: int) -> int:
    """The coordinates whose singleton has a non-zero value, as a mask: the split E_f."""
    return sum(1 << i for i in range(n) if f[1 << i])


def _sel_t1(f, n):
    m = _first_mask(f, n, 2, 2)
    if m is not None:
        return m
    if f[0] != 0:
        return None
    return _e_mask(f, n)


def _sel_ch(f, n):
    i = f[0]
    m = _first_mask(f, n, (i + 3) % 4, 2)
    if m is not None:
        return m
    return _first_mask(f, n, (i + 1) % 4, 1)


class SelectorSpec(namedtuple("SelectorSpec", "name k l template_name description rule")):
    """rule maps (values, arity) to a mask or None."""

    __slots__ = ()


SELECTOR_CATALOG: dict[str, SelectorSpec] = {
    spec.name: spec
    for spec in (
        SelectorSpec("SEL_D1", 3, 2, "D1plus", "a 1-set or 2-set of size at most 3", _sel_d1),
        SelectorSpec("SEL_D2", 2, 5, "D2plus", "small 2-set, else singleton 1-set, else small 0-set", _sel_d2),
        SelectorSpec("SEL_T1", 5, 2, "T1", "small 2-set, else the odd singleton split", _sel_t1),
        SelectorSpec("SEL_CH", 2, 5, "CH", "small predecessor-color set, else successor singleton", _sel_ch),
    )
}


class SelectorReport(
    namedtuple(
        "SelectorReport",
        "selector max_arity chain_length states_explored violations totality_failures bound_failures elapsed_ms",
    )
):
    """violations: chains of (arity, values, mapping) steps; failures: (arity, values); _asdict() is the --json form."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not (self.violations or self.totality_failures or self.bound_failures)


def verify_selector(
    target: RelStructure, spec: SelectorSpec, max_arity: int, *, deadline: float | None = None
) -> SelectorReport:
    """Search for a minor chain of length spec.l whose selections never meet.

    The rule selects once per enumerated table, in stream order, before the
    search; totality and bound failures are listed in (arity, stream) order.
    States carry the current table plus the forward images of every earlier
    selection; an extension whose new selection meets any image already
    witnesses the required intersection, so only image-avoiding extensions
    are explored, memoised per state.  Any completed avoiding chain is a
    violation.  Each map is read through a getter of its pull table and its
    push table, built once per call: the getter builds the minor g[X] =
    f[pull[X]] in one call, and a selection x moves forward to push[x].
    Any max_arity >= 1 is taken, and `deadline` is the one bound on the
    enumeration and the chain search together: it goes to every arity's
    enumeration and is checked at each state, and TimeBudgetExceeded is
    raised once it passes.  The arity cap belongs to the command line.
    """
    if max_arity < 1:
        raise ValueError(f"max arity must be >= 1, got {max_arity}")
    start = time.perf_counter()
    selections: dict[int, dict[tuple[int, ...], int | None]] = {}
    for n in range(1, max_arity + 1):
        tables = enumerate_polymorphisms(target, n, deadline=deadline)
        selections[n] = {values: spec.rule(values, n) for values in tables}
    chosen = [(n, v, mask) for n, sels in selections.items() for v, mask in sels.items()]
    totality_failures = [(n, v) for n, v, mask in chosen if mask is None]
    bound_failures = [(n, v) for n, v, mask in chosen if mask is not None and mask.bit_count() > spec.k]

    all_maps = {n: [] for n in range(1, max_arity + 1)}
    for n, m in itertools.product(all_maps, repeat=2):
        for mapping in itertools.product(range(1, m + 1), repeat=n):
            alpha = MinorMap(n, m, mapping)
            all_maps[n].append((m, mapping, operator.itemgetter(*alpha.pull()), alpha.push()))

    states = 0
    memo: dict[tuple, tuple | None] = {}
    missing = object()  # neither None nor a mask, so a lookup of a minor off the stream cannot pass for a selection

    def extend(values, n, frontier, steps):
        """Returns a violating chain suffix (possibly empty tuple) or None."""
        nonlocal states
        states += 1
        if expired(deadline):
            raise TimeBudgetExceeded(f"selector search ran past its time budget after {states} states")
        if steps == 0:
            return ()
        key = (n, values, frozenset(frontier), steps)
        if key in memo:
            return memo[key]
        result = None
        for m, mapping, pull, push in all_maps[n]:
            g = pull(values)
            sel_g = selections[m].get(g, missing)
            if sel_g is missing:
                raise AssertionError("minor of a polymorphism left the enumerated stream")
            if sel_g is None:
                continue
            images = [push[x] for x in frontier]
            for im in images:
                if im & sel_g:
                    break
            else:
                suffix = extend(g, m, images + [sel_g], steps - 1)
                if suffix is not None:
                    result = ((m, g, mapping),) + suffix
                    break
        memo[key] = result
        return result

    violations: list[tuple] = []
    for n, sels in selections.items():
        for values, sel0 in sels.items():
            if sel0 is None:
                continue
            suffix = extend(values, n, [sel0], spec.l)
            if suffix is not None:
                violations.append(((n, values, ()),) + suffix)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SelectorReport(
        spec.name,
        max_arity,
        spec.l,
        states,
        tuple(violations),
        tuple(totality_failures),
        tuple(bound_failures),
        elapsed,
    )
