"""Exhaustive desk-scale verification of structural facts about polymorphisms.

Every catalog entry is a closed predicate over a single table; a check
streams the polymorphism enumeration for each arity and collects violating
tables together with witness data, so a reported counterexample can be
re-verified independently.  Conditional statements pass vacuously when
their hypotheses fail.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .polymorphisms import (
    CoordSet,
    MinorMap,
    PolyTable,
    enumerate_polymorphisms,
    image_mask,
    minor,
    subset_masks,
)
from .structures import TemplatePair


# --- i-set helpers (3-element targets) ----------------------------------------


def _residue(value: int) -> int:
    # collapse {1, 2} to 1; used by the linear-structure facts
    return 0 if value == 0 else 1


def compute_Ef(table: PolyTable) -> tuple[CoordSet, CoordSet]:
    """Split the coordinates by the residue of their singleton value."""
    if table.target_size != 3:
        raise ValueError("residue split is defined for 3-element targets")
    n = table.arity
    e_members = frozenset(i for i in range(1, n + 1) if _residue(table.values[1 << (i - 1)]) == 1)
    i_members = frozenset(range(1, n + 1)) - e_members
    return CoordSet(n, e_members), CoordSet(n, i_members)


def _e_mask(f: tuple[int, ...], n: int) -> int:
    return sum(1 << i for i in range(n) if _residue(f[1 << i]) == 1)


def _masks_with(f, n, color, max_size=None):
    return [
        m for m in range(1 << n)
        if f[m] == color and (max_size is None or m.bit_count() <= max_size)
    ]


def _disjoint_pair(masks):
    for x in masks:
        for y in masks:
            if x & y == 0:
                return (x, y)
    return None


def _ordered_disjoint_pairs(n):
    full = (1 << n) - 1
    for x in range(1 << n):
        rest = full ^ x
        y = rest
        while True:
            yield x, y
            if y == 0:
                break
            y = (y - 1) & rest


# --- property predicates ------------------------------------------------------
# Each returns None when the table satisfies the property, otherwise a small
# witness tuple (tag, masks...) sufficient to re-check the violation.


def _p_d1_no_disjoint(f, n):
    for color in (1, 2):
        pair = _disjoint_pair(_masks_with(f, n, color))
        if pair:
            return ("disjoint-sets", color, *pair)
    return None


def _p_d1_small_iset(f, n):
    for m in range(1 << n):
        if m.bit_count() <= 3 and f[m] in (1, 2):
            return None
    return ("no-small-set",)


def _p_d2_unions(f, n):
    for x, y in _ordered_disjoint_pairs(n):
        u = x | y
        if f[0] == 0 and f[x] == 0 and f[y] in (0, 2) and f[u] not in (0, 2):
            return ("a", x, y)
        if f[0] == 0 and f[x] == 1 and f[y] in (0, 1) and f[u] != 1:
            return ("b", x, y)
        if f[0] == 1 and f[x] == 1 and f[y] == 1 and f[u] not in (0, 1):
            return ("c", x, y)
        if f[0] == 1 and f[x] == 0 and f[y] == 0 and f[u] != 2:
            return ("d", x, y)
    return None


def _p_d2_singleton(f, n):
    if f[0] != 0 or any(f[1 << i] == 2 for i in range(n)):
        return None
    if not any(f[1 << i] == 1 for i in range(n)):
        return ("no-singleton-1-set",)
    pair = _disjoint_pair(_masks_with(f, n, 1))
    if pair:
        return ("disjoint-1-sets", *pair)
    return None


def _p_d2_successor(f, n):
    if f[0] != 1:
        return None
    for j in range(2, n + 1):
        if all(f[m] == 1 for m in range(1 << n) if m.bit_count() <= j):
            if j >= n:
                return ("full-cube-of-1-sets", j)
            bad = next((m for m in range(1 << n) if m.bit_count() == j + 1 and f[m] != 1), None)
            if bad is not None:
                return ("successor-size-fails", j, bad)
    return None


def _p_d2_small02(f, n):
    if f[0] != 1:
        return None
    for m in range(1 << n):
        if m.bit_count() <= 2 and f[m] in (0, 2):
            return None
    return ("no-small-0-or-2-set",)


def _p_t1_subunion(f, n):
    # disjoint 1-sets; the union argument needs the pair to partition with
    # its complement (overlapping pairs admit arity-2 counterexamples)
    ones = _masks_with(f, n, 1)
    for x in ones:
        for y in ones:
            if x & y:
                continue
            u = x | y
            z = u
            while True:
                if f[z] == 2:
                    return ("2-set-inside-union", x, y, z)
                if z == 0:
                    break
                z = (z - 1) & u
    return None


def _p_t1_parity(f, n):
    if f[0] != 0:
        return None
    e = _e_mask(f, n)
    if e.bit_count() % 2 == 0:
        return ("even-split-size", e)
    for m in range(1 << n):
        if _residue(f[m]) != (m & e).bit_count() % 2:
            return ("parity-mismatch", m, e)
    return None


def _p_t1_addif(f, n):
    if f[0] != 0 or any(f[m] == 2 and m.bit_count() == 2 for m in range(1 << n)):
        return None
    e = _e_mask(f, n)
    i_mask = ((1 << n) - 1) ^ e
    for m in range(1 << n):
        if f[m] == 1 and (e & ~m) and f[m | i_mask] != 1:
            return ("augmented-not-1-set", m)
    return None


def _p_t1_sizes(f, n):
    if f[0] != 0 or any(f[1 << i] == 2 for i in range(n)):
        return None
    e = _e_mask(f, n)
    sizes_with_1 = {m.bit_count() for m in range(1 << n) if m & ~e == 0 and f[m] == 1}
    for m in range(1 << n):
        if m & ~e == 0 and m.bit_count() in sizes_with_1 and f[m] != 1:
            return ("size-class-splits", m)
    return None


def _p_t1_smallef(f, n):
    if f[0] != 0 or any(f[m] == 2 and m.bit_count() <= 2 for m in range(1 << n)):
        return None
    e = _e_mask(f, n)
    if e.bit_count() > 5:
        return ("split-too-large", e)
    return None


def _p_t1_nonidemp(f, n):
    if f[0] != 1:
        return None
    if any(f[m] == 2 and m.bit_count() <= 2 for m in range(1 << n)):
        return None
    return ("no-small-2-set",)


def _p_ch_forbid(f, n):
    i = f[0]
    opposite = (i + 2) % 4
    for m in range(1 << n):
        if f[m] == opposite:
            return ("opposite-color-set", m)
    pair = _disjoint_pair(_masks_with(f, n, (i + 1) % 4))
    if pair:
        return ("disjoint-successor-sets", *pair)
    return None


def _p_ch_union(f, n):
    i = f[0]
    prev = (i + 3) % 4
    succ = (i + 1) % 4
    for x, y in _ordered_disjoint_pairs(n):
        if f[x] == i and f[y] == i and f[x | y] != i:
            return ("a", x, y)
        if f[x] == prev and f[y] == prev and f[x | y] != succ:
            return ("b", x, y)
    return None


def _p_ch_singleton(f, n):
    i = f[0]
    if any(f[m] == (i + 3) % 4 and m.bit_count() <= 2 for m in range(1 << n)):
        return None
    if any(f[1 << x] == (i + 1) % 4 for x in range(n)):
        return None
    return ("no-successor-singleton",)


@dataclass(frozen=True)
class PropertySpec:
    property_id: str
    template_name: str
    description: str
    predicate: object  # (values, arity) -> witness | None


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


@dataclass(frozen=True)
class Counterexample:
    arity: int
    table: PolyTable
    witness: tuple


@dataclass(frozen=True)
class PropertyReport:
    template_label: str
    property_id: str
    max_arity: int
    examined: int
    counterexamples: tuple[Counterexample, ...]
    elapsed_ms: float

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


def check_properties(
    template: TemplatePair,
    property_ids,
    max_arity: int,
    *,
    template_label: str = "",
    force: bool = False,
    counterexample_cap: int = 25,
) -> tuple[PropertyReport, ...]:
    """Evaluate catalog properties over every polymorphism up to max_arity.

    Each arity is enumerated once and every table is fed to all requested
    predicates, so memory does not grow with the enumeration.  One report per
    id comes back, in the given order; each keeps its own counterexample cap
    and carries the elapsed time of the shared pass.
    """
    for property_id in property_ids:
        if property_id not in PROPERTY_CATALOG:
            raise KeyError(f"unknown property id {property_id!r}")
    if max_arity < 1:
        raise ValueError(f"max arity must be >= 1, got {max_arity}")
    specs = [PROPERTY_CATALOG[pid] for pid in property_ids]
    checks = [(spec.predicate, []) for spec in specs]
    start = time.perf_counter()
    examined = 0
    for n in range(1, max_arity + 1):
        for table in enumerate_polymorphisms(template, n, force=force):
            examined += 1
            values = table.values
            for predicate, counterexamples in checks:
                witness = predicate(values, n)
                if witness is not None and len(counterexamples) < counterexample_cap:
                    counterexamples.append(Counterexample(n, table, witness))
    elapsed = (time.perf_counter() - start) * 1000.0
    return tuple(
        PropertyReport(
            template_label or spec.template_name, spec.property_id, max_arity, examined, tuple(found), elapsed
        )
        for spec, (_, found) in zip(specs, checks)
    )


def properties_for_template(template_name: str) -> list[str]:
    return [pid for pid, spec in PROPERTY_CATALOG.items() if spec.template_name == template_name]


# --- Kneser graphs and exact coloring ----------------------------------------


@dataclass(frozen=True)
class KneserGraph:
    """m-element subsets of [n]; adjacency is disjointness."""

    n: int
    m: int
    vertices: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.adjacency) // 2


def kneser_graph(n: int, m: int) -> KneserGraph:
    if not 1 <= m <= n:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    vertices = tuple(itertools.combinations(range(1, n + 1), m))
    sets = [frozenset(v) for v in vertices]
    adjacency = tuple(
        tuple(j for j in range(len(vertices)) if j != i and not (sets[i] & sets[j]))
        for i in range(len(vertices))
    )
    return KneserGraph(n, m, vertices, adjacency)


def _greedy_clique(adjacency) -> list[int]:
    best: list[int] = []
    for start in range(len(adjacency)):
        clique = [start]
        candidates = set(adjacency[start])
        while candidates:
            v = min(candidates)
            clique.append(v)
            candidates &= set(adjacency[v])
        if len(clique) > len(best):
            best = clique
    return best


def _k_colorable(adjacency, k: int, clique) -> bool:
    nvert = len(adjacency)
    if len(clique) > k:
        return False
    color = [-1] * nvert
    for i, v in enumerate(clique):
        color[v] = i
    by_degree = sorted(range(nvert), key=lambda v: (-len(adjacency[v]), v))

    def pick():
        best_v, best_key = -1, None
        for v in by_degree:
            if color[v] >= 0:
                continue
            saturation = len({color[w] for w in adjacency[v] if color[w] >= 0})
            key = (-saturation, -len(adjacency[v]), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    todo = nvert - len(clique)
    if todo == 0:
        return True
    stack = []  # one (vertex, untried colors, colors used before it) frame per colored vertex

    def push(used: int) -> None:
        v = pick()
        taken = {color[w] for w in adjacency[v] if color[w] >= 0}
        # at most one brand-new color keeps color classes canonical
        stack.append((v, iter([c for c in range(min(k, used + 1)) if c not in taken]), used))

    push(len(clique))
    while stack:
        v, colors, used = stack[-1]
        c = next(colors, -1)
        color[v] = c
        if c < 0:
            stack.pop()
        elif len(stack) == todo:
            return True
        else:
            push(max(used, c + 1))
    return False


def chromatic_number(graph, limit: int) -> int | None:
    """Exact chromatic number when it is <= limit, else None.

    Accepts a KneserGraph or a plain adjacency sequence.  Iterates the
    color budget upward from a greedy clique bound, deciding each budget by
    saturation-ordered backtracking with canonical color classes.
    """
    adjacency = graph.adjacency if isinstance(graph, KneserGraph) else tuple(tuple(nb) for nb in graph)
    if not adjacency:
        return 0
    clique = _greedy_clique(adjacency)
    for k in range(max(1, len(clique)), limit + 1):
        if _k_colorable(adjacency, k, clique):
            return k
    return None


# --- selector verification ----------------------------------------------------


def _first_mask(f, n, color, max_size):
    for m in subset_masks(n):
        if m.bit_count() <= max_size and f[m] == color:
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
        for x in range(n):
            if f[1 << x] == 1:
                return 1 << x
    if f[0] == 1:
        return _first_mask(f, n, 0, 2)
    return None


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
    for x in range(n):
        if f[1 << x] == (i + 1) % 4:
            return 1 << x
    return None


@dataclass(frozen=True)
class SelectorSpec:
    name: str
    k: int
    l: int
    template_name: str
    description: str
    rule: object  # (values, arity) -> mask | None


SELECTOR_CATALOG: dict[str, SelectorSpec] = {
    spec.name: spec
    for spec in (
        SelectorSpec("SEL_D1", 3, 2, "D1plus", "a 1-set or 2-set of size at most 3", _sel_d1),
        SelectorSpec("SEL_D2", 2, 5, "D2plus", "small 2-set, else singleton 1-set, else small 0-set", _sel_d2),
        SelectorSpec("SEL_T1", 5, 2, "T1", "small 2-set, else the odd singleton split", _sel_t1),
        SelectorSpec("SEL_CH", 2, 5, "CH", "small predecessor-color set, else successor singleton", _sel_ch),
    )
}


def selector_rule(spec: SelectorSpec, table: PolyTable) -> CoordSet | None:
    mask = spec.rule(table.values, table.arity)
    return None if mask is None else CoordSet.from_mask(table.arity, mask)


@dataclass(frozen=True)
class SelectorReport:
    selector: str
    max_arity: int
    chain_length: int
    states_explored: int
    violations: tuple[tuple, ...]  # each a tuple of (arity, values, mapping) steps
    totality_failures: tuple[tuple[int, tuple[int, ...]], ...]
    bound_failures: tuple[tuple[int, tuple[int, ...]], ...]
    elapsed_ms: float

    @property
    def holds(self) -> bool:
        return not (self.violations or self.totality_failures or self.bound_failures)

    def to_dict(self) -> dict:
        return {
            "selector": self.selector,
            "max_arity": self.max_arity,
            "chain_length": self.chain_length,
            "states_explored": self.states_explored,
            "violations": [list(map(list, chain)) for chain in self.violations],
            "totality_failures": [[arity, list(values)] for arity, values in self.totality_failures],
            "bound_failures": [[arity, list(values)] for arity, values in self.bound_failures],
            "elapsed_ms": self.elapsed_ms,
        }


def verify_selector(template: TemplatePair, spec: SelectorSpec, max_arity: int) -> SelectorReport:
    """Search for a minor chain of length spec.l whose selections never meet.

    States carry the current table plus the forward images of every earlier
    selection; an extension whose new selection meets any image already
    witnesses the required intersection, so only image-avoiding extensions
    are explored (with memoization).  Any completed avoiding chain is a
    violation.  Minors are read through one pull-mask tuple per map, as
    g[X] = f[pull[X]]; test_pull_masks_are_preimages checks the masks.
    """
    if max_arity < 1:
        raise ValueError(f"max arity must be >= 1, got {max_arity}")
    start = time.perf_counter()
    polys = {
        n: [t.values for t in enumerate_polymorphisms(template, n)] for n in range(1, max_arity + 1)
    }
    poly_sets = {n: set(polys[n]) for n in polys}

    sel_cache: dict[tuple, int | None] = {}
    totality_failures: list[tuple[int, tuple[int, ...]]] = []
    bound_failures: list[tuple[int, tuple[int, ...]]] = []

    def get_sel(values, n):
        key = (n, values)
        if key not in sel_cache:
            mask = spec.rule(values, n)
            if mask is None:
                totality_failures.append((n, values))
            elif mask.bit_count() > spec.k:
                bound_failures.append((n, values))
            sel_cache[key] = mask
        return sel_cache[key]

    all_maps = {n: [] for n in range(1, max_arity + 1)}
    for n, m in itertools.product(all_maps, repeat=2):
        identity = PolyTable(n, 1 << n, tuple(range(1 << n)))  # its minor along alpha maps X to the preimage of X
        for mapping in itertools.product(range(1, m + 1), repeat=n):
            alpha = MinorMap(n, m, mapping)
            all_maps[n].append((alpha, minor(identity, alpha).values))

    states = 0
    memo: dict[tuple, tuple | None] = {}

    def extend(values, n, frontier, steps):
        """Returns a violating chain suffix (possibly empty tuple) or None."""
        nonlocal states
        states += 1
        if steps == 0:
            return ()
        key = (n, values, frozenset(frontier), steps)
        if key in memo:
            return memo[key]
        result = None
        for alpha, pull in all_maps[n]:
            m = alpha.target_arity
            g = tuple([values[p] for p in pull])  # a generator would over-allocate each tuple
            if g not in poly_sets[m]:
                raise AssertionError("minor of a polymorphism left the enumerated stream")
            sel_g = get_sel(g, m)
            if sel_g is None:
                continue
            images = [image_mask(alpha, x) for x in frontier]
            if any(im & sel_g for im in images):
                continue
            suffix = extend(g, m, images + [sel_g], steps - 1)
            if suffix is not None:
                result = ((m, g, alpha.mapping),) + suffix
                break
        memo[key] = result
        return result

    violations: list[tuple] = []
    for n in range(1, max_arity + 1):
        for values in polys[n]:
            sel0 = get_sel(values, n)
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
