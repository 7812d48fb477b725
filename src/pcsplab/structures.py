"""Finite relational structures and the named template catalog.

A structure is a finite domain {0, ..., k-1} together with an ordered list of
nonempty relations.  The workhorse here is a single ternary relation on a
small domain; the catalog below fixes one concrete vertex labelling for every
named template (the labelling is irrelevant up to homomorphic equivalence,
but fixing it keeps all output reproducible).  One backtracker, _maps,
searches the maps between two structures: homomorphisms, the validity of
a template pair and automorphisms all run on it.  It refuses structures
whose signatures differ, and into a symmetric relation it tests one source
tuple per class of permuted tuples, which decides the whole class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import FormatError, SignatureMismatchError


class Checked:
    """Mixin of the records whose __new__ checks or normalises: _make, and so _replace, builds through it too."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Relation(Checked, namedtuple("Relation", "arity tuples")):
    """A nonempty set of same-arity tuples, stored sorted for determinism; sorted input sorts in one linear pass."""

    def __new__(cls, arity: int, tuples: tuple[tuple[int, ...], ...]):
        if arity < 1:
            raise ValueError(f"relation arity must be >= 1, got {arity}")
        if not tuples:
            raise ValueError("relation must be nonempty")
        tuples = tuple(dict.fromkeys(sorted(tuples)))
        for t in tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} does not have arity {arity}")
        return super().__new__(cls, arity, tuples)

    @cached_property
    def as_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.tuples)

    @cached_property
    def orbit_tuples(self) -> tuple[tuple[int, ...], ...]:
        """The first tuple of each class of tuples that are permutations of each other, in order."""
        firsts: dict[tuple[int, ...], tuple[int, ...]] = {}
        for t in self.tuples:
            firsts.setdefault(tuple(sorted(t)), t)
        return tuple(firsts.values())

    @cached_property
    def symmetric(self) -> bool:
        """Closed under coordinate permutations: each class holds every permutation of its tuples."""
        return len(self.tuples) == sum(map(_orbit_size, self.orbit_tuples))


@lru_cache(maxsize=4096)
def _orbit_size(t: tuple[int, ...]) -> int:
    """The number of distinct permutations of t: arity! over the factorials of its multiplicities."""
    size = math.factorial(len(t))
    for count in Counter(t).values():
        size //= math.factorial(count)
    return size


class RelStructure(Checked, namedtuple("RelStructure", "domain_size relations")):
    """A finite domain 0..domain_size-1 with an ordered list of relations."""

    def __new__(cls, domain_size: int, relations: tuple[Relation, ...]):
        if domain_size < 1:
            raise ValueError(f"domain size must be >= 1, got {domain_size}")
        relations = tuple(relations)
        for rel in relations:
            for t in rel.tuples:
                for x in t:
                    if not 0 <= x < domain_size:
                        raise ValueError(f"tuple entry {x} outside domain 0..{domain_size - 1}")
        return super().__new__(cls, domain_size, relations)

    @cached_property
    def signature(self) -> tuple[int, ...]:
        return tuple(rel.arity for rel in self.relations)

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """The elements by descending degree (occurrences over all tuples), ties by index."""
        degree = Counter(x for rel in self.relations for t in rel.tuples for x in t)
        return tuple(sorted(range(self.domain_size), key=lambda x: (-degree[x], x)))

    @property
    def symmetric(self) -> bool:
        return all(rel.symmetric for rel in self.relations)

    def single_ternary(self) -> Relation:
        if self.signature != (3,):
            raise SignatureMismatchError(f"expected a single ternary relation, signature is {self.signature}")
        return self.relations[0]


class Digraph(Checked, namedtuple("Digraph", "vertex_count arcs")):
    """Arc b -> b' recorded whenever (b, b, b') lies in the ternary relation."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, arcs: frozenset[tuple[int, int]]):
        for a, b in arcs:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"arc ({a},{b}) outside vertex range")
        return super().__new__(cls, vertex_count, arcs)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def has_directed_cycle(self) -> bool:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for a, b in self.arcs:
            adj[a].append(b)
        state = [0] * self.vertex_count

        def visit(v: int) -> bool:
            state[v] = 1
            for w in adj[v]:
                if state[w] == 1 or (state[w] == 0 and visit(w)):
                    return True
            state[v] = 2
            return False

        return any(state[v] == 0 and visit(v) for v in range(self.vertex_count))


def make_structure(domain_size: int, relations) -> RelStructure:
    """Build a validated structure from raw tuple collections.

    Rejects empty relations, out-of-domain entries and arity mismatches
    within a relation.
    """
    rels = []
    for raw in relations:
        tuples = tuple(tuple(t) for t in raw)
        if not tuples:
            raise ValueError("relation must be nonempty")
        arity = len(tuples[0])
        rels.append(Relation(arity, tuples))
    return RelStructure(domain_size, tuple(rels))


def _perm_closure(tuples) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for t in tuples:
        out.update(itertools.permutations(t))
    return out


def rainbow_triples(domain_size: int) -> set[tuple[int, int, int]]:
    """All ordered triples with three pairwise distinct entries."""
    return {t for t in itertools.product(range(domain_size), repeat=3) if len(set(t)) == 3}


def ternary_structure(domain_size: int, orbit_tuples) -> RelStructure:
    """Structure with one ternary relation: the symmetric closure of the given tuples."""
    return make_structure(domain_size, [_perm_closure(orbit_tuples)])


# Fixed vertex labels for the catalog; base names are the smaller of the two
# structures sharing an associated digraph, "<name>plus" adds the rainbow orbit.
_BASE_ORBITS: dict[str, tuple[int, tuple[tuple[int, int, int], ...]]] = {
    "1in3": (2, ((0, 0, 1),)),
    "NAE": (2, ((0, 0, 1), (1, 1, 0))),
    "D1": (3, ((0, 0, 1), (0, 0, 2))),
    "D2": (3, ((0, 0, 1), (1, 1, 2))),
    "T1": (3, ((0, 0, 1), (0, 0, 2), (1, 1, 2))),
    "T2": (3, ((0, 0, 1), (1, 1, 2), (2, 2, 0))),
    "Q1": (3, ((0, 0, 1), (0, 0, 2), (1, 1, 2), (2, 2, 1))),
    "Q2": (3, ((0, 0, 1), (1, 1, 0), (0, 0, 2), (2, 2, 1))),
    "Q3": (3, ((0, 0, 1), (0, 0, 2), (2, 2, 0), (2, 2, 1))),
    "C": (3, ((0, 0, 1), (1, 1, 0), (0, 0, 2), (2, 2, 0), (2, 2, 1))),
    "S": (3, ((0, 0, 1), (1, 1, 0), (0, 0, 2), (2, 2, 0), (1, 1, 2), (2, 2, 1))),
    "CH": (4, ((0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0))),
}

NAMED_TEMPLATES: tuple[str, ...] = tuple(
    name for base in _BASE_ORBITS for name in (base, base + "plus")
) + ("LO_<k>", "NAE_<k>")


def named_template(name: str) -> RelStructure:
    """Return a catalog template by name.

    Accepts the fixed names (1in3, NAE, D1..S, CH and their "plus" variants)
    and the parametric families LO_k and NAE_k on {0, ..., k-1}, spelled with
    the size in the name ("LO_3").  LO_k holds the triples whose largest
    entry occurs once: two equal entries force the third strictly above
    them.  NAE_k holds the triples whose entries are not all equal.
    """
    if name.startswith(("LO_", "NAE_")):
        prefix, _, suffix = name.partition("_")
        try:
            k = int(suffix)
        except ValueError:
            raise ValueError(f"unknown template name {name!r}") from None
        if k < 2:
            raise ValueError(f"parametric template {prefix}_{k}: size must be >= 2")
        keep = (lambda t: t.count(max(t)) == 1) if prefix == "LO" else (lambda t: min(t) < max(t))
        return RelStructure(k, (Relation(3, tuple(filter(keep, itertools.product(range(k), repeat=3)))),))
    base = name[:-4] if name.endswith("plus") else name
    if base not in _BASE_ORBITS:
        raise ValueError(f"unknown template name {name!r}")
    size, orbits = _BASE_ORBITS[base]
    structure = ternary_structure(size, orbits)
    if name.endswith("plus"):
        structure = plus_closure(structure)
    return structure


def template_names_3() -> list[str]:
    """The named two- and three-element templates plus their rainbow variants."""
    return [n for base in _BASE_ORBITS if base != "CH" for n in (base, base + "plus")]


def all_symmetric_ternary_structures() -> list[RelStructure]:
    """Every nonempty symmetric ternary relation on three elements, one structure each, all sharing 27 triples."""
    orbits: dict[tuple, set] = {}
    for t in itertools.product(range(3), repeat=3):
        orbits.setdefault(tuple(sorted(t)), set()).add(t)
    orbit_list = sorted(orbits)
    out = []
    for bits in range(1, 1 << len(orbit_list)):
        tuples: set = set()
        for i, key in enumerate(orbit_list):
            if bits >> i & 1:
                tuples |= orbits[key]
        out.append(make_structure(3, [tuples]))
    return out


def symmetrize(structure: RelStructure) -> RelStructure:
    """Close every relation under coordinate permutations."""
    rels = [Relation(rel.arity, tuple(_perm_closure(rel.tuples))) for rel in structure.relations]
    return RelStructure(structure.domain_size, tuple(rels))


def plus_closure(structure: RelStructure) -> RelStructure:
    """Add every rainbow triple to the single ternary relation."""
    rel = structure.single_ternary()
    tuples = set(rel.tuples) | rainbow_triples(structure.domain_size)
    return RelStructure(structure.domain_size, (Relation(3, tuple(tuples)),))


def associated_digraph(structure: RelStructure) -> Digraph:
    rel = structure.single_ternary().as_set
    arcs = frozenset(
        (b, b2)
        for b in range(structure.domain_size)
        for b2 in range(structure.domain_size)
        if (b, b, b2) in rel
    )
    return Digraph(structure.domain_size, arcs)


def _check_signatures(a: RelStructure, b: RelStructure) -> None:
    if a.signature != b.signature:
        raise SignatureMismatchError(f"signatures differ: {a.signature} vs {b.signature}")


def _maps(source: RelStructure, target: RelStructure, order, images, injective: bool = False):
    """Yield every map h with h[x] in images[x] that sends each relation of source into its counterpart.

    Elements are assigned along order, each trying its images in the order
    given, so the maps come lexicographically by (h[order[0]], h[order[1]],
    ...) read in those image orders.  A tuple is checked once its last-ranked
    element is assigned, and a partial map sending it outside the target
    relation is not extended.  With injective, no two elements share an image.
    Relations pair by position: differing signatures raise SignatureMismatchError.

    Into a symmetric target relation only the source relation's orbit_tuples
    are checked: h(t) lies in it iff h of every permutation of t does, and
    every permutation of t completes at the same position, so the pruning,
    the order and the maps are those of checking every tuple.
    """
    _check_signatures(source, target)
    n = source.domain_size
    rank = [0] * n
    for i, x in enumerate(order):
        rank[x] = i
    checks = [[] for _ in range(n)]  # i -> (image getter, allowed) pairs of the tuples completed by position i
    for rel_x, rel_b in zip(source.relations, target.relations):
        allowed = rel_b.as_set
        if rel_x.arity == 1:  # itemgetter of one index returns the bare image, not a 1-tuple
            allowed = {v for (v,) in allowed}
        for t in rel_x.orbit_tuples if rel_b.symmetric else rel_x.tuples:
            checks[max(map(rank.__getitem__, t))].append((itemgetter(*t), allowed))
    h = [-1] * n
    pending = [iter(images[order[0]])] + [None] * (n - 1)  # pending[i] yields the images still to try at position i
    i = 0
    while i >= 0:
        x = order[i]
        for v in pending[i]:
            if injective and v in h:
                continue
            h[x] = v
            for image, allowed in checks[i]:
                if image(h) not in allowed:
                    break
            else:
                if i == n - 1:
                    yield tuple(h)
                    continue
                i += 1
                pending[i] = iter(images[order[i]])
                break
        else:
            h[x] = -1
            i -= 1


def automorphisms(structure: RelStructure) -> list[tuple[int, ...]]:
    """All domain permutations mapping every relation onto itself, in lexicographic order.

    An injective map sends a finite relation into itself only if it sends it onto itself.
    """
    return list(_maps(structure, structure, range(structure.domain_size), _invariant_classes(structure), injective=True))


def _invariant_classes(structure: RelStructure) -> list[tuple[int, ...]]:
    """classes[v] = the elements whose count of (relation, multiplicity) over the tuples containing them equals v's.

    An automorphism maps each element into its class.
    """
    k = structure.domain_size
    counts = [Counter() for _ in range(k)]
    for r, rel in enumerate(structure.relations):
        for t in rel.tuples:
            for v in set(t):
                counts[v][r, t.count(v)] += 1
    return [tuple(w for w in range(k) if counts[w] == counts[v]) for v in range(k)]


def automorphism_orbits(structure: RelStructure) -> list[frozenset[int]]:
    """Orbits of the domain under the automorphism group, sorted by minimum.

    Only elements of one invariant class can share an orbit.  For each pair
    v < w of a class not yet known to share one, a single automorphism
    sending v to w is searched for, and one that is found joins the orbit of
    every element with that of its image; the group itself is never listed.
    """
    k = structure.domain_size
    classes = _invariant_classes(structure)
    orbit = [frozenset([v]) for v in range(k)]
    for v, cls in enumerate(classes):
        for w in cls:
            if w > v and w not in orbit[v]:
                images = classes[:v] + [(w,)] + classes[v + 1 :]
                perm = next(_maps(structure, structure, range(k), images, injective=True), None)
                for x, y in enumerate(perm or ()):
                    if orbit[y] is not orbit[x]:
                        merged = orbit[x] | orbit[y]
                        for z in merged:
                            orbit[z] = merged
    return sorted(set(orbit), key=min)


class TemplatePair(Checked, namedtuple("TemplatePair", "source target")):
    """A pair of same-signature structures with source -> target required, both checked by _maps."""

    __slots__ = ()

    def __new__(cls, source: RelStructure, target: RelStructure):
        pair = super().__new__(cls, source, target)
        pair.__post_init__()  # looked up on the class per call, so perfbench/tracing.py can wrap it to count pairs
        return pair

    def __post_init__(self):
        n, k = self.source.domain_size, self.target.domain_size
        if next(_maps(self.source, self.target, range(n), [range(k)] * n), None) is None:
            raise ValueError("invalid template: no homomorphism from source to target")


# --- text format -------------------------------------------------------------
#
#   domain <k>
#   rel <arity>
#   t a b c
#
# one "rel" header per relation followed by its tuple lines; "#" starts a
# comment; symmetric closure is never implicit.


def parse_structure(text: str) -> RelStructure:
    domain_size = None
    relations: list[tuple[int, list[tuple[int, ...]]]] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "domain":
                if domain_size is not None or len(parts) != 2:
                    raise FormatError(f"line {lineno}: bad domain header")
                domain_size = int(parts[1])
            elif parts[0] == "rel":
                if domain_size is None or len(parts) != 2:
                    raise FormatError(f"line {lineno}: bad rel header")
                relations.append((int(parts[1]), []))
            elif parts[0] == "t":
                if not relations:
                    raise FormatError(f"line {lineno}: tuple before any rel header")
                arity, tuples = relations[-1]
                entries = tuple(int(x) for x in parts[1:])
                if len(entries) != arity:
                    raise FormatError(f"line {lineno}: expected {arity} entries, got {len(entries)}")
                tuples.append(entries)
            else:
                raise FormatError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc
    if domain_size is None:
        raise FormatError("missing domain header")
    try:
        return make_structure(domain_size, [tuples for _, tuples in relations])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
