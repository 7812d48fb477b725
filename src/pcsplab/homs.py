"""Homomorphism search between finite structures and the induced order.

The search is the map backtracker of the structures module, run along the
source's degree order; a constraint tuple is tested when its last-ranked
element is assigned, and into a symmetric target relation one tuple per
class of permuted tuples is tested for the class.  Structures whose
signatures differ are refused.  A found map is checked again against every
tuple.  At the desk scales used here (domains of size two to four, instances
with a few dozen variables) this is exhaustive and fast.  The lattice
construction inserts structures one at a time into mutual-homomorphism
classes, testing each only against one head per class, and reads the cover
edges of the induced partial order off those tests.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import TimeBudgetExceeded, expired
from .structures import Checked, RelStructure, _check_signatures, _maps, named_template, template_names_3

STRICTLY_BELOW = "strictly_below"
STRICTLY_ABOVE = "strictly_above"
EQUIVALENT = "equivalent"
INCOMPARABLE = "incomparable"


class HomMap(Checked, namedtuple("HomMap", "source_size target_size assignment")):
    """A total map between domains, with on-demand verification."""

    __slots__ = ()

    def __new__(cls, source_size: int, target_size: int, assignment: tuple[int, ...]):
        if len(assignment) != source_size:
            raise ValueError("assignment must be total on the source domain")
        for v in assignment:
            if not 0 <= v < target_size:
                raise ValueError(f"assignment value {v} outside target domain")
        return super().__new__(cls, source_size, target_size, assignment)

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def preserves(self, source: RelStructure, target: RelStructure) -> bool:
        """Does the map send every tuple of every source relation into the target's counterpart?

        Every tuple is checked, with no shortcut for symmetric targets: this
        is the check the searches are tested against; it checks signatures too.
        """
        _check_signatures(source, target)
        image = self.assignment.__getitem__
        for rel_x, rel_b in zip(source.relations, target.relations):
            allowed = rel_b.as_set
            for t in rel_x.tuples:
                if tuple(map(image, t)) not in allowed:
                    return False
        return True


def find_homomorphism(source: RelStructure, target: RelStructure) -> HomMap | None:
    """First homomorphism in deterministic search order, or None.

    Elements are assigned along source.degree_order, each trying the target
    values in ascending order.  A value is rejected when some tuple whose
    last-ranked element it completes maps outside the target relation;
    partially assigned tuples are not checked, so no candidate values are
    pruned ahead of assignment.  Into a symmetric target relation one tuple
    per class of permuted tuples stands for its class, which rejects the
    same values.  The map found is checked against every tuple
    (HomMap.preserves).  Differing signatures raise SignatureMismatchError.
    """
    n, k = source.domain_size, target.domain_size
    assignment = next(_maps(source, target, source.degree_order, [range(k)] * n), None)
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


class HomClass(namedtuple("HomClass", "members representative")):
    """One mutual-homomorphism class (members: tuple[RelStructure, ...]) with its canonical representative."""

    __slots__ = ()


class HomLattice(namedtuple("HomLattice", "classes cover_edges")):
    """The classes (tuple[HomClass, ...]) and the cover edges (frozenset of (lower index, higher index))."""

    __slots__ = ()

    def class_index_of(self, structure: RelStructure) -> int:
        for i, cls in enumerate(self.classes):
            if structure in cls.members:
                return i
        raise ValueError("structure not in lattice input")


def hom_lattice(structures, *, deadline: float | None = None) -> HomLattice:
    """Mutual-homomorphism classes of the input and their Hasse cover edges.

    Structures are placed in input order.  Each is tested against the head
    (first member) of every class found so far, in both directions; it joins
    the first class it is equivalent to, and otherwise heads a new class whose
    order relation to every earlier head those tests already gave.
    Homomorphisms compose, so a head stands for its whole class.  `deadline`
    is checked before each hom test, and TimeBudgetExceeded is raised once it
    passes.
    """
    structures = list(structures)
    if not structures:
        raise ValueError("lattice needs at least one structure")
    for s in structures:
        _check_signatures(structures[0], s)

    def hom(source, target, placed):
        if expired(deadline):
            raise TimeBudgetExceeded(
                f"hom lattice ran past its time budget after placing {placed} of {len(structures)} structures"
            )
        return hom_exists(source, target)

    members: list[list[RelStructure]] = []  # per class in order found; members[c][0] is its head
    above: list[set[int]] = []  # above[c]: the other classes d with a homomorphism from head c to head d
    for placed, s in enumerate(structures):
        up, down = set(), set()
        for c, cls in enumerate(members):
            to_head, from_head = hom(s, cls[0], placed), hom(cls[0], s, placed)
            if to_head and from_head:
                cls.append(s)
                break
            if to_head:
                up.add(c)
            if from_head:
                down.add(c)
        else:
            for c in down:
                above[c].add(len(members))
            members.append([s])
            above.append(up)

    # above is transitively closed, every pair of heads having been tested both ways: d covers c when d is above c
    # and above no other class above c
    order = sorted(range(len(members)), key=lambda c: min(members[c]))  # class indices by representative
    index = {c: i for i, c in enumerate(order)}
    covers = frozenset(
        (index[c], index[d]) for c in order for d in above[c] if not any(d in above[e] for e in above[c])
    )
    return HomLattice(tuple(HomClass(tuple(members[c]), min(members[c])) for c in order), covers)


def lattice_to_dot(lattice: HomLattice) -> str:
    """DOT digraph with one node per class and one edge per cover pair (low to high).

    A class is labelled with the sorted names of its catalog members, joined
    by "=" (the fixed names: template_names_3, CH and CHplus); a class with
    none is labelled d{k}: and its representative's tuples.
    """
    catalog: dict[RelStructure, list[str]] = {}
    for name in template_names_3() + ["CH", "CHplus"]:
        catalog.setdefault(named_template(name), []).append(name)
    lines = ["digraph hom_lattice {", "  rankdir=BT;"]
    for i, cls in enumerate(lattice.classes):
        label = "=".join(sorted({name for member in cls.members for name in catalog.get(member, ())}))
        if not label:
            rep = cls.representative
            rel_txt = ";".join(",".join("".join(map(str, t)) for t in rel.tuples) for rel in rep.relations)
            label = f"d{rep.domain_size}:{rel_txt}"
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in sorted(lattice.cover_edges):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
