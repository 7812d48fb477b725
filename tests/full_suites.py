"""The fact suites by full enumeration: the reference for the orbit walk of `check_properties`.

`full_check_properties` feeds every table of `enumerate_polymorphisms` to
the catalog predicates and keeps each property's first failures in stream
order, as `pcsplab.properties.check_properties` did before it walked one
lex-leader per orbit.  `brute_force_leaders` finds the lex-leaders by
applying every permutation of the coordinates to every table.
`test_orbit_suites_match_full_enumeration` and
`test_orbit_leaders_match_brute_force` compare them.
"""

import itertools
import operator

from pcsplab.polymorphisms import enumerate_polymorphisms, subset_masks
from pcsplab.properties import PROPERTY_CATALOG, MaskTables, SlicedTable


def full_check_properties(target, property_ids, max_arity, counterexample_cap):
    """(examined, {id: [(arity, values, witness), ...]}) over every polymorphism up to max_arity."""
    k = target.domain_size
    examined = 0
    found = {pid: [] for pid in property_ids}
    for n in range(1, max_arity + 1):
        masks = MaskTables(n, k)
        for values in enumerate_polymorphisms(target, n):
            examined += 1
            view = SlicedTable(values, masks)
            for pid in property_ids:
                witness = PROPERTY_CATALOG[pid].predicate(view)
                if witness is not None and len(found[pid]) < counterexample_cap:
                    found[pid].append((n, values, witness))
    return examined, found


def coordinate_permutations(n):
    """One getter per permutation s of [n]: it maps a value tuple to the table X -> values[s(X)]."""
    return [
        operator.itemgetter(*(sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in range(1 << n)))
        for perm in itertools.permutations(range(n))
    ]


def brute_force_leaders(target, n):
    """[(values, orbit size)] for the tables that come first in stream order among their permutations."""
    key = operator.itemgetter(*subset_masks(n))
    permutations = coordinate_permutations(n)
    leaders = []
    for values in enumerate_polymorphisms(target, n):
        orbit = {get(values) for get in permutations}
        if min(orbit, key=key) == values:
            leaders.append((values, len(orbit)))
    return leaders
