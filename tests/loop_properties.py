"""The fact predicates as plain loops over the value tuple: the reference for the sliced ones.

Each takes (values, arity) and returns the same witness tuple, or None, as
the catalog predicate of the same id in `pcsplab.properties`, which reads a
`SlicedTable` instead.  `test_sliced_predicates_match_loops` compares them.
"""


def _residue(value: int) -> int:
    # collapse {1, 2} to 1; used by the linear-structure facts
    return 0 if value == 0 else 1


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


LOOP_PREDICATES = {
    "D1_no_disjoint": _p_d1_no_disjoint,
    "D1_small_iset": _p_d1_small_iset,
    "D2_unions": _p_d2_unions,
    "D2_singleton": _p_d2_singleton,
    "D2_successor": _p_d2_successor,
    "D2_small02": _p_d2_small02,
    "T1_subunion": _p_t1_subunion,
    "T1_parity": _p_t1_parity,
    "T1_addIf": _p_t1_addif,
    "T1_sizes": _p_t1_sizes,
    "T1_smallEf": _p_t1_smallef,
    "T1_nonidemp": _p_t1_nonidemp,
    "CH_forbid": _p_ch_forbid,
    "CH_union": _p_ch_union,
    "CH_singleton": _p_ch_singleton,
}
