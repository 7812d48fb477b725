"""Tables on coordinate blocks, coordinate maps, and polymorphism tests.

A table on coordinate blocks, BlockTable, assigns a target value to every
cell: the coordinates [n] = {1..n} come in blocks, and a cell is a weight
vector, how many coordinates of each block a subset holds.  Cells are
indexed in mixed radix with the last block least significant.  One unit
block per coordinate gives a full table of arity n: its cells are the
subsets of [n] as bitmasks (bit i-1 is coordinate i), and subsets are
ordered canonically by (cardinality, element order).  One block of size n
gives a symmetric table and two blocks a two-block table.  A minor along a
map of coordinates is read through the map's subset-image tables,
MinorMap.pull and MinorMap.push.

Each 3-partition of the coordinates gives one cell triple, which repeats a
cell when two parts have the same weight vector.  This module streams the
sorted triples as one int code each, in ascending order, and hands the
search engine in `_network` only the cell count and that stream of codes.
It checks answers with its own walk: equal sub-tables of the table share
one number, and each distinct triple of sub-tables at each level is
visited once.

The source is always 1-in-3, the exactly-one-1 Boolean structure, so every
function takes the target alone; one_in_three_target checks a pair once.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from operator import itemgetter

from ._network import Network
from .errors import ArityBoundError, FormatError, TimeBudgetExceeded, expired
from .structures import RelStructure, TemplatePair, named_template

DEFAULT_ARITY_CAP = 5


def subset_masks(n: int) -> tuple[int, ...]:
    """All masks over [n] in canonical (cardinality, lexicographic) order."""
    return tuple(sum(1 << i for i in c) for j in range(n + 1) for c in itertools.combinations(range(n), j))


class BlockTable(namedtuple("BlockTable", "blocks target_size values")):
    """Total table on the cells of coordinate blocks, values in the target domain.

    blocks holds the block sizes, each >= 1, and values has one entry per
    weight vector (w_1, ..., w_m), 0 <= w_j <= blocks[j], at its mixed-radix
    index, last block least significant.  With unit blocks that index is a
    subset mask, block j being bit m - j, that is coordinate m + 1 - j, so
    values[mask] is the value on the subset mask.
    """

    __slots__ = ()

    def __new__(cls, blocks: tuple[int, ...], target_size: int, values: tuple[int, ...]):
        if not blocks or min(blocks) < 1:
            raise ValueError(f"block sizes must be >= 1, got {blocks}")
        cells = math.prod(size + 1 for size in blocks)
        if len(values) != cells:
            raise ValueError(f"expected {cells} entries, got {len(values)}")
        for v in values:  # None or a value outside the domain raises ValueError; a string still raises TypeError
            if v is None or not 0 <= v < target_size:
                raise ValueError(f"value {v} outside target domain")
        return super().__new__(cls, blocks, target_size, values)

    @property
    def arity(self) -> int:
        return sum(self.blocks)

    def value(self, *weights: int) -> int:
        """The value on the cell with these weights, one per block."""
        if len(weights) != len(self.blocks) or not all(0 <= w <= size for w, size in zip(weights, self.blocks)):
            raise ValueError(f"weights {weights} outside " + " x ".join(f"0..{size}" for size in self.blocks))
        index = 0
        for w, size in zip(weights, self.blocks):
            index = index * (size + 1) + w
        return self.values[index]


def dictator(n: int, coordinate: int, target_size: int = 2) -> BlockTable:
    """The projection onto one coordinate."""
    bit = 1 << (coordinate - 1)
    return BlockTable((1,) * n, target_size, tuple(1 if mask & bit else 0 for mask in range(1 << n)))


def alternating_threshold(target_size: int = 2) -> BlockTable:
    """Arity-3 table: 1 when the alternating sum of indicators is positive."""
    vals = []
    for mask in range(8):
        s = (mask & 1) - (mask >> 1 & 1) + (mask >> 2 & 1)
        vals.append(1 if s > 0 else 0)
    return BlockTable((1,) * 3, target_size, tuple(vals))


class MinorMap(namedtuple("MinorMap", "source_arity target_arity mapping")):
    """A total map [n] -> [m] used to identify coordinates of a table; mapping[i-1] is the image of coordinate i."""

    __slots__ = ()

    def __new__(cls, source_arity: int, target_arity: int, mapping: tuple[int, ...]):
        if len(mapping) != source_arity:
            raise ValueError("mapping must be total on source coordinates")
        for v in mapping:
            if not 1 <= v <= target_arity:
                raise ValueError(f"image {v} outside 1..{target_arity}")
        return super().__new__(cls, source_arity, target_arity, mapping)

    def pull(self) -> tuple[int, ...]:
        """pull[X] is the mask of the preimage of the target mask X."""
        bits = [0] * self.target_arity
        for i, v in enumerate(self.mapping):
            bits[v - 1] |= 1 << i
        return _subset_images(bits, range(1 << self.source_arity))

    def push(self) -> tuple[int, ...]:
        """push[x] is the mask of the image of the source mask x."""
        return _subset_images([1 << (v - 1) for v in self.mapping], range(1 << self.target_arity))


def _subset_images(bits, masks) -> tuple[int, ...]:
    """The table img with img[x] the OR of bits[i] over the set bits i of x, for x < 2**len(bits).

    Each entry is read as masks[value], so tables built over one shared
    masks list hold one int object per distinct mask: a table costs one
    pointer per subset.  The lowest set bit of x splits x into that bit and
    a smaller mask whose entry is already known.
    """
    img = [0] * (1 << len(bits))
    for x in range(1, len(img)):
        low = x & -x
        img[x] = masks[img[x ^ low] | bits[low.bit_length() - 1]]
    return tuple(img)


def one_in_three_target(template: TemplatePair) -> RelStructure:
    """The target of a pair with source 1-in-3, the one source whose constraints are 3-partitions; else ValueError."""
    if template.source != named_template("1in3"):
        raise ValueError("partition compatibility requires the exactly-one-1 Boolean source")
    return template.target


def allowed_table(target: RelStructure) -> list[list[int]]:
    """allowed[x][y] = bitmask of v such that the multiset (x, y, v) maps into R.

    Every ordering is required, which is what the compatibility condition
    demands of tables on unordered cell triples; for symmetric relations
    this equals the single-order test.
    """
    rel = target.single_ternary().as_set
    k = target.domain_size
    table = [[0] * k for _ in range(k)]
    for x in range(k):
        for y in range(k):
            mask = 0
            for v in range(k):
                if all(p in rel for p in set(itertools.permutations((x, y, v)))):
                    mask |= 1 << v
            table[x][y] = mask
    return table


# Two walks over the 3-partitions of coordinate blocks, kept apart on purpose: the search network's
# constraints come from _partition_triples' cell triples, and the answer checker walks numbered
# sub-tables of the found table, so a fault in one cannot hide behind the other.


def _partition_triples(blocks, deadline=None) -> Iterator[int]:
    """The ascending codes of the unordered 3-partitions of the coordinates: (x * N + y) * N + z for cells x <= y <= z.

    N is the cell count.  A 3-partition is an ordered composition (a, b, c)
    of each block's size into three parts, and its cells (x, y, z) are read
    in mixed radix, so they compare as their weight vectors do, first block
    first.  The walk runs from the first block to the last and keeps, per
    partial triple, whether x and y are tied so far and whether y and z are:
    while x and y are tied only a <= b extends it, and while y and z are
    tied only b <= c.  So it builds exactly the triples with x <= y <= z,
    each sorted triple once.  As z < N, codes sort as their triples do, and
    an int takes a fraction of the memory of a tuple of three.  The partial
    triples over every block but the last are built before this returns,
    as tuples bucketed by their head cell x.  The codes are not: the
    returned iterator yields them one first cell X = x * r + a at a time, in
    ascending X, where r is the last block's size + 1 and a its first part.
    A partial triple adds one range of codes to each of its first cells, so
    a first cell's codes are sorted only when several partial triples share
    x, and no more than one first cell's codes are held at once.  Raises
    TimeBudgetExceeded once `deadline` expires, while the partial triples
    are built or as the iterator reaches a first cell.
    """
    *head, last = blocks
    n = math.prod(size + 1 for size in blocks)
    groups = {3: [(0, 0, 0)]}  # partial triples by ties so far: bit 1 for x and y, bit 2 for y and z
    for size in head:
        r = size + 1
        extended = defaultdict(list)
        for tie, prefixes in groups.items():
            parts = defaultdict(list)  # the compositions this tie admits, by the ties they leave
            for a, bs in _second_parts(size, tie, deadline):
                for b in bs:
                    c = size - a - b
                    parts[tie & ((a == b) | (b == c) << 1)].append((a, b, c))
            for left, chunk in parts.items():
                extended[left] += [(x * r + a, y * r + b, z * r + c) for x, y, z in prefixes for a, b, c in chunk]
        groups = extended
    r, step = last + 1, n - 1
    heads = defaultdict(list)  # head cell x -> (code base, spans by a) of each partial triple (x, y, z)
    for tie, prefixes in groups.items():
        spans = []  # composition (a, b, last - a - b) adds a * n * n + last - a + b * step to a prefix's code
        for a, bs in _second_parts(last, tie, deadline):
            start = a * n * n + last - a
            spans.append((start + bs.start * step, start + bs.stop * step))
        for x, y, z in prefixes:
            heads[x].append((r * ((x * n + y) * n + z), spans))

    def first_cells():
        for x in sorted(heads):
            for a in range(r):
                check_build_deadline(deadline)
                runs = [range(base + spans[a][0], base + spans[a][1], step) for base, spans in heads[x]]
                yield runs[0] if len(runs) == 1 else sorted(itertools.chain.from_iterable(runs))

    return itertools.chain.from_iterable(first_cells())


def check_build_deadline(deadline) -> None:
    """Raise TimeBudgetExceeded once `deadline` has expired while a network's constraints are listed."""
    if expired(deadline):
        raise TimeBudgetExceeded("search ran past its time budget after 0 nodes, while building its network")


def _second_parts(size: int, tie: int, deadline):
    """(a, range of b) for the compositions (a, b, size - a - b) that a partial triple with these ties admits."""
    r = size + 1
    for a in range(r):
        check_build_deadline(deadline)
        yield a, range(a if tie & 1 else 0, (size - a) // 2 + 1 if tie & 2 else r - a)


def _partitions_map_into(blocks, values, rel) -> bool:
    """Does every ordered 3-partition of the coordinates map into rel?

    The coordinates come in blocks of the given sizes, and a cell is a weight
    vector (w_1, ..., w_m), 0 <= w_j <= blocks[j], indexed in mixed radix
    with the last block least significant.  A partition putting (a_j, b_j,
    c_j) elements of block j into its three parts must send its cell triple
    to a triple of values in rel.  Fixing the weights of the first j blocks
    fixes a contiguous sub-table, and whether every completion of a partial
    partition maps into rel depends only on its three sub-tables.  So the
    sub-tables are numbered bottom-up, equal ones sharing a number: a last
    block sub-table is a value row, and a sub-table one level up is the tuple
    of its children's numbers, up to the whole table, node 0.  A depth-first
    walk then visits each distinct (level, x, y, z) once, where a walk over
    every partition would first meet it.  At the last level it tests the
    last block's compositions (a, b, last - a - b) against rel in one call,
    read off rows x, y and z one first part a at a time, as a slice of row y
    and a reversed slice of row z.  So it holds no more than one row's
    length of values at once, and a failing table still stops at its first
    bad partition.
    """
    *head, last = blocks
    r = last + 1
    ids, nodes = tuple(values), []  # nodes: the distinct sub-tables of each level by number, last level first
    for width in [r, *(size + 1 for size in reversed(head))]:
        numbers = {}
        ids = tuple(numbers.setdefault(ids[i : i + width], len(numbers)) for i in range(0, len(ids), width))
        nodes.append(list(numbers))
    rows, kids = nodes[0], nodes[:0:-1]
    seen = set()
    stack = [(0, 0, 0, 0)]
    while stack:
        level, x, y, z = stack.pop()
        if level == len(head):
            rx, ry, rz = rows[x], rows[y], rows[z]
            parts = (zip(itertools.repeat(rx[a], r - a), ry[: r - a], rz[last - a :: -1]) for a in range(r))
            if not rel.issuperset(itertools.chain.from_iterable(parts)):
                return False
            continue
        size, xs, ys, zs = head[level], kids[level][x], kids[level][y], kids[level][z]
        fresh = []
        for a in range(size + 1):
            for b in range(size + 1 - a):
                key = level + 1, xs[a], ys[b], zs[size - a - b]
                if key not in seen:
                    seen.add(key)
                    fresh.append(key)
        stack += reversed(fresh)  # so the first composition is popped first
    return True


def _search_network(target: RelStructure, blocks, branch_order, deadline=None) -> Network:
    """The search network for tables from 1-in-3 to target on the cells of the coordinate blocks.

    Raises TimeBudgetExceeded once `deadline` expires before the network is built.
    """
    ncells = math.prod(size + 1 for size in blocks)
    return Network(ncells, _partition_triples(blocks, deadline), branch_order, allowed_table(target))


def is_polymorphism(table: BlockTable, target: RelStructure) -> bool:
    """Partition test: every ordered 3-partition of the coordinates must map into the relation.

    This checks a table of every block shape from 1-in-3 to target.
    With unit blocks the walk numbers the blocks from the high bit down,
    which relabels coordinates and leaves the set of 3-partitions as it is.
    """
    if table.target_size != target.domain_size:
        raise ValueError("table target size does not match template target")
    return _partitions_map_into(table.blocks, table.values, target.single_ternary().as_set)


def enumerate_polymorphisms(target: RelStructure, n: int, *, force: bool = False, deadline: float | None = None):
    """Yield every polymorphism of arity n exactly once, in canonical order.

    Each item is a value tuple indexed by subset mask, the values of a
    BlockTable with one unit block per coordinate.
    The stream order is lexicographic in the value vector read along the
    canonical subset order.  The search network has one unit block per
    coordinate, so its cells are the 2**n subset masks and each unordered
    3-partition of [n] is one constraint; the network numbers the blocks
    from the high bit down, which relabels coordinates and leaves the set
    of 3-partitions as it is.  Every node is propagated to arc consistency:
    a value stays only while each partition through its cell has values of
    the other two cells that complete it in every ordering of the relation.
    `deadline` comes from errors.deadline_after, None for no limit; once it
    expires, building the network or the search raises TimeBudgetExceeded.
    """
    _require_arity(n, force)
    net = _search_network(target, (1,) * n, subset_masks(n), deadline)
    yield from net.solutions(None, deadline)


def _require_arity(n: int, force: bool) -> None:
    if n > DEFAULT_ARITY_CAP and not force:
        raise ArityBoundError(f"arity {n} exceeds cap {DEFAULT_ARITY_CAP}; pass force to override")
    if n < 1:
        raise ValueError("arity must be >= 1")


ORBIT_BLOCK = 6  # enumerate_orbits permutes at most this many coordinates: 6! = 720 permutations


def orbit_permutations(n: int) -> list[tuple[int, ...]]:
    """The group whose orbits enumerate_orbits walks at arity n, as subset images, identity first.

    The group is S_n up to arity ORBIT_BLOCK and the permutations of the
    first ORBIT_BLOCK coordinates past it, so that it stays at 720 entries.
    For a permutation s the entry is img with img[m] the mask of s applied
    to the coordinates of m, so that itemgetter(*img)(values) is the table
    X -> values[s(X)], a table with renamed coordinates.  All the tables
    are built over one masks list, so they share their int objects.
    """
    masks = list(range(1 << n))
    moved = range(min(n, ORBIT_BLOCK))
    rest = [1 << c for c in range(len(moved), n)]
    return [_subset_images([1 << c for c in perm] + rest, masks) for perm in itertools.permutations(moved)]


def enumerate_orbits(target: RelStructure, n: int, *, force: bool = False, deadline: float | None = None):
    """Yield (values, orbit_size) for one polymorphism of arity n per orbit under permuting the coordinates.

    Permuting the coordinates of a polymorphism of the symmetric 1-in-3
    source gives a polymorphism, so the stream of enumerate_polymorphisms
    splits into orbits under the group of orbit_permutations(n).  Each
    orbit is represented by its lex-leader, its first member in the stream,
    and the leaders come in stream order; orbit_size is |group| / |Stab|,
    so the sizes add up to the count of the full stream (Crawford,
    Ginsberg, Luks and Roy, KR 1996).

    The search is the one of enumerate_polymorphisms with a prune hook.  A
    leader's singleton layer is sorted on the permuted coordinates, since
    any other arrangement of it is larger, so only the permutations that fix
    its singleton colouring can map it to a smaller table.  Whenever a node
    completes size layers past the singletons, its assigned prefix is
    compared with the image of that prefix under those permutations, and a
    smaller image cuts the node.  Only the permutations still tied with the
    prefix are compared, and only on the layers this node completed: tied
    maps a compared prefix length to the permutations whose image equals
    the prefix up to it.  A node that completes the layers from length done
    to size starts from tied[done], written last by its nearest ancestor
    that compared up to done, or from all the permutations fixing the
    colouring when done is 0.  A permutation whose image slice is larger is
    dropped for the whole subtree, and one whose slice is equal goes into
    tied[size].  At a leaf, the permutations in tied[size] fix the table
    and give |Stab|.  The permutation tables are built per call.  `deadline`
    works as in enumerate_polymorphisms.
    """
    _require_arity(n, force)
    order = subset_masks(n)
    net = _search_network(target, (1,) * n, order, deadline)
    singles = order[1 : n + 1]
    ascending = list(zip(singles, singles[1 : ORBIT_BLOCK]))
    # every compared tuple starts with the empty set, which each permutation fixes, so that it has two entries or more
    upper = (0, *order[n + 1 :])
    mine = itemgetter(*upper)
    colouring_of = itemgetter(*singles)
    # per permutation but the identity: the getters of its images of the singletons and of upper
    images = [(itemgetter(*(img[m] for m in singles)), itemgetter(*(img[m] for m in upper))) for img in orbit_permutations(n)[1:]]
    ends = list(itertools.accumulate(math.comb(n, j) for j in range(n + 1)))  # ends[j]: branch position after layer j
    # prefix[stop]: length of the compared prefix of upper once the positions below stop are assigned
    prefix = [0] * (len(order) + 1)
    for j in range(2, n + 1):
        for stop in range(ends[j], len(order) + 1):
            prefix[stop] = 1 + ends[j] - ends[1]
    fixing = {}  # singleton colouring -> the upper getters of the permutations that fix it
    tied = {}  # compared prefix length -> the getters whose image equals the assigned prefix up to it
    stabiliser = 1  # |Stab| of the last solution the prune hook let through

    def prune(cand, start, stop) -> bool:
        nonlocal stabiliser
        if stop <= n:
            return False
        if start <= n and any(cand[a] > cand[b] for a, b in ascending):
            return True
        done, size = prefix[start], prefix[stop]
        if size == done:
            return False  # no layer past the singletons completed at this node
        if done:
            getters = tied[done]  # last written by the nearest ancestor that compared up to done
        else:
            colouring = colouring_of(cand)
            getters = fixing.get(colouring)
            if getters is None:
                getters = fixing[colouring] = [get for on_singles, get in images if on_singles(cand) == colouring]
        head = mine(cand)[done:size]
        still = tied[size] = []
        for get in getters:
            image = get(cand)[done:size]
            if image < head:
                return True
            if image == head:
                still.append(get)
        if stop == len(order):
            stabiliser = 1 + len(still)
        return False

    group = len(images) + 1
    for values in net.solutions(None, deadline, prune):
        yield values, group // stabiliser


# --- text format -------------------------------------------------------------
#
#   poly <n> <target_size>
#   <bits> <value>
#
# one line per subset in canonical order; <bits> is b1..bn with bi = 1 when
# coordinate i belongs to the subset.


def format_poly_table(table: BlockTable) -> str:
    lines = [f"poly {table.arity} {table.target_size}"]
    for mask in subset_masks(table.arity):
        bits = "".join("1" if mask >> i & 1 else "0" for i in range(table.arity))
        lines.append(f"{bits} {table.values[mask]}")
    return "\n".join(lines) + "\n"


def parse_poly_table(text: str) -> BlockTable:
    header = None
    rows = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if parts[0] != "poly" or len(parts) != 3:
                    raise FormatError(f"line {lineno}: expected 'poly <n> <target_size>' header")
                header = (int(parts[1]), int(parts[2]))
                if header[0] < 1:
                    raise FormatError(f"line {lineno}: arity must be >= 1, got {header[0]}")
            else:
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: expected '<bits> <value>'")
                rows.append((lineno, parts[0], int(parts[1])))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise FormatError("missing poly header")
    n, k = header
    if n >= len(rows).bit_length() or len(rows) != 1 << n:  # the first test keeps a huge n from building 2**n
        raise FormatError(f"expected 2**{n} table rows, got {len(rows)}")
    values = [None] * (1 << n)
    for lineno, bits, value in rows:
        if len(bits) != n or any(ch not in "01" for ch in bits):
            raise FormatError(f"line {lineno}: bad subset bits {bits!r}")
        mask = sum(1 << i for i, ch in enumerate(bits) if ch == "1")
        if values[mask] is not None:
            raise FormatError(f"line {lineno}: duplicate subset {bits!r}")
        values[mask] = value
    try:
        return BlockTable((1,) * n, k, tuple(values))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
