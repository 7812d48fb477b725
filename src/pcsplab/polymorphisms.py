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
cell when two parts have the same weight vector.  The three weight vectors
add up to the block sizes, so the cells that share a constraint with cell
w are the pairs that add up to its complement, blocks - w.  This module
reads those pairs off the box of each complement, with no list of
triples, and hands the search engine in `_network` each cell's pairs and
the triples that repeat a cell; the engine knows nothing of blocks.  It
checks answers with its own walk: equal sub-tables of the table share one
number, and each distinct triple of sub-tables at each level is visited
once.

The source is always 1-in-3, the exactly-one-1 Boolean structure, so every
function takes the target alone; one_in_three_target checks a pair once.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import itemgetter, mul

from ._network import Network
from .errors import FormatError, TimeBudgetExceeded, expired
from .structures import Checked, RelStructure, TemplatePair, named_template


def subset_masks(n: int) -> tuple[int, ...]:
    """All masks over [n] in canonical (cardinality, lexicographic) order."""
    bits = [1 << i for i in range(n)]
    return tuple(sum(c) for j in range(n + 1) for c in itertools.combinations(bits, j))


class BlockTable(Checked, namedtuple("BlockTable", "blocks target_size values")):
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


def alternating_threshold() -> BlockTable:
    """Arity-3 table: 1 when the alternating sum of indicators is positive."""
    vals = []
    for mask in range(8):
        s = (mask & 1) - (mask >> 1 & 1) + (mask >> 2 & 1)
        vals.append(1 if s > 0 else 0)
    return BlockTable((1,) * 3, 2, tuple(vals))


class MinorMap(Checked, namedtuple("MinorMap", "source_arity target_arity mapping")):
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
    every tuple of R is in R in every order.
    """
    rel = target.single_ternary()
    table = [[0] * target.domain_size for _ in range(target.domain_size)]
    for x, y, v in rel.tuples:
        if rel.symmetric or rel.as_set.issuperset(itertools.permutations((x, y, v))):
            table[x][y] |= 1 << v
    return table


# Two walks over the 3-partitions of coordinate blocks, kept apart on purpose: the search network's
# constraints come from _cell_partners' weight arithmetic, and the answer checker walks numbered
# sub-tables of the found table, so a fault in one cannot hide behind the other.


def _cell_partners(blocks, deadline=None):
    """(partners, repeated): the constraints of the search network on the cells of the coordinate blocks.

    The three parts of a 3-partition of the coordinates have weight vectors
    that add up to the block sizes, weight by weight.  So the pairs that
    complete cell w to a constraint are the cells u, v with u + v = blocks -
    w, the cell of index R = ncells - 1 - w.  Such sums carry nothing in
    mixed radix: the u's are box(R), the cells <= R weight by weight, in
    ascending order, and v = R - u is box(R) read backwards.  box(R) is a
    prefix of the pattern of R, the box of (blocks[0], R's other weights),
    and partners[w] is (pattern, s), s the slice that reads box(R)'s last
    half backwards: zip(pattern, pattern[s]) pairs the u <= v in ascending
    u, so each constraint through w comes once.  A cell costs one tuple and
    one slice; the patterns are built from slices of one list of the cell
    ints, so they hold no more than ncells int objects between them.
    `repeated` holds the ascending triples that repeat a cell, (a, a,
    blocks - 2a) sorted, for each 2a <= blocks.  Raises TimeBudgetExceeded
    once `deadline` expires, checked before each chunk of 65,536 cell ints
    but the first, before each box that either pre-pass copies and before
    each cell, so that no pass outlasts it by more than one box: the boxes
    of n unit blocks hold 3**(n-1) cells between them.
    """
    first, *tail = blocks
    late = "search ran past its time budget after 0 nodes, while building its network"
    ncells = math.prod(size + 1 for size in blocks)
    cells = []  # the cell ints, 2**16 at a time, so that a passed deadline stops even a list of 2**20 cells early
    for start in range(0, ncells, 1 << 16):
        if start and expired(deadline):
            raise TimeBudgetExceeded(late)
        cells += range(start, min(start + (1 << 16), ncells))
    strides = list(itertools.accumulate([size + 1 for size in reversed(tail)], mul, initial=1))[::-1]
    # boxes[t]: the box of each index t over the blocks past the first, built from the last block up: the box of
    # weight d in a block and t past it is the box of weight d - 1 and t, then the box of t moved to weight d
    boxes = [[0]]
    for size, stride in zip(reversed(tail), strides[:0:-1]):
        level = list(boxes)
        for d in range(1, size + 1):
            move = cells[d * stride : (d + 1) * stride].__getitem__
            for run, box in zip(level[-stride:], boxes):
                if expired(deadline):
                    raise TimeBudgetExceeded(late)
                level.append([*run, *map(move, box)])
        boxes = level
    # patterns[t]: the box of (blocks[0], t's weights), whose prefixes are the boxes of every R = t mod strides[0]
    patterns = [[] for _ in boxes]
    for d in range(first + 1):
        move = cells[d * strides[0] : (d + 1) * strides[0]].__getitem__
        for pattern, box in zip(patterns, boxes):
            if expired(deadline):
                raise TimeBudgetExceeded(late)
            pattern += map(move, box)
    partners = []
    for R in reversed(cells):  # R = ncells - 1 - w, the index of blocks - w, for w = 0, 1, ...
        if expired(deadline):
            raise TimeBudgetExceeded(late)
        q, t = divmod(R, strides[0])
        pattern = patterns[t]
        # box(R) = pattern[:end] pairs u with R - u from its two ends inwards, and holds R / 2 when end is odd,
        # so the pairs with u <= v are its first end - end // 2 cells, as many as the slice reads
        end = (q + 1) * len(boxes[t])
        half = end // 2
        partners.append((pattern, slice(end - 1, half - 1 if half else None, -1)))
    halves = [0]  # the cells a with 2a <= blocks, ascending
    for size, stride in zip(blocks, strides):
        halves = [a + d * stride for a in halves for d in range(size // 2 + 1)]
    repeated = sorted(tuple(sorted((a, a, ncells - 1 - 2 * a))) for a in halves)
    return partners, repeated


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


def _search_network(target: RelStructure, blocks, deadline=None) -> Network:
    """The search network for tables from 1-in-3 to target on the cells of the coordinate blocks.

    Raises TimeBudgetExceeded once `deadline` expires before the network is built.
    """
    partners, repeated = _cell_partners(blocks, deadline)
    return Network(partners, repeated, allowed_table(target))


def is_polymorphism(table: BlockTable, target: RelStructure) -> bool:
    """Partition test: every ordered 3-partition of the coordinates must map into the relation.

    This checks a table of every block shape from 1-in-3 to target.
    With unit blocks the walk numbers the blocks from the high bit down,
    which relabels coordinates and leaves the set of 3-partitions as it is.
    """
    if table.target_size != target.domain_size:
        raise ValueError("table target size does not match template target")
    return _partitions_map_into(table.blocks, table.values, target.single_ternary().as_set)


def enumerate_polymorphisms(target: RelStructure, n: int, *, deadline: float | None = None):
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
    Any arity n >= 1 is taken, and `deadline` is the one bound on the work:
    it comes from errors.deadline_after, None for no limit; once it
    expires, building the network or the search raises TimeBudgetExceeded.
    """
    _require_arity(n)
    net = _search_network(target, (1,) * n, deadline)
    yield from net.solutions(subset_masks(n), None, deadline)


def _require_arity(n: int) -> None:
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


def enumerate_orbits(target: RelStructure, n: int, *, deadline: float | None = None):
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
    _require_arity(n)
    net = _search_network(target, (1,) * n, deadline)
    order = subset_masks(n)
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
    for values in net.solutions(order, None, deadline, prune):
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
