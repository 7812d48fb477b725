"""The propagation engine shared by the polymorphism searches and enumeration.

A network is built from a tuple of coordinate-block sizes.  Its cells are
the weight vectors (w_1, ..., w_b) with 0 <= w_i <= blocks[i], indexed in
mixed radix with the last block least significant: `(n,)` gives one cell
per weight 0..n, `(k1, k2)` the cell w1 * (k2 + 1) + w2, and `(1,) * n` one
cell per subset mask of [n].  A table on the cells is a function of the
subsets of the coordinates that only sees how many coordinates of each block
a subset holds.  Each unordered 3-partition of the coordinates gives one
constraint: the colors of its three parts' cells must map into the target
relation in every order.  `allowed_table` gives, per color pair, the mask of
colors that complete it.

Search is depth-first over a fixed branch order with ascending colors; after
each assignment, every constraint with two assigned cells narrows the
candidate mask of its third cell, and a cell left with one candidate is
assigned and propagates in turn.  Narrowing only removes colors that no
solution can use, so solutions come out in lexicographic order along the
branch order.
"""

from __future__ import annotations

import itertools
import math
import time

from .errors import TimeBudgetExceeded
from .structures import RelStructure


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


def _partition_triples(blocks):
    """One sorted cell triple per unordered 3-partition of the coordinates, in sorted order.

    A 3-partition is an ordered composition of each block's size into three
    parts; the product over the blocks runs through chained generators, so
    only the deduplicated triples are held.
    """
    triples = iter([(0, 0, 0)])
    stride = 1
    for size in reversed(blocks):
        triples = _add_block(triples, size, stride)
        stride *= size + 1
    return sorted({tuple(sorted(t)) for t in triples})


def _add_block(triples, size, stride):
    parts = [(a * stride, b * stride, (size - a - b) * stride) for a in range(size + 1) for b in range(size + 1 - a)]
    return ((x + a, y + b, z + c) for x, y, z in triples for a, b, c in parts)


class Network:
    """Backtracking with queue-based candidate propagation over the 3-partition constraints of `blocks`."""

    def __init__(self, blocks: tuple[int, ...], branch_order, allowed):
        self.ncells = math.prod(size + 1 for size in blocks)
        self.k = len(allowed)
        self.full = (1 << self.k) - 1
        self.branch_order = branch_order
        self.allowed = allowed
        self.watch: list[list[tuple[int, int]]] = [[] for _ in range(self.ncells)]
        for a, b, c in _partition_triples(blocks):
            self.watch[a].append((b, c))
            self.watch[b].append((a, c))
            self.watch[c].append((a, b))
        self.nodes = 0

    def propagate_from(self, cand, val, queue, on_narrow=None) -> bool:
        """Narrow candidates from the queued assigned cells; False on an emptied cell.

        Cells are popped last in, first out.  When `on_narrow` is given it is
        called as on_narrow(cell, removed, triple) each time a cell's mask
        shrinks, before `cand` and `val` change: `removed` is the mask of
        colors taken away and `triple` the narrowing constraint's cells in
        ascending order.  The narrowing that empties a cell is reported too.
        """
        allowed = self.allowed
        while queue:
            cell = queue.pop()
            v = val[cell]
            for o1, o2 in self.watch[cell]:
                v1 = val[o1]
                if v1 >= 0:
                    new = cand[o2] & allowed[v][v1]
                    if new != cand[o2]:
                        if on_narrow is not None:
                            on_narrow(o2, cand[o2] & ~new, tuple(sorted((cell, o1, o2))))
                        if not new:
                            return False
                        cand[o2] = new
                        if new & (new - 1) == 0 and val[o2] < 0:
                            val[o2] = new.bit_length() - 1
                            queue.append(o2)
                v2 = val[o2]
                if v2 >= 0:
                    new = cand[o1] & allowed[v][v2]
                    if new != cand[o1]:
                        if on_narrow is not None:
                            on_narrow(o1, cand[o1] & ~new, tuple(sorted((cell, o1, o2))))
                        if not new:
                            return False
                        cand[o1] = new
                        if new & (new - 1) == 0 and val[o1] < 0:
                            val[o1] = new.bit_length() - 1
                            queue.append(o1)
        return True

    def seeded(self, seed: dict[int, int]):
        """Masks, values and propagation queue with the seed cells assigned, in seed order."""
        cand = [self.full] * self.ncells
        val = [-1] * self.ncells
        for cell, v in seed.items():
            cand[cell] = 1 << v
            val[cell] = v
        return cand, val, list(seed)

    def solutions(self, seed: dict[int, int], first_colors, deadline):
        """Yield every solution; the stack holds (cand, val, branch position, remaining colors) frames.

        The first branched cell tries only `first_colors` when it is given and
        nothing is seeded; every other cell tries the colors 0..k-1 in order.
        """
        cand, val, queue = self.seeded(seed)
        self.nodes = 1
        if not self.propagate_from(cand, val, queue):
            return
        colors = first_colors if (first_colors is not None and not seed) else range(self.k)
        order = self.branch_order
        stack = []
        start = 0  # every cell before this position in the branch order is assigned
        while True:
            # expand the node (cand, val) at its first unassigned cell
            for i in range(start, len(order)):
                if val[order[i]] < 0:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeBudgetExceeded(f"search ran past its time budget after {self.nodes} nodes")
                    stack.append((cand, val, i, iter(colors)))
                    colors = range(self.k)
                    break
            else:
                yield val
            # descend into the next child whose propagation succeeds, backtracking as needed
            cand = None
            while cand is None:
                if not stack:
                    return
                parent_cand, parent_val, start, remaining = stack[-1]
                cell = order[start]
                for v in remaining:
                    if not parent_cand[cell] >> v & 1:
                        continue
                    self.nodes += 1
                    cand2 = list(parent_cand)
                    val2 = list(parent_val)
                    cand2[cell] = 1 << v
                    val2[cell] = v
                    if self.propagate_from(cand2, val2, [cell]):
                        cand, val = cand2, val2
                        break
                else:
                    stack.pop()
