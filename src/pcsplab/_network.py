"""The propagation engine shared by the polymorphism searches and enumeration.

A network has cells 0..ncells-1 that each take a color below k, and triple
constraints on cells: the colors of a triple's cells must map into the
target relation in every order.  `allowed_table` gives, per color pair, the
mask of colors that complete it.  Search is depth-first over a fixed branch
order with ascending colors; after each assignment, every triple with two
assigned cells narrows the candidate mask of its third cell, and a cell left
with one candidate is assigned and propagates in turn.  Narrowing only
removes colors that no solution can use, so solutions come out in
lexicographic order along the branch order.
"""

from __future__ import annotations

import itertools
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


class Network:
    """Backtracking with queue-based candidate propagation over cell triples."""

    def __init__(self, ncells: int, ncolors: int, triples, branch_order, allowed):
        self.ncells = ncells
        self.k = ncolors
        self.full = (1 << ncolors) - 1
        self.branch_order = branch_order
        self.allowed = allowed
        self.watch: list[list[tuple[int, int]]] = [[] for _ in range(ncells)]
        for a, b, c in triples:
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
