"""The propagation engine shared by the polymorphism searches and enumeration.

A network is cells, each to take one of k colors, ternary constraints and
their table, and no more: each search is given its branch order.  A
constraint is a sorted cell triple (a, b, c), a <= b <= c, in which a cell
may repeat; `allowed[x][y]` is the mask of colors v such that the colors
(x, y, v) satisfy it.  The table is symmetric in all three positions, so
every constraint is the same whichever order its cells are read in, and one
table serves them all.  The network takes its constraints as `partners`, per
cell w a list of cells and a slice s: the pairs zip(cells, cells[s]) are the
other two cells (u, v) of each constraint through w, u <= v, one pair per
constraint and the constraints in ascending order of their triples.  From
pair lists us and vs, cells is us + vs[::-1] and s is slice(len(cells) - 1,
len(us) - 1, -1); zip stops at the slice's end, so cells may run on past the
pairs, and many cells can share one list.  The network keeps the lists as
they are, and a scan copies only its slice.  It also takes `repeated`, the
ascending triples that repeat a cell, from which it builds twin tables.  The
engine knows nothing of where the cells and constraints come from:
`polymorphisms` derives them from coordinate blocks and owns that layout.

The state of a search is one candidate mask per cell; a cell is assigned
when its mask is a singleton.  Propagation pops a cell and narrows the other
two cells of each of its constraints through a support row: row[m] is the
mask of colors that the popped cell's mask and the mask m can complete.
Two kinds of rows exist, each built on first use of a mask pair:

- `support` ORs `allowed` over every color pair of the two masks.  It
  treats the two positions of a repeated cell as independent, so it also
  carries twin tables that are exact on the constraints that repeat a cell:
  (a, a, c) is a binary constraint, x on a and z on c go together iff z is
  in allowed[x][x], and (a, a, a) is unary, x stays iff x is in
  allowed[x][x].  Search and enumeration use `support` from a root that
  queues every cell, so each node is propagated to full (generalised) arc
  consistency: every candidate of every cell has a completing assignment of
  the other cells in each of its constraints, a repeated cell taking one
  color.
- `forward` is `allowed` when both masks are singletons and every color
  otherwise, which is forward checking: a constraint with two assigned
  cells narrows the third.  Propagation traces use it.

Rows are monotone in both masks.  So when a set of rows is inert,
rows[full][1 << y] full for every color y, the row of a full mask keeps
every candidate of every nonempty mask, and a popped cell whose mask is full
skips its partner lists: it can narrow nothing there.  Its twin tables are
still applied.  Each network computes the flag once per row set, as
`support.inert` and `forward.inert`.

Search is depth-first over the branch order it is given, ascending colors.
Narrowing only removes colors that no solution can use, so solutions come
out in lexicographic order along the branch order, whichever rows narrow.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_

from .errors import TimeBudgetExceeded, expired


class _Lazy(dict):
    """A dict that builds a missing entry as make(key) and keeps it."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _rows(k: int, entry):
    """rows[m1][m2] = entry(m1, m2) over k-color masks, each row built on the first lookup of its m1.

    With at most 8 colors a row is a list over every m2 (at most 256
    entries), the fastest lookup; with more, a row is a dict filled on
    lookup, so memory follows the mask pairs that occur instead of 4**k.
    """
    if k <= 8:
        return _Lazy(lambda m1: [entry(m1, m2) for m2 in range(1 << k)])
    return _Lazy(lambda m1: _Lazy(lambda m2: entry(m1, m2)))


class Network:
    """Depth-first search over candidate masks, arc consistent at every node, over per-cell partner slices."""

    def __init__(self, partners, repeated, allowed):
        self.ncells = ncells = len(partners)
        if ncells < 2:
            raise ValueError(f"a network needs at least two cells, got {ncells}")
        self.k = k = len(allowed)
        self.full = full = (1 << k) - 1
        self.partners = partners
        # twins[cell] holds (other, table, triple) per constraint that repeats a cell;
        # other's mask narrows to table[cand[cell]]
        diagonal = [allowed[x][x] for x in range(k)]
        loops = sum(1 << x for x in range(k) if diagonal[x] >> x & 1)
        same = _Lazy(lambda m: sum(1 << x for x in range(k) if diagonal[x] & m))
        once = _Lazy(lambda m: reduce(or_, [diagonal[x] for x in range(k) if m >> x & 1], 0))
        unary = _Lazy(lambda m: loops)
        twins: list[tuple] = [()] * ncells
        for triple in repeated:
            a, b, c = triple
            if a == c:
                twins[a] += ((a, unary, triple),)
            else:
                pair, odd = (a, c) if a == b else (c, a)
                twins[pair] += ((odd, once, triple),)
                twins[odd] += ((pair, same, triple),)
        self.nodes = 0

        # the row builders close over locals only, so a network is freed as soon as it is dropped
        def colors(mask):
            return [v for v in range(k) if mask >> v & 1]

        def pair_support(m1, m2):
            mask = 0
            for x in colors(m1):
                for y in colors(m2):
                    mask |= allowed[x][y]
            return mask

        def pair_forward(m1, m2):
            if m1 & (m1 - 1) or m2 & (m2 - 1):
                return full
            return allowed[m1.bit_length() - 1][m2.bit_length() - 1]

        self.support = _rows(k, pair_support)
        self.support.twins = twins
        self.forward = _rows(k, pair_forward)
        self.forward.twins = [()] * ncells
        for rows, entry in (self.support, pair_support), (self.forward, pair_forward):
            rows.inert = all(entry(full, 1 << y) == full for y in range(k))  # read off k entries, no row built

    def propagate_from(self, cand, queue, rows, on_narrow=None) -> bool:
        """Narrow candidates from the queued cells through `rows`; False on an emptied cell.

        Cells are popped last in, first out, and every narrowed cell is
        pushed.  When `on_narrow` is given it is called as
        on_narrow(cell, removed, triple) each time a cell's mask shrinks,
        before `cand` changes: `removed` is the mask of colors taken away and
        `triple` the narrowing constraint's cells in ascending order.  The
        narrowing that empties a cell is reported too.
        """
        partners = self.partners
        twins = rows.twins
        skip = self.full if rows.inert else None
        while queue:
            cell = queue.pop()
            if cand[cell] != skip:
                row = rows[cand[cell]]
                cells, s = partners[cell]
                for o1, o2 in zip(cells, cells[s]):
                    m1 = cand[o1]
                    m2 = cand[o2]
                    new = m2 & row[m1]
                    if new != m2:
                        if on_narrow is not None:
                            on_narrow(o2, m2 & ~new, tuple(sorted((cell, o1, o2))))
                        if not new:
                            return False
                        cand[o2] = m2 = new
                        queue.append(o2)
                        m1 = cand[o1]  # o1 is o2 when the triple repeats a cell
                    new = m1 & row[m2]
                    if new != m1:
                        if on_narrow is not None:
                            on_narrow(o1, m1 & ~new, tuple(sorted((cell, o1, o2))))
                        if not new:
                            return False
                        cand[o1] = new
                        queue.append(o1)
            for other, table, triple in twins[cell]:
                m = cand[other]
                new = m & table[cand[cell]]
                if new != m:
                    if on_narrow is not None:
                        on_narrow(other, m & ~new, triple)
                    if not new:
                        return False
                    cand[other] = new
                    queue.append(other)
        return True

    def solutions(self, branch_order, first_colors, deadline, prune=None):
        """Yield the value tuple of every solution; the stack holds (cand, branch position, remaining colors) frames.

        Cells are branched on in `branch_order`, which lists every cell once,
        and `nodes` counts this search's nodes.  The first branched cell
        tries only `first_colors` when it is given; every other cell tries
        its candidates in ascending order.  When `prune` is given it is
        called as prune(cand, start, stop) on every node to be expanded and
        on every solution, after the deadline check: the cells at branch
        positions below `stop` are assigned, and those below `start` were
        already assigned at the node's parent (0 at the root).  A true result
        cuts the node.  The deadline is checked at every node, a solution
        included, so a propagation that outlasts it stops the search at the
        node it reaches.
        """
        cand = [self.full] * self.ncells
        self.nodes = 1
        support = self.support
        if not self.propagate_from(cand, list(range(self.ncells)), support):
            return
        color_of = {1 << v: v for v in range(self.k)}
        colors = range(self.k) if first_colors is None else first_colors
        stack = []
        start = 0  # every cell before this position in the branch order is assigned
        while True:
            if expired(deadline):
                raise TimeBudgetExceeded(f"search ran past its time budget after {self.nodes} nodes")
            # expand the node at its first unassigned cell
            for i in range(start, len(branch_order)):
                mask = cand[branch_order[i]]
                if mask & (mask - 1):
                    if prune is None or not prune(cand, start, i):
                        stack.append((cand, i, iter(colors)))
                    colors = range(self.k)
                    break
            else:
                if prune is None or not prune(cand, start, len(branch_order)):
                    yield itemgetter(*cand)(color_of)  # a tuple, since a network has at least two cells
            # descend into the next child whose propagation succeeds, backtracking as needed
            cand = None
            while cand is None:
                if not stack:
                    return
                parent, start, remaining = stack[-1]
                cell = branch_order[start]
                for v in remaining:
                    if not parent[cell] >> v & 1:
                        continue
                    self.nodes += 1
                    child = list(parent)
                    child[cell] = 1 << v
                    if self.propagate_from(child, [cell], support):
                        cand = child
                        break
                else:
                    stack.pop()
