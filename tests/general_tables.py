"""Tables over any source domain and the column-wise polymorphism test: the oracle for the partition test.

`is_polymorphism` checks a Boolean table of the exactly-one-1 source by
walking the ordered 3-partitions of its coordinates.  `is_polymorphism_general`
applies the table to every choice of n source tuples, column by column, and
shares no code with it; the tests require both to agree.
"""

import itertools
from dataclasses import dataclass

from pcsplab.polymorphisms import PolyTable
from pcsplab.structures import TemplatePair


@dataclass(frozen=True)
class GeneralTable:
    """A total table over source_size**arity argument tuples.

    The index of (a_1, ..., a_n) is sum a_i * source_size**(i-1).
    """

    arity: int
    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if len(self.values) != self.source_size ** self.arity:
            raise ValueError("table has the wrong number of entries")
        for v in self.values:
            if not 0 <= v < self.target_size:
                raise ValueError(f"value {v} outside target domain")

    def value_at(self, args) -> int:
        idx = 0
        for i, a in enumerate(args):
            idx += a * self.source_size ** i
        return self.values[idx]


def boolean_to_general(table: PolyTable) -> GeneralTable:
    return GeneralTable(table.arity, 2, table.target_size, table.values)


def is_polymorphism_general(table: GeneralTable, template: TemplatePair) -> bool:
    """Column-wise test over all choices of n source tuples, per relation pair."""
    if table.source_size != template.source.domain_size:
        raise ValueError("table source size does not match template source")
    if table.target_size != template.target.domain_size:
        raise ValueError("table target size does not match template target")
    for rel_a, rel_b in zip(template.source.relations, template.target.relations):
        allowed = rel_b.as_set
        for rows in itertools.product(rel_a.tuples, repeat=table.arity):
            image = tuple(
                table.value_at(tuple(rows[j][pos] for j in range(table.arity)))
                for pos in range(rel_a.arity)
            )
            if image not in allowed:
                return False
    return True
