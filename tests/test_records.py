"""The records are immutable values: equal fields make equal, hashable records with a readable repr.

A record that checks or normalises its fields does so on every construction path: the constructor, `_make`
and `_replace`.
"""

import itertools
import random

import pytest

from pcsplab.homs import HomClass, HomLattice, HomMap
from pcsplab.polymorphisms import BlockTable, MinorMap
from pcsplab.properties import (
    Counterexample,
    KneserGraph,
    PropertyReport,
    PropertySpec,
    SelectorReport,
    SelectorSpec,
)
from pcsplab.solvers import Instance
from pcsplab.structures import Digraph, Relation, RelStructure, TemplatePair, named_template
from pcsplab.symmetric import (
    ContradictionEvent,
    ForceEvent,
    ForcingCertificate,
    PropagationTrace,
    SearchResult,
)

ONE_IN_THREE = Relation(3, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
STRUCTURE = RelStructure(2, (ONE_IN_THREE,))
TABLE = BlockTable((1, 1), 2, (0, 1, 0, 1))
FORCE = ForceEvent(8, 0, (6, 8, 9))
TRACE = PropagationTrace((FORCE, ContradictionEvent(6, ((0, (6, 8, 9)),))))

# (class, fields in order, their values, one field with another valid value)
RECORDS = [
    (Relation, ("arity", "tuples"), (2, ((0, 1), (1, 0))), ("tuples", ((0, 1),))),
    (RelStructure, ("domain_size", "relations"), (2, (ONE_IN_THREE,)), ("domain_size", 3)),
    (TemplatePair, ("source", "target"), (STRUCTURE, STRUCTURE), ("target", named_template("NAE"))),
    (Digraph, ("vertex_count", "arcs"), (2, frozenset({(0, 1)})), ("arcs", frozenset({(1, 0)}))),
    (HomMap, ("source_size", "target_size", "assignment"), (2, 3, (0, 2)), ("assignment", (2, 0))),
    (HomClass, ("members", "representative"), ((STRUCTURE,), STRUCTURE), ("members", ())),
    (HomLattice, ("classes", "cover_edges"), ((HomClass((STRUCTURE,), STRUCTURE),), frozenset()), ("classes", ())),
    (BlockTable, ("blocks", "target_size", "values"), ((1, 1), 2, (0, 1, 0, 1)), ("target_size", 3)),
    (MinorMap, ("source_arity", "target_arity", "mapping"), (3, 2, (1, 2, 1)), ("mapping", (2, 1, 1))),
    (PropertySpec, ("property_id", "template_name", "description", "predicate"), ("P", "T1", "none", len), ("predicate", bool)),
    (Counterexample, ("arity", "table", "witness"), (2, TABLE, (1, 2)), ("witness", ())),
    (
        PropertyReport,
        ("template_label", "property_id", "max_arity", "examined", "counterexamples", "elapsed_ms"),
        ("T1", "T1_parity", 4, 328, (), 1.5),
        ("examined", 327),
    ),
    (KneserGraph, ("n", "m", "vertices", "adjacency"), (2, 1, ((1,), (2,)), ((1,), (0,))), ("adjacency", ((), ()))),
    (
        SelectorReport,
        (
            "selector",
            "max_arity",
            "chain_length",
            "states_explored",
            "violations",
            "totality_failures",
            "bound_failures",
            "elapsed_ms",
        ),
        ("SEL_CH", 4, 5, 3588, (), (), (), 12.5),
        ("states_explored", 3587),
    ),
    (
        SelectorSpec,
        ("name", "k", "l", "template_name", "description", "rule"),
        ("SEL_CH", 2, 5, "CH", "small set", len),
        ("rule", bool),
    ),
    (Instance, ("variable_count", "edges"), (3, ((1, 2, 3),)), ("edges", ((3, 2, 1),))),
    (ForceEvent, ("cell", "color", "triple"), (8, 0, (6, 8, 9)), ("color", 1)),
    (ContradictionEvent, ("cell", "eliminations"), (6, ((0, (6, 8, 9)),)), ("cell", 7)),
    (PropagationTrace, ("events",), ((FORCE,),), ("events", ())),
    (SearchResult, ("table", "nodes"), (TABLE, 4), ("table", None)),
    (
        ForcingCertificate,
        ("arity", "seed_weight", "seed_color", "forced", "contradiction_weight", "refutations", "automorphism_transitive"),
        (23, 8, 0, (FORCE,), 6, ((0, TRACE),), True),
        ("automorphism_transitive", False),
    ),
]


@pytest.mark.parametrize("cls, fields, values, change", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_is_an_immutable_value(cls, fields, values, change):
    record = cls(*values)
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    assert cls(**dict(zip(fields, values))) == record
    name, other = change
    assert cls(**{**dict(zip(fields, values)), name: other}) != record
    for field, value in zip(fields, values):
        assert getattr(record, field) == value
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{field}={value!r}" for field, value in zip(fields, values)) + ")"


# (class, valid fields in order, one field and an invalid value for it) for each record whose __new__ checks
CHECKED = [
    (Relation, (2, ((0, 1),)), ("tuples", ((0, 1, 2),))),
    (RelStructure, (2, (ONE_IN_THREE,)), ("domain_size", 1)),
    (TemplatePair, (named_template("NAE"), named_template("NAE")), ("target", named_template("1in3"))),
    (Digraph, (2, frozenset({(0, 1)})), ("arcs", frozenset({(0, 2)}))),
    (HomMap, (2, 3, (0, 2)), ("assignment", (0, 3))),
    (BlockTable, ((1, 1), 2, (0, 1, 0, 1)), ("values", (0, 1, 0, 2))),
    (MinorMap, (3, 2, (1, 2, 1)), ("mapping", (1, 2, 3))),
    (Instance, (3, ((1, 2, 3),)), ("edges", ((1, 2, 4),))),
]


@pytest.mark.parametrize("cls, values, bad", CHECKED, ids=[case[0].__name__ for case in CHECKED])
def test_every_construction_path_checks_the_fields(cls, values, bad):
    record = cls(*values)
    made = cls._make(values)
    assert made == record and type(made) is cls and type(record._replace()) is cls
    name, value = bad
    fields = {**record._asdict(), name: value}
    for build in (lambda: cls(**fields), lambda: cls._make(fields.values()), lambda: record._replace(**{name: value})):
        with pytest.raises(ValueError):
            build()


def test_relation_replace_sorts_and_deduplicates():
    unsorted = ((1, 0, 0), (0, 0, 1), (1, 0, 0))
    relation = ONE_IN_THREE._replace(tuples=unsorted)
    assert relation.tuples == ((0, 0, 1), (1, 0, 0))
    assert Relation._make((3, unsorted)) == relation == Relation(3, unsorted)
    # shuffled, repeated and sorted input give one normal form
    rng = random.Random(52)
    for _ in range(50):
        arity = rng.randint(1, 4)
        chosen = rng.sample(list(itertools.product(range(3), repeat=arity)), rng.randint(1, 3**arity))
        expected = tuple(sorted(chosen))
        repeated = chosen + rng.choices(chosen, k=len(chosen))
        rng.shuffle(repeated)
        for tuples in (chosen, repeated, sorted(repeated), expected, set(chosen)):
            assert Relation(arity, tuples).tuples == expected
