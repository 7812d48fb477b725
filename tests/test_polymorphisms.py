import hashlib
import inspect
import itertools
import math
import random
import time
import tracemalloc
import warnings

import pytest

from general_tables import GeneralTable, boolean_to_general, is_polymorphism_general

from pcsplab.errors import FormatError
from pcsplab.polymorphisms import (
    ORBIT_BLOCK,
    BlockTable,
    MinorMap,
    _partitions_map_into,
    alternating_threshold,
    dictator,
    enumerate_orbits,
    enumerate_polymorphisms,
    format_poly_table,
    is_polymorphism,
    one_in_three_target,
    orbit_permutations,
    parse_poly_table,
    subset_masks,
)
from pcsplab.structures import TemplatePair, make_structure, named_template
from pcsplab.symmetric import BlockSymTable, SymTable, search_block_symmetric, search_symmetric


def pair(src, tgt):
    return TemplatePair(named_template(src), named_template(tgt))


def naive_polymorphisms(target, n):
    """Oracle: filter every |B|**(2**n) table by the ordered-partition test."""
    rel = target.single_ternary().as_set
    k = target.domain_size
    full = (1 << n) - 1
    out = set()
    for values in itertools.product(range(k), repeat=1 << n):
        ok = True
        for x in range(1 << n):
            rest = full ^ x
            y = rest
            while ok:
                if (values[x], values[y], values[rest ^ y]) not in rel:
                    ok = False
                if y == 0:
                    break
                y = (y - 1) & rest
            if not ok:
                break
        if ok:
            out.add(values)
    return out


def test_canonical_subset_order():
    assert subset_masks(3) == (0, 1, 2, 4, 3, 5, 6, 7)
    order4 = subset_masks(4)
    # {1,4} (mask 9) precedes {2,3} (mask 6) under element-wise ordering
    assert order4.index(9) < order4.index(6)
    assert order4[:5] == (0, 1, 2, 4, 8)


def test_subset_masks_match_the_per_index_sum():
    for n in range(13):
        expected = tuple(sum(1 << i for i in c) for j in range(n + 1) for c in itertools.combinations(range(n), j))
        assert subset_masks(n) == expected


def test_is_polymorphism_examples():
    assert is_polymorphism(dictator(3, 1), named_template("1in3"))
    assert is_polymorphism(alternating_threshold(), named_template("NAE"))
    constant0 = BlockTable((1, 1, 1), 2, (0,) * 8)
    assert not is_polymorphism(constant0, named_template("1in3"))


def test_is_polymorphism_requires_one_in_three_source():
    with pytest.raises(ValueError):
        one_in_three_target(pair("NAE", "NAE"))


def test_general_checker_unary_identity():
    for name in ("1in3", "T2", "CH"):
        s = named_template(name)
        table = GeneralTable(1, s.domain_size, s.domain_size, tuple(range(s.domain_size)))
        assert is_polymorphism_general(table, TemplatePair(s, s))


def test_general_table_rejects_arity_zero():
    with pytest.raises(ValueError):
        GeneralTable(0, 2, 2, (0,))
    with pytest.raises(ValueError):
        BlockTable((), 2, (0,))


def test_poly_table_rejects_values_outside_target():
    with pytest.raises(ValueError, match="value 2 outside target domain"):
        BlockTable((1, 1), 2, (0, 1, 2, 0))
    with pytest.raises(ValueError, match="value -1 outside target domain"):
        BlockTable((1,), 3, (-1, 0))
    with pytest.raises(TypeError):
        BlockTable((1,), 2, (0, "1"))
    assert BlockTable((1,), 2, (True, 0)).values == (True, 0)


def test_block_table_reads_cells_in_mixed_radix():
    # itertools.product lists the weight vectors with the last block fastest, so its position is the
    # mixed-radix index; every malformed weight vector, block or length is refused
    rng = random.Random(41)
    for _ in range(200):
        blocks = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        k = rng.randint(2, 4)
        cells = list(itertools.product(*(range(size + 1) for size in blocks)))
        values = tuple(rng.randrange(k) for _ in cells)
        table = BlockTable(blocks, k, values)
        assert table.arity == sum(blocks)
        assert [table.value(*weights) for weights in cells] == list(values)
        weights = list(rng.choice(cells))
        for wrong_count in (weights[:-1], weights + [0]):
            with pytest.raises(ValueError, match="outside"):
                table.value(*wrong_count)
        j = rng.randrange(len(blocks))
        for bad in (-1, blocks[j] + 1):
            with pytest.raises(ValueError, match="outside"):
                table.value(*weights[:j], bad, *weights[j + 1 :])
        with pytest.raises(ValueError, match="block sizes must be >= 1"):
            BlockTable(blocks[:j] + (0,) + blocks[j + 1 :], k, values[: len(values) // (blocks[j] + 1)])
        for wrong_length in (values[:-1], values + (0,)):
            with pytest.raises(ValueError, match=f"expected {len(values)} entries"):
                BlockTable(blocks, k, wrong_length)
        if len(blocks) == 1:
            assert SymTable(*blocks, k, values) == table
        elif len(blocks) == 2:
            assert BlockSymTable(*blocks, k, values) == table


def test_checker_agreement_exhaustive():
    # partition test vs column-wise definition on every table of arity <= 3
    for name in ("T1", "D2plus"):
        template = pair("1in3", name)  # the general test takes a pair
        k = template.target.domain_size
        for n in (1, 2, 3):
            for values in itertools.product(range(k), repeat=1 << n):
                table = BlockTable((1,) * n, k, values)
                assert is_polymorphism(table, template.target) == is_polymorphism_general(
                    boolean_to_general(table), template
                )


@pytest.mark.parametrize("target", ["NAE", "T2", "CHplus", "LO_3"])
def test_checker_agrees_with_general_test_on_repeated_rows(target):
    # arity 4 to 6 from one to three colours, so the checker's unit-block value rows repeat and it skips
    # row triples it has met; a dictator with one or two entries changed fails only deep in the walk
    template = pair("1in3", target)  # the general test takes a pair
    k = template.target.domain_size
    rng = random.Random(target)
    verdicts = []
    for _ in range(100):
        n = rng.randint(4, 6)
        if rng.random() < 0.3:
            colors = rng.sample(range(k), rng.randint(1, min(3, k)))
            values = tuple(rng.choice(colors) for _ in range(1 << n))
        else:
            values = list(dictator(n, rng.randint(1, n), k).values)
            for mask in rng.sample(range(1 << n), rng.randint(0, 2)):
                values[mask] = rng.choice([v for v in range(k) if v != values[mask]])
            values = tuple(values)
        table = BlockTable((1,) * n, k, values)
        got = is_polymorphism(table, template.target)
        assert got == is_polymorphism_general(boolean_to_general(table), template), (n, values)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


class CountingRelation(frozenset):
    """A relation that counts its issuperset calls: one per chunk the checker tests."""

    calls = 0

    def issuperset(self, other):
        self.calls += 1
        return super().issuperset(other)


def test_block_checker_tests_each_row_triple_once():
    target = named_template("NAE")
    values = search_block_symmetric(target, 31, 30).table.values
    rel = CountingRelation(target.single_ternary().as_set)
    assert _partitions_map_into((31, 30), values, rel)
    # the head prefixes are the compositions (a, b, c) of the first block, each fixing three rows of 31 values
    rows = [values[w * 31 : w * 31 + 31] for w in range(32)]
    prefixes = [(a, b, 31 - a - b) for a in range(32) for b in range(32 - a)]
    assert len(prefixes) == 528
    assert rel.calls == len({(rows[a], rows[b], rows[c]) for a, b, c in prefixes}) == 6
    # zeros on the rows of the first prefix, (0, 0, 31), fail it, and the checker stops at that first chunk
    broken = (0,) * 31 + values[31:-31] + (0,) * 31
    rel = CountingRelation(target.single_ternary().as_set)
    assert not _partitions_map_into((31, 30), broken, rel)
    assert rel.calls == 1


@pytest.mark.parametrize("case", ["dictator-1", "dictator-16", "T2-symmetric"])
def test_unit_block_checker_scales_to_arity_16(case):
    # 3**15 head prefixes but few distinct sub-tables: the checker tests each distinct triple of value rows once,
    # and a value row is (0, 1) everywhere for the first dictator, (0, 0) or (1, 1) for the last one, and fixed
    # by its prefix's weight for a symmetric table
    if case == "T2-symmetric":
        target = named_template("T2")
        weights = search_symmetric(target, 16).table.values
        values = tuple(weights[mask.bit_count()] for mask in range(1 << 16))
        rows = [weights[w : w + 2] for w in range(16)]
        triples = len({(rows[a], rows[b], rows[15 - a - b]) for a in range(16) for b in range(16 - a)})
    else:
        target = named_template("NAE")
        values = dictator(16, int(case[9:])).values
        triples = 1 if case == "dictator-1" else 3
    start = time.perf_counter()
    assert is_polymorphism(BlockTable((1,) * 16, target.domain_size, values), target)
    assert time.perf_counter() - start < 2
    rel = CountingRelation(target.single_ternary().as_set)
    assert _partitions_map_into((1,) * 16, values, rel)
    assert rel.calls == triples


def test_checker_reads_the_last_block_one_part_at_a_time():
    # index columns over the r(r+1)/2 compositions of this table's one block took 8.33 MB
    target = named_template("T2")
    table = search_symmetric(target, 601).table
    tracemalloc.start()
    try:
        holds = is_polymorphism(table, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and peak < 2**20


def test_pull_masks_are_preimages():
    # verify_selector reads these tables as minors and selection images; the oracle
    # scans the mapping directly, over every map up to the default arity cap
    for n in range(1, 6):
        for m in range(1, 6):
            for mapping in itertools.product(range(1, m + 1), repeat=n):
                alpha = MinorMap(n, m, mapping)
                pull, push = alpha.pull(), alpha.push()
                assert len(pull) == 1 << m and len(push) == 1 << n
                for x in range(1 << m):
                    preimage = sum(1 << i for i, v in enumerate(mapping) if x >> (v - 1) & 1)
                    assert pull[x] == preimage, (mapping, x)
                for x in range(1 << n):
                    image = 0
                    for i, v in enumerate(mapping):
                        if x >> i & 1:
                            image |= 1 << (v - 1)
                    assert push[x] == image, (mapping, x)


def test_orbit_permutations_rename_coordinates():
    for n in range(1, 8):
        moved = min(n, ORBIT_BLOCK)
        tables = orbit_permutations(n)
        perms = [perm + tuple(range(moved, n)) for perm in itertools.permutations(range(moved))]
        assert len(tables) == len(perms) == math.factorial(moved)
        for perm, img in zip(perms, tables):
            assert img == tuple(sum(1 << perm[i] for i in range(n) if x >> i & 1) for x in range(1 << n)), (n, perm)
    # the tables share one int object per mask
    tables = orbit_permutations(9)
    assert len({id(v) for table in tables for v in table}) == 512


def test_enumerate_unary_one_in_three():
    assert inspect.isgeneratorfunction(enumerate_polymorphisms)
    assert list(enumerate_polymorphisms(named_template("1in3"), 1)) == [(0, 1)]


def test_enumerate_includes_at3_and_dictators():
    found = set(enumerate_polymorphisms(named_template("NAE"), 3))
    assert alternating_threshold().values in found
    for i in (1, 2, 3):
        assert dictator(3, i).values in found


def test_enumerate_unconstrained_target():
    full = make_structure(2, [set(itertools.product(range(2), repeat=3))])
    assert sum(1 for _ in enumerate_polymorphisms(full, 2)) == 2 ** 4


def test_enumerate_matches_naive_counts():
    target = named_template("T2")
    expected = [3, 9, 27]  # brute-force filter counts at arities 1..3
    for n, count in zip((1, 2, 3), expected):
        stream = list(enumerate_polymorphisms(target, n))
        assert len(stream) == count
        assert len(set(stream)) == count
        assert set(stream) == naive_polymorphisms(named_template("T2"), n)


def test_enumeration_canonical_stream_order():
    order = subset_masks(3)
    keys = [tuple(values[m] for m in order) for values in enumerate_polymorphisms(named_template("D2plus"), 3)]
    assert keys == sorted(keys)


def test_enumerated_minors_stay_polymorphisms():
    rng = random.Random(47)
    target = named_template("D2plus")
    tables = [BlockTable((1, 1, 1), 3, values) for values in enumerate_polymorphisms(target, 3)]
    for f in rng.sample(tables, 20):
        m = rng.randint(1, 3)
        alpha = MinorMap(3, m, tuple(rng.randint(1, m) for _ in range(3)))
        g = BlockTable((1,) * m, 3, tuple(f.values[p] for p in alpha.pull()))
        assert is_polymorphism(g, target)


def test_enumerate_non_symmetric_target_matches_brute_force():
    # a table value triple must fit the relation in every order, not in some order
    target = make_structure(3, [{(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 1)}])
    for n in (1, 2, 3):
        order = subset_masks(n)
        brute = []
        for row in itertools.product(range(3), repeat=1 << n):
            values = [0] * (1 << n)
            for mask, v in zip(order, row):
                values[mask] = v
            table = BlockTable((1,) * n, 3, tuple(values))
            if is_polymorphism(table, target):
                brute.append(table.values)
        assert list(enumerate_polymorphisms(target, n)) == brute, n


# count and SHA-256 of `poly enumerate` stdout (one line of values along the
# canonical subset order per table): the stream order drives counterexample
# order and the selectors' lexicographically first picks
STREAM_PINS = [
    ("T1", 4, 1118, "10c75921076c83b954fec3d04f4325b945c61ddf9acb84f1615e6f882c189e06"),
    ("D2plus", 4, 1136, "4e58fd69f25232748c42b72cc7e2cdb69c4dd33fa61b56ac2c6e8c439ab47de4"),
    ("CH", 4, 40, "785ced6dc44b518315a125999568368a3676bf55fe2da7c20cb5bdfc0bd62b16"),
    ("D1plus", 4, 14080, "d2d6ae10508eac9cce69069acc7298a3aec8464eaca5fabf10386127a138f35b"),
    ("CH", 5, 60, "382318fad2142bb1a703154e19d837a15fd9308b74bf5ab278392b8a308f6e97"),
]


@pytest.mark.parametrize("name, n, count, digest", STREAM_PINS)
def test_enumeration_stream_pinned(name, n, count, digest):
    order = subset_masks(n)
    sha = hashlib.sha256()
    seen = 0
    for values in enumerate_polymorphisms(named_template(name), n):
        sha.update(("".join(str(values[m]) for m in order) + "\n").encode())
        seen += 1
    assert (seen, sha.hexdigest()) == (count, digest)


def test_enumerate_takes_any_arity():
    # the arity cap and its notice belong to the command line: the library takes arity 6 with no flag, silently
    for enumerate_tables in (enumerate_polymorphisms, enumerate_orbits):
        assert list(inspect.signature(enumerate_tables).parameters) == ["target", "n", "deadline"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = next(enumerate_tables(named_template("1in3"), 6))
        assert not caught, enumerate_tables
        values = first if enumerate_tables is enumerate_polymorphisms else first[0]
        assert is_polymorphism(BlockTable((1,) * 6, 2, values), named_template("1in3"))


def test_table_text_round_trip():
    for table in (alternating_threshold(), dictator(4, 2, 3)):
        assert parse_poly_table(format_poly_table(table)) == table


def test_table_text_errors():
    with pytest.raises(FormatError):
        parse_poly_table("poly 2 2\n00 0\n01 1\n")  # missing rows
    with pytest.raises(FormatError):
        parse_poly_table("00 0\n")
    good = format_poly_table(dictator(2, 1))
    with pytest.raises(FormatError):
        parse_poly_table(good.replace("10 1", "10 9"))


def test_table_text_duplicate_after_negative_value():
    # a negative value must not hide the duplicate row that follows it
    with pytest.raises(FormatError, match="line 3: duplicate subset '0'"):
        parse_poly_table("poly 1 2\n0 -1\n0 0\n")
