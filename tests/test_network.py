import hashlib
import warnings

import pytest

from pcsplab._network import Network
from pcsplab.polymorphisms import enumerate_polymorphisms
from pcsplab.structures import NAMED_TEMPLATES, TemplatePair, named_template
from pcsplab.symmetric import search_block_symmetric, search_symmetric


def partition_triples(blocks):
    """Sorted cell triples of every ordered 3-partition of the coordinates, deduplicated.

    Coordinates are numbered block after block; a part's cell is the
    mixed-radix index of its weight vector, last block least significant.
    """
    block_masks, strides = [], []
    start, stride = 0, 1
    for size in blocks:
        block_masks.append(((1 << size) - 1) << start)
        start += size
    for size in reversed(blocks):
        strides.append(stride)
        stride *= size + 1
    strides.reverse()
    full = (1 << start) - 1
    cell_of = [
        sum(bin(mask & bm).count("1") * s for bm, s in zip(block_masks, strides)) for mask in range(full + 1)
    ]
    triples = set()
    x = full
    while True:
        rest = full ^ x
        y = rest
        while True:
            triples.add(tuple(sorted((cell_of[x], cell_of[y], cell_of[rest ^ y]))))
            if y == 0:
                break
            y = (y - 1) & rest
        if x == 0:
            break
        x = (x - 1) & full
    return triples


SHAPES = (
    [(1,) * n for n in range(1, 6)]
    + [(n,) for n in range(1, 13)]
    + [(k1, k2) for k1 in range(1, 6) for k2 in range(1, 6)]
    + [(2, 1, 3)]
)


@pytest.mark.parametrize("blocks", SHAPES, ids=str)
def test_network_constraints_match_coordinate_partitions(blocks):
    ncells = 1
    for size in blocks:
        ncells *= size + 1
    allowed = [[1, 1], [1, 1]]
    net = Network(blocks, range(ncells), allowed)
    assert net.ncells == ncells and net.k == 2
    watched = {tuple(sorted((a, b, c))) for a in range(ncells) for b, c in net.watch[a]}
    assert watched == partition_triples(blocks)
    # each constraint is watched once from each of its three cells
    assert sum(len(w) for w in net.watch) == 3 * len(watched)


def catalog_pairs():
    names = [name for name in NAMED_TEMPLATES if "<" not in name] + ["LO_3", "LO_4", "NAE_3", "NAE_4"]
    source = named_template("1in3")
    for name in names:
        try:
            yield name, TemplatePair(source, named_template(name))
        except ValueError:
            continue


def search_matrix():
    """(target, kind, shape, found, nodes or count) over the catalog targets with a 1in3 pair."""
    entries = []
    for name, template in catalog_pairs():
        for n in range(1, 13):
            result = search_symmetric(template, n)
            entries.append((name, "sym", (n,), result.table is not None, result.nodes))
        for k in range(1, 5):
            for shape in ((k + 1, k), (k, k + 1)):
                result = search_block_symmetric(template, *shape)
                entries.append((name, "block", shape, result.table is not None, result.nodes))
        for n in range(1, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                count = sum(1 for _ in enumerate_polymorphisms(template, n))
            entries.append((name, "enumerate", (n,), count > 0, count))
    return entries


# recorded before the network built its own constraints from coordinate blocks
MATRIX_DIGEST = "435c84a47c43ab98297a129e903d45af8208cc1e4c48e7b441cafeea02710ef4"


def test_search_matrix_pinned():
    entries = search_matrix()
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == MATRIX_DIGEST, "\n".join(map(repr, entries))
