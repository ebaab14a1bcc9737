import random

import pytest

import retnet as rn
from retnet import canonical, codec, generate, model
from retnet.errors import NotInImage
from retnet.model import ROOTED, UNROOTED


def test_r_zero_is_identity():
    for T in generate.enumerate_trees(4, ROOTED):
        lab = model.ReticulationLabelling(T, ())
        assert codec.encode_tau(T, lab) == T
        back, lab2 = codec.decode_tau(T, 4, 0)
        assert rn.are_isomorphic(T, back)
        assert lab2.numbered == ()


def test_encode_leaf_count(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    lab = generate.reticulation_labellings(n6r4, sigma)[0]
    T = codec.encode_tau(n6r4, lab)
    assert model.validate(T).ok
    leaves = sorted(dict(T.leaf_labels).values())
    assert leaves == list(range(1, 6 + 2 * 4 + 1))


def test_encode_pendant_pair_structure(n6r4):
    # the two new leaves for edge number h are 6+2h-1 under the tail's
    # image and 6+2h under the head's image; all four pairs are pendant
    sigma = generate.enumerate_switchings(n6r4)[0]
    lab = generate.reticulation_labellings(n6r4, sigma)[0]
    T = codec.encode_tau(n6r4, lab)
    parents = {c: p for p, c in T.edges}
    labels = dict(T.leaf_labels)
    for h in range(1, 5):
        za = next(v for v, x in labels.items() if x == 6 + 2 * h - 1)
        zb = next(v for v, x in labels.items() if x == 6 + 2 * h)
        assert parents[za] != parents[zb]


def test_roundtrip_exhaustive_small():
    for mode, n, r in [(ROOTED, 2, 1), (ROOTED, 3, 1), (ROOTED, 2, 2),
                       (UNROOTED, 3, 1), (UNROOTED, 2, 2)]:
        for N in generate.enumerate_networks(n, r, mode):
            for lab in generate.all_reticulation_labellings(N):
                T = codec.encode_tau(N, lab)
                N2, lab2 = codec.decode_tau(T, n, r)
                assert canonical.canonical_code(N2, lab2) == canonical.canonical_code(N, lab)
                assert codec.encode_tau(N2, lab2) == T


def test_injectivity_on_labelled_classes():
    for mode, n, r in [(ROOTED, 2, 2), (ROOTED, 3, 1), (UNROOTED, 3, 2)]:
        labelled, images = set(), set()
        for N in generate.enumerate_networks(n, r, mode):
            for lab in generate.all_reticulation_labellings(N):
                labelled.add(canonical.canonical_code(N, lab).bytes)
                images.add(canonical.canonical_code(codec.encode_tau(N, lab)).bytes)
        assert len(images) == len(labelled)


def test_decoded_labellings_are_valid():
    # decode_tau validates only the network; the labelling is valid by construction
    for mode in (ROOTED, UNROOTED):
        for m in range(3, 8):
            for T in generate.enumerate_trees(m, mode):
                for r in range(1, (m - 1) // 2 + 1):
                    try:
                        _, lab = codec.decode_tau(T, m - 2 * r, r)
                    except NotInImage:
                        continue
                    assert model.validate(lab).ok


def test_most_random_trees_are_not_in_image():
    rng = random.Random(5)
    trees = generate.enumerate_trees(8, ROOTED)
    rejected = 0
    sample = rng.sample(trees, 1000)
    for T in sample:
        try:
            codec.decode_tau(T, 4, 2)
        except NotInImage:
            rejected += 1
    assert rejected > len(sample) // 2


def test_decode_rejects_wrong_leaf_count():
    T = generate.enumerate_trees(5, ROOTED)[0]
    with pytest.raises(ValueError):
        codec.decode_tau(T, 4, 2)


def test_decode_parallel_edge_rejected():
    # a tree whose special-leaf parents would merge into a doubled edge
    caught = 0
    for T in generate.enumerate_trees(4, ROOTED):
        try:
            codec.decode_tau(T, 2, 1)
        except NotInImage:
            caught += 1
    assert caught > 0
