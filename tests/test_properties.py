"""Randomized invariant checks over the enumerable universe."""

import random

from hypothesis import given, settings, strategies as st

import oracles
import retnet as rn
from retnet import canonical, codec, display, generate, model, serialize
from retnet.model import ROOTED, UNROOTED

from test_canonical import permuted
from test_display import oracle_codes


def random_permutation(G, seed):
    rng = random.Random(seed)
    perm = list(range(G.num_nodes))
    rng.shuffle(perm)
    return perm


@given(st.integers(2, 6), st.sampled_from([ROOTED, UNROOTED]),
       st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_canonical_code_is_permutation_invariant(n, mode, pick, seed):
    trees = generate.enumerate_trees(n, mode)
    T = trees[pick % len(trees)]
    P = permuted(T, random_permutation(T, seed))
    assert canonical.canonical_code(T) == canonical.canonical_code(P)


@given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_network_code_is_permutation_invariant(pick, seed):
    nets = generate.enumerate_networks(3, 1, ROOTED)
    N = nets[pick % len(nets)]
    P = permuted(N, random_permutation(N, seed))
    assert canonical.canonical_code(N) == canonical.canonical_code(P)


@given(st.integers(2, 5), st.sampled_from([ROOTED, UNROOTED]),
       st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_newick_roundtrip_random_tree(n, mode, pick):
    trees = generate.enumerate_trees(n, mode)
    T = trees[pick % len(trees)]
    s = serialize.tree_to_newick(T)
    assert rn.canonical_code(T) == rn.canonical_code(serialize.newick_to_tree(s, mode))


@given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_subdivide_suppress_is_identity(pick, epick, times):
    trees = generate.enumerate_trees(4, ROOTED)
    T = trees[pick % len(trees)]
    e = T.edges[epick % len(T.edges)]
    S = oracles.subdivide(T, e, times)
    assert rn.canonical_code(T) == rn.canonical_code(model.suppress(S))
    assert model.suppress(S) == oracles.suppress(S)


@given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_codec_roundtrip_random_labelled_network(pick, lpick):
    nets = generate.enumerate_networks(3, 1, ROOTED)
    N = nets[pick % len(nets)]
    labs = list(generate.all_reticulation_labellings(N))
    lab = labs[lpick % len(labs)]
    lab2 = codec.decode_tau(codec.encode_tau(lab), 3, 1)
    assert canonical.canonical_code(lab2) == canonical.canonical_code(lab)


@given(st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_displayed_tree_leafset_preserved(pick):
    nets = generate.enumerate_networks(3, 2, ROOTED)
    N = nets[pick % len(nets)]
    for sigma in generate.enumerate_switchings(N):
        T = display.displayed_tree(sigma)
        assert sorted(dict(T.leaf_labels).values()) == [1, 2, 3]


@given(st.sampled_from([(n, 2) for n in range(3, 8)] + [(n, 3) for n in range(3, 7)]),
       st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_incremental_switching_codes_on_trivial_networks(nt, seed):
    # t = 3 nests each leaf's merge chain (one merge reticulation sits below
    # the other), so a node's last index must be read through reticulations;
    # (t - 1) n <= 12 keeps each oracle pass to at most 2^12 switchings
    n, t = nt
    trees = random.Random(seed).sample(generate.enumerate_trees(n, ROOTED), t)
    N = display.trivial_network(model.tree_set(trees))
    assert list(display._switching_codes(N)) == oracle_codes(N)
