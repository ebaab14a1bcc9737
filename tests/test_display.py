import hashlib
import itertools
import random

import pytest

import retnet as rn
import oracles
from oracles import displays_by_subdivision, find_embedding
from retnet import display, generate, model, serialize
from retnet.errors import DomainError, LeafsetMismatch, RetnetError, SwitchingMismatch
from retnet.model import ROOTED, UNROOTED

from test_generate import ORACLE_POINTS

# (n, t, seed) of a seeded trivial network, and the SHA-256 of its
# displayed_trees (Newick and node ids) and displays witnesses, recorded
# with the per-switching suppress-then-code path
TRIVIAL_PINS = [
    (8, 2, 8, "55feed12449ac90c56f028a99e35c707907e4a614d6b41732ecdb6cfd382cd3d"),
    (6, 3, 6, "09824e80ee63d412ee66167a6a985c101507c31cf6807d6e962cb67d56927610"),
]


def random_rooted_tree(n: int, rng: random.Random) -> model.Graph:
    """A rooted tree on [n] by random leaf insertion (the virtual root edge included)."""
    edges, labels, root, nid = [], {0: 1}, 0, 1
    for x in range(2, n + 1):
        w, z = nid, nid + 1
        nid += 2
        i = rng.randrange(len(edges) + 1)
        if i == len(edges):
            edges.append((w, root))
            root = w
        else:
            u, v = edges[i]
            edges[i] = (u, w)
            edges.append((w, v))
        edges.append((w, z))
        labels[z] = x
    return model.make_graph(ROOTED, range(nid), edges, labels)


def seeded_trivial(n: int, t: int, seed: int):
    """The trivial network of t seeded trees on [n], and queries: the members and one more tree."""
    rng = random.Random(seed)
    ts = model.tree_set(random_rooted_tree(n, rng) for _ in range(t))
    assert ts.t == t
    return display.trivial_network(ts), list(ts.trees) + [random_rooted_tree(n, rng)]


def display_digest(N, queries) -> str:
    lines = [f"{serialize.tree_to_newick(T)} {(T.num_nodes, T.edges, T.leaf_labels)}"
             for T in display.displayed_trees(N)]
    for T in queries:
        ok, witness = display.displays(N, T)
        lines.append(repr(sorted(N.edges[i] for i in witness.off)) if ok else "-")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oracle_codes(N):
    """(off edge indices, code) through the suppressed tree of every switching;
    N may have parallel edges and loops."""
    trees = ((off, display.displayed_tree(N, model.Switching(N, frozenset(off))))
             for off in generate._off_edges(N))
    return [(off, rn.canonical_code(T).bytes) for off, T in trees]


def test_each_switching_displays_one_tree(n6r4):
    for sigma in generate.enumerate_switchings(n6r4):
        T = display.displayed_tree(n6r4, sigma)
        assert model.validate(T).ok
        assert sorted(dict(T.leaf_labels).values()) == [1, 2, 3, 4, 5, 6]


def test_worked_example_displays_expected_tree(n6r4):
    want = serialize.newick_to_tree("(1,(2,(((4,5),3),6)));", ROOTED)
    ok, witness = display.displays(n6r4, want)
    assert ok
    assert display.displayed_tree(n6r4, witness) == want or \
        rn.are_isomorphic(display.displayed_tree(n6r4, witness), want)


def test_displayed_trees_bounded_by_switchings(n6r4):
    ts = display.displayed_trees(n6r4)
    assert 1 <= len(ts) <= 2 ** 4
    codes = {rn.canonical_code(T).bytes for T in ts}
    assert len(codes) == len(ts)


def test_displays_rejects_wrong_leafset(n6r4):
    T = generate.enumerate_trees(5, ROOTED)[0]
    with pytest.raises(LeafsetMismatch):
        display.displays(n6r4, T)


def test_display_entry_points_validate_the_network():
    # parallel edges into node 2: the switching codes alone would read ((1,1),2)
    N = model.Graph(ROOTED, 5, ((0, 1), (1, 2), (1, 2), (2, 3), (0, 4)), ((3, 1), (4, 2)))
    T = serialize.newick_to_tree("(1,2);", ROOTED)
    for call in (lambda: display.displays(N, T), lambda: display.displayed_trees(N)):
        with pytest.raises(DomainError, match="^invalid network: parallel edges$"):
            call()
    # the internal path codes the multigraph's one tree, under either parallel in-edge
    assert [c for _, c in display._switching_codes(N)] == [rn.canonical_code(T).bytes] * 2


def test_tower_multigraph_codes_match_suppressed_trees():
    # the lower tower levels have parallel in-edges (rooted), and parallel
    # edges and loops (unrooted)
    seen = set()
    for mode, n, k in [(ROOTED, 1, 3), (ROOTED, 2, 2), (ROOTED, 3, 2), (ROOTED, 4, 1),
                       (UNROOTED, 1, 3), (UNROOTED, 2, 2), (UNROOTED, 3, 2), (UNROOTED, 4, 2)]:
        for T1 in generate.enumerate_trees(n, mode):
            for G in generate._level(n, k, mode, T1):
                codes = oracle_codes(G)
                assert list(display._switching_codes(G)) == codes
                assert rn.canonical_code(T1).bytes in {c for _, c in codes}  # every member displays T1
                seen.update(("parallel" if len(set(G.edges)) < len(G.edges) else "simple",
                             "loop" if any(a == b for a, b in G.edges) else "no loop"))
    assert seen == {"parallel", "simple", "loop", "no loop"}


def test_switching_host_mismatch(n6r4):
    other = generate.enumerate_networks(3, 1, ROOTED)[0]
    sigma = generate.enumerate_switchings(other)[0]
    with pytest.raises(SwitchingMismatch):
        display.displayed_tree(n6r4, sigma)


def test_unrooted_display_by_spanning_tree():
    for N in generate.enumerate_networks(3, 2, UNROOTED):
        ts = display.displayed_trees(N)
        assert ts
        for T in ts:
            ok, _ = display.displays(N, T)
            assert ok


def test_switching_and_subdivision_oracles_agree_sample():
    # exhaustive cross-check lives in the acceptance suite; spot-check here
    trees = generate.enumerate_trees(3, ROOTED)
    for N in generate.enumerate_networks(3, 1, ROOTED)[:8]:
        for T in trees:
            ok, _ = display.displays(N, T)
            assert ok == displays_by_subdivision(N, T)


def test_trivial_network_two_trees():
    trees = generate.enumerate_trees(4, ROOTED)
    ts = model.tree_set([trees[0], trees[7]])
    N = display.trivial_network(ts)
    assert model.validate(N).ok
    assert model.reticulation_count(N) == (2 - 1) * 4
    for T in ts.trees:
        ok, _ = display.displays(N, T)
        assert ok


def test_trivial_network_three_trees_seeded():
    rng = random.Random(11)
    pool = generate.enumerate_trees(5, ROOTED)
    ts = model.tree_set(rng.sample(pool, 3))
    N = display.trivial_network(ts)
    assert model.validate(N).ok
    assert model.reticulation_count(N) == (ts.t - 1) * 5
    for T in ts.trees:
        ok, _ = display.displays(N, T)
        assert ok


def test_trivial_network_single_tree_is_tree():
    T = generate.enumerate_trees(4, ROOTED)[0]
    N = display.trivial_network(model.tree_set([T]))
    assert model.reticulation_count(N) == 0
    assert rn.are_isomorphic(N, T)


def test_find_embedding_witnesses_display(n6r4):
    T = display.displayed_trees(n6r4)[0]
    emb = find_embedding(n6r4, T)
    assert emb is not None


@pytest.mark.parametrize("mode,n,r,lc", ORACLE_POINTS)
def test_switching_codes_match_displayed_tree_codes(mode, n, r, lc):
    for N in generate.enumerate_networks(n, r, mode, leaf_connecting=lc):
        assert list(display._switching_codes(N)) == oracle_codes(N)


@pytest.mark.parametrize("n,t,seed,digest", TRIVIAL_PINS, ids=lambda v: str(v)[:8])
def test_trivial_network_codes_and_outputs(n, t, seed, digest):
    N, queries = seeded_trivial(n, t, seed)
    assert model.reticulation_count(N) == (t - 1) * n
    assert list(display._switching_codes(N)) == oracle_codes(N)
    assert display_digest(N, queries) == digest


def outcome(build, N, off):
    """What building the tree of the off edge indices `off` gives: the tree, or the error."""
    try:
        return build(N, model.Switching(N, frozenset(off)))
    except RetnetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode,n,r,lc", ORACLE_POINTS)
def test_displayed_tree_matches_suppressed_on_edges(mode, n, r, lc):
    # every set of r edges (each switching, and sets that leave on edges
    # that are not a tree), and for the first networks sets of r - 1 and r + 1
    for i, N in enumerate(generate.enumerate_networks(n, r, mode, leaf_connecting=lc)):
        sizes = (r - 1, r, r + 1) if i < 20 else (r,)
        for off in itertools.chain(*(itertools.combinations(range(len(N.edges)), k)
                                     for k in sizes)):
            want = outcome(oracles.displayed_tree, N, off)
            assert outcome(display.displayed_tree, N, off) == want, (N, off)


@pytest.mark.parametrize("n,t,seed,digest", TRIVIAL_PINS, ids=lambda v: str(v)[:8])
def test_displayed_trees_match_suppressed_representatives(n, t, seed, digest):
    N, _ = seeded_trivial(n, t, seed)
    first: dict[bytes, tuple[int, ...]] = {}
    for off, code in display._switching_codes(N):
        first.setdefault(code, off)
    want = tuple(oracles.displayed_tree(N, model.Switching(N, frozenset(first[c])))
                 for c in sorted(first))
    assert display.displayed_trees(N) == want
