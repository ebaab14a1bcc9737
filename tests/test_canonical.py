import itertools
import random

import pytest

import retnet as rn
from retnet import canonical, generate, model
from retnet.errors import ModeMismatch, NotATree
from retnet.model import ROOTED, UNROOTED


def permuted(G, perm):
    """Apply a node permutation, preserving structure and leaf labels."""
    edges = tuple(sorted(
        model._norm_edge(G.mode, perm[u], perm[v]) for u, v in G.edges))
    labels = tuple(sorted((perm[v], x) for v, x in G.leaf_labels))
    return model.Graph(G.mode, G.num_nodes, edges, labels)


def brute_force_isomorphic(A, B) -> bool:
    """Oracle: try every node bijection that respects leaf labels."""
    if A.num_nodes != B.num_nodes or A.mode != B.mode:
        return False
    la, lb = dict(A.leaf_labels), dict(B.leaf_labels)
    if sorted(la.values()) != sorted(lb.values()):
        return False
    fixed = {v: next(w for w, x in lb.items() if x == la[v]) for v in la}
    rest_a = [v for v in range(A.num_nodes) if v not in fixed]
    rest_b = [v for v in range(B.num_nodes) if v not in set(fixed.values())]
    eb = set(B.edges)
    for images in itertools.permutations(rest_b):
        perm = dict(fixed)
        perm.update(zip(rest_a, images))
        if all(model._norm_edge(B.mode, perm[u], perm[v]) in eb
               for u, v in A.edges):
            return True
    return False


def test_code_invariant_under_permutation():
    rng = random.Random(1)
    pool = (generate.enumerate_trees(5, ROOTED)
            + generate.enumerate_networks(3, 1, ROOTED)
            + generate.enumerate_networks(3, 1, UNROOTED))
    for G in rng.sample(pool, 20):
        perm = list(range(G.num_nodes))
        rng.shuffle(perm)
        assert canonical.canonical_code(G) == canonical.canonical_code(permuted(G, perm))


def test_distinct_trees_have_distinct_codes():
    for mode in (ROOTED, UNROOTED):
        trees = generate.enumerate_trees(5, mode)
        codes = {canonical.canonical_code(T).bytes for T in trees}
        assert len(codes) == len(trees)


def test_code_agrees_with_brute_force_oracle():
    rng = random.Random(2)
    nets = generate.enumerate_networks(2, 2, ROOTED)
    for _ in range(60):
        A, B = rng.choice(nets), rng.choice(nets)
        assert rn.are_isomorphic(A, B) == brute_force_isomorphic(A, B)


def test_tree_and_general_paths_agree_on_isomorphism():
    # same trees, once with the fast tree code and once forced through
    # the general path by attaching (empty) edge labels
    trees = generate.enumerate_trees(4, ROOTED)
    gen_codes = {canonical._canon_general(T, None)[0] for T in trees}
    assert len(gen_codes) == len(trees)


def test_code_of_non_tree_raises_not_a_tree():
    # no labelled leaf, an unrooted tree whose leaves are 2 and 3 only, two
    # roots, a directed 3-cycle (no root), and a cycle beside a tree, rooted
    # and unrooted (no reticulation, yet not connected)
    for G in (model.Graph(ROOTED, 3, ((0, 1), (0, 2)), ()),
              model.Graph(UNROOTED, 3, ((0, 1), (0, 2)), ((1, 2), (2, 3))),
              model.Graph(ROOTED, 4, ((0, 1), (2, 3)), ((1, 1), (3, 2))),
              model.Graph(ROOTED, 3, ((0, 1), (1, 2), (2, 0)), ()),
              model.Graph(ROOTED, 4, ((0, 1), (2, 3), (3, 2)), ((1, 1),)),
              model.Graph(UNROOTED, 5, ((0, 1), (2, 3), (3, 4), (2, 4)), ((0, 1), (1, 2)))):
        with pytest.raises(NotATree):
            canonical.canonical_code(G)


def test_mode_mismatch_raises():
    a = generate.enumerate_trees(3, ROOTED)[0]
    b = generate.enumerate_trees(3, UNROOTED)[0]
    with pytest.raises(ModeMismatch):
        rn.are_isomorphic(a, b)


def test_edge_labels_distinguish_labellings(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    labs = generate.reticulation_labellings(n6r4, sigma)
    codes = {canonical.canonical_code(n6r4, lab).bytes for lab in labs}
    assert len(codes) == len(labs)


def test_automorphism_count_unlabelled_symmetry():
    # a cherry on two identically-shaped subtrees still has aut = 1
    # because leaf labels break all symmetry in a labelled tree
    for T in generate.enumerate_trees(4, ROOTED):
        assert canonical.automorphism_count(T) == 1


def test_automorphism_count_detects_symmetry():
    # erase leaf labels from a cherry: the two leaves become swappable
    T = model.Graph(ROOTED, 3, ((0, 1), (0, 2)), ())
    assert canonical.automorphism_count(T) == 2


# ---------------------------------------------------------------------------
# networkx as an independent isomorphism oracle


def erased(N):
    """N without its leaf labels, so that its automorphism group can grow."""
    return model.Graph(N.mode, N.num_nodes, N.edges, ())


def nx_graph(G, elabels):
    nx = pytest.importorskip("networkx")
    H = nx.DiGraph() if G.mode == ROOTED else nx.Graph()
    leaves = dict(G.leaf_labels)
    H.add_nodes_from((v, {"label": leaves.get(v, 0)}) for v in range(G.num_nodes))
    H.add_edges_from((u, v, {"label": elabels.get((u, v), 0)}) for u, v in G.edges)
    return H


def nx_matcher(A, B):
    from networkx.algorithms import isomorphism as iso
    matcher = iso.DiGraphMatcher if A.is_directed() else iso.GraphMatcher
    return matcher(A, B, node_match=iso.categorical_node_match("label", 0),
                   edge_match=iso.categorical_edge_match("label", 0))


def labelling(G, elabels):
    """The labelling of G that numbers each edge (u, v) of `elabels` by its h, by edge index."""
    index = {e: i for i, e in enumerate(G.edges)}
    return model.ReticulationLabelling(G, tuple((index[e], h) for e, h in elabels.items()))


def oracle_pool():
    """(graph, edge labels) pairs: networks with and without leaf labels, and labelled
    networks, their labels keyed by edge (u, v)."""
    nets = [N for n, r, mode in [(2, 2, ROOTED), (3, 1, ROOTED), (3, 2, ROOTED),
                                 (3, 1, UNROOTED), (3, 2, UNROOTED), (4, 1, UNROOTED)]
            for N in generate.enumerate_networks(n, r, mode)]
    pool = []
    for N in nets:
        pool += [(N, {}), (erased(N), {})]
    for N in nets[::13]:
        for lab in generate.all_reticulation_labellings(N):
            elabels = {N.edges[i]: h for i, h in lab.numbered}
            pool += [(N, elabels), (erased(N), elabels)]
    return pool


def test_automorphism_count_matches_networkx():
    nontrivial = 0
    for G, elabels in oracle_pool():
        H = nx_graph(G, elabels)
        expected = sum(1 for _ in nx_matcher(H, H).isomorphisms_iter())
        X = labelling(G, elabels) if elabels else G
        assert canonical.automorphism_count(X) == expected
        nontrivial += expected > 1
    assert nontrivial > 80


def test_code_equality_matches_networkx():
    rng = random.Random(3)
    pool = oracle_pool()
    matches = 0
    for _ in range(300):
        (A, ea), (B, eb) = rng.choice(pool), rng.choice(pool)
        if A.mode != B.mode:
            continue
        if rng.random() < 0.5:  # a relabelled copy of A, so that half the pairs match
            perm = list(range(A.num_nodes))
            rng.shuffle(perm)
            B = permuted(A, perm)
            eb = {model._norm_edge(A.mode, perm[u], perm[v]): h for (u, v), h in ea.items()}
        code_a = canonical.canonical_code(A, labelling(A, ea))
        code_b = canonical.canonical_code(B, labelling(B, eb))
        same = nx_matcher(nx_graph(A, ea), nx_graph(B, eb)).is_isomorphic()
        assert (code_a == code_b) == same
        matches += same
    assert matches > 50


def unsuppressed(T, rng):
    """T with a chain above the root (rooted), some edges subdivided, and
    unlabelled pendant chains: the shapes a switching's on edges take."""
    edges, nid = list(T.edges), T.num_nodes
    leaves = dict(T.leaf_labels)
    if T.mode == ROOTED:
        top = model.root_of(T)
        for _ in range(rng.randrange(3)):
            edges.append((nid, top))
            top, nid = nid, nid + 1
    for _ in range(rng.randrange(4) if edges else 0):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, nid), (nid, v)]
        nid += 1
    for _ in range(rng.randrange(4)):
        # a lone leaf may carry a leafless subtree (unrooted n = 1 displays
        # one); other leaves stay leaves
        hosts = [v for v in range(nid) if v not in leaves or T.n == 1]
        if not hosts:  # the unrooted one-edge tree, not subdivided
            break
        prev = rng.choice(hosts)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, nid))
            prev, nid = nid, nid + 1
    return model.make_graph(T.mode, range(nid), edges, leaves)


@pytest.mark.parametrize("mode", [ROOTED, UNROOTED])
def test_tree_code_reads_unsuppressed_trees(mode):
    rng = random.Random(7)
    for n in range(1, 7):
        for T in generate.enumerate_trees(n, mode)[:60]:
            for _ in range(3):
                G = unsuppressed(T, rng)
                code = canonical._tree_code(G)
                assert code == canonical._tree_code(model.suppress(G)) == canonical._tree_code(T)
