from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import retnet as rn
from retnet import generate, model, serialize
from retnet.errors import LeafsetMismatch, ModeMismatch, NotATree
from retnet.model import Graph, ROOTED, UNROOTED


def test_single_leaf_tree_valid():
    T = Graph(ROOTED, 1, (), ((0, 1),))
    assert model.validate(T).ok


def test_cherry_valid_both_modes():
    T = model.make_graph(ROOTED, [0, 1, 2], [(0, 1), (0, 2)], {1: 1, 2: 2})
    assert model.validate(T).ok
    U = model.make_graph(UNROOTED, [0, 1], [(0, 1)], {0: 1, 1: 2})
    assert model.validate(U).ok


def test_validate_rejects_bad_leaf_labels():
    T = model.make_graph(ROOTED, [0, 1, 2], [(0, 1), (0, 2)], {1: 1, 2: 3})
    rep = model.validate(T)
    assert not rep.ok
    assert any("label" in v for v in rep.violations)


def test_validate_rejects_cycle():
    N = Graph(ROOTED, 4, ((0, 1), (1, 2), (2, 1), (2, 3)), ((3, 1),))
    assert not model.validate(N).ok


def test_validate_rejects_disconnected_unrooted():
    G = model.make_graph(UNROOTED, [0, 1, 2, 3], [(0, 1), (2, 3)],
                         {0: 1, 1: 2, 2: 3, 3: 4})
    assert not model.validate(G).ok


def test_validate_is_total_never_raises():
    # junk graphs must produce reports, not exceptions
    G = Graph(ROOTED, 3, ((0, 0), (1, 2)), ())
    rep = model.validate(G)
    assert not rep.ok


def test_network_degree_arithmetic():
    for N in generate.enumerate_networks(3, 1, ROOTED):
        r = model.reticulation_count(N)
        assert r == 1
        assert len(N.edges) == N.num_nodes - 1 + r
        assert N.num_nodes == 2 * 3 + 2 * r - 1
    for N in generate.enumerate_networks(3, 2, UNROOTED):
        assert len(N.edges) - N.num_nodes + 1 == 2
        assert len(N.edges) == 2 * 3 + 3 * 2 - 3


def test_switching_validation(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    assert model.validate(sigma).ok
    bad = model.Switching(n6r4, frozenset())
    assert not model.validate(bad).ok
    # off edges are indices in the host's edges: an index past them, a negative
    # one, a float and an edge pair name no edge
    keep = frozenset(sorted(sigma.off)[1:])
    for junk in (len(n6r4.edges), -1, 1.5, n6r4.edges[0]):
        bad = model.Switching(n6r4, keep | {junk})
        assert model.validate(bad).violations == ("off edge not in host",)


def test_unrooted_switching_messages():
    N = generate.enumerate_networks(3, 2, UNROOTED)[0]
    assert model.reticulation_count(N) == 2
    both = ("off edge count differs from reticulation number",
            "on edges do not form a spanning tree")
    # {0, 1} leaves |V| - 1 on edges that do not connect leaves 1 and 2
    for off, want in (({0}, both), ({0, 1}, both[1:]), ({0, 1, 2}, both)):
        assert model.validate(model.Switching(N, frozenset(off))).violations == want


def test_labelling_validation(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    lab = generate.reticulation_labellings(n6r4, sigma)[0]
    assert model.validate(lab).ok
    # duplicate number
    bad = model.ReticulationLabelling(
        n6r4, tuple((e, 1) for e, _ in lab.numbered))
    assert not model.validate(bad).ok


def test_value_types_are_immutable_values():
    T = Graph(ROOTED, 1, (), ((0, 1),))
    makers = {  # class -> (a maker of equal values, a field to assign to)
        rn.Graph: (lambda: Graph(ROOTED, 1, (), ((0, 1),)), "edges"),
        rn.Switching: (lambda: rn.Switching(T, frozenset()), "off"),
        rn.ReticulationLabelling: (lambda: rn.ReticulationLabelling(T, ()), "numbered"),
        rn.TreeSet: (lambda: rn.TreeSet(ROOTED, (T,)), "trees"),
        rn.ValidationReport: (lambda: rn.ValidationReport(("x",)), "violations"),
        rn.CanonicalCode: (lambda: rn.CanonicalCode(b"\x01RT1"), "bytes"),
        rn.RealInterval: (lambda: rn.RealInterval(Fraction(1, 3), Fraction(1, 2)), "lo"),
        rn.BoundReport: (lambda: rn.BoundReport("b", {"n": 1}, lhs=1, rhs=2, holds=True),
                         "holds"),
        rn.NetworkCountBound: (lambda: rn.NetworkCountBound(Fraction(3), None), "relaxed"),
    }
    for cls, (make, name) in makers.items():
        a, b = make(), make()
        assert type(a) is cls and a is not b and a == b
        if cls is not rn.BoundReport:  # its parameters dict is compared but not hashable
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        assert a == b  # the failed assignment changed nothing
    codes = [rn.CanonicalCode(c) for c in (b"\x01RT12", b"\x01RG", b"\x01RT1", b"\x01UT")]
    assert [c.bytes for c in sorted(codes)] == sorted(c.bytes for c in codes)
    assert codes[2] < codes[0] and not codes[0] < codes[2]
    assert not rn.ValidationReport(("x",)) and rn.ValidationReport()


def test_tree_set_dedupes_and_orders():
    trees = generate.enumerate_trees(4, ROOTED)
    ts = model.tree_set([trees[2], trees[0], trees[2]])
    assert ts.t == 2
    assert model.validate(ts).ok


def test_tree_set_rejects_mixed_leaf_counts():
    a = generate.enumerate_trees(3, ROOTED)[0]
    b = generate.enumerate_trees(4, ROOTED)[0]
    ts = model.TreeSet(ROOTED, (a, b))
    assert not model.validate(ts).ok
    with pytest.raises(LeafsetMismatch):
        model.tree_set([a, b])
    with pytest.raises(ModeMismatch):
        model.tree_set([a, generate.enumerate_trees(3, UNROOTED)[0]])


def test_tree_set_rejects_networks():
    N = generate.enumerate_networks(3, 1, ROOTED)[0]
    T = generate.enumerate_trees(3, ROOTED)[0]
    assert model.validate(model.TreeSet(ROOTED, (T,))).ok
    assert "member is not a tree" in model.validate(model.TreeSet(ROOTED, (N,))).violations


SUPPRESS_CASES = [  # (mode, edges, labels, Newick of the suppressed tree)
    # path root -> x -> cherry collapses to the cherry
    (ROOTED, [(0, 1), (1, 2), (1, 3)], {2: 1, 3: 2}, "(1,2);"),
    # a chain of out-degree-1 nodes above the root, and one inside a subtree
    (ROOTED, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6), (4, 7)],
     {5: 1, 6: 2, 7: 3}, "((1,2),3);"),
    # an unlabelled pendant chain hanging off a cherry
    (ROOTED, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (5, 6), (2, 7), (2, 8)],
     {3: 1, 7: 2, 8: 3}, "(1,(2,3));"),
    (UNROOTED, [(0, 1), (1, 2), (1, 3), (3, 4), (2, 5), (2, 6)],
     {0: 1, 5: 2, 6: 3}, "(1,2,3);"),
    (UNROOTED, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)],
     {0: 1, 3: 2, 5: 3, 7: 4}, "(1,2,(3,4));"),
    # one leaf left: a single node
    (ROOTED, [(0, 1), (1, 2), (0, 3)], {2: 1}, "1;"),
    (UNROOTED, [(0, 1), (1, 2), (1, 3)], {3: 1}, "1;"),
]


def test_suppress_contracts_degree_two():
    for mode, edges, labels, newick in SUPPRESS_CASES:
        num_nodes = 1 + max(max(e) for e in edges)
        T = Graph(mode, num_nodes, tuple(model._norm_edge(mode, u, v) for u, v in edges),
                      tuple(sorted(labels.items())))
        S = model.suppress(T)
        assert model.validate(S).ok
        assert serialize.tree_to_newick(S) == newick
        assert S == oracles.suppress(T)


@pytest.mark.parametrize("mode, num_nodes, edges", [
    (ROOTED, 4, [(0, 2), (1, 2), (2, 3)]),          # a node with two parents
    (ROOTED, 4, [(1, 2), (2, 3), (3, 1)]),          # a directed cycle
    (ROOTED, 5, [(0, 1), (0, 2), (3, 4)]),          # disconnected
    (UNROOTED, 4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # a cycle
])
def test_suppress_rejects_non_trees(mode, num_nodes, edges):
    labels = tuple((v, v + 1) for v in range(num_nodes))
    G = Graph(mode, num_nodes, tuple(edges), labels)
    for suppress in (model.suppress, oracles.suppress):
        with pytest.raises(NotATree):
            suppress(G)


def test_subdivide_then_suppress_roundtrip():
    for T in generate.enumerate_trees(4, ROOTED)[:5]:
        S = oracles.subdivide(T, T.edges[0], 2)
        back = model.suppress(S)
        assert rn.are_isomorphic(T, back)
        assert back == oracles.suppress(S)


def test_is_leaf_connecting():
    for N in generate.enumerate_networks(3, 1, UNROOTED):
        assert model.is_leaf_connecting(N)
    # one unrooted (2, 3) network hangs a leaf-free block from a single edge
    loose = generate.enumerate_networks(2, 3, UNROOTED, leaf_connecting=False)
    assert [model.is_leaf_connecting(N) for N in loose].count(False) == 1


def test_leaf_connecting_cut_node_test_matches_path_search():
    # every unfiltered unrooted network with n + 2r <= 8, trees included
    nets = [N for n in range(1, 9) for r in range((8 - n) // 2 + 1)
            for N in generate.enumerate_networks(n, r, UNROOTED, leaf_connecting=False)]
    verdicts = [model.is_leaf_connecting(N) for N in nets]
    assert verdicts == [oracles.is_leaf_connecting(N) for N in nets]
    assert verdicts.count(False) > 0


def _level_graphs(m: int) -> list:
    """Every rooted graph of `generate._level` with n + 2k <= m: trees, networks
    and the multigraphs of the lower levels."""
    return [G for n in range(1, m + 1) for k in range((m - n) // 2 + 1)
            for G in generate._level(n, k, ROOTED, None)]


def test_topological_order_returns_what_kahn_read():
    graphs = _level_graphs(7)
    assert any(len(set(G.edges)) < len(G.edges) for G in graphs)
    for G in graphs:
        order, children, indeg = model.topological_order(G)
        assert children == model.adjacency(G)
        assert indeg == model._indegrees(G)
        position = {v: i for i, v in enumerate(order)}
        assert len(position) == len(order) == G.num_nodes
        assert all(position[u] < position[v] for u, v in G.edges)
    # a directed cycle shows as a short order
    cycle = Graph(ROOTED, 3, ((0, 1), (1, 2), (2, 1)), ())
    order, _, indeg = model.topological_order(cycle)
    assert order == [0] and indeg == [0, 2, 1]


_VALID = [G for G in _level_graphs(6) if model.validate(G).ok]


@st.composite
def _rooted_digraphs(draw):
    """Small rooted digraphs, mostly invalid: a valid graph with up to three edits,
    or arbitrary edges on up to 7 nodes.  Cycles, several sources, lone
    cycles beside a network, self-loops, parallel edges and bad labels all occur."""
    if draw(st.booleans()):
        G = draw(st.sampled_from(_VALID))
        num_nodes, edges, labels = G.num_nodes, list(G.edges), list(G.leaf_labels)
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from(["drop", "flip", "add", "label", "cycle"]))
            i = draw(st.integers(0, 99))
            if op == "cycle":  # a directed triangle that no source reaches
                a, b, c = range(num_nodes, num_nodes + 3)
                num_nodes, edges = num_nodes + 3, edges + [(a, b), (b, c), (c, a)]
            elif op == "add" or not edges:
                node = st.integers(0, num_nodes - 1)
                edges.append((draw(node), draw(node)))
            elif op == "drop":
                del edges[i % len(edges)]
            elif op == "flip":
                u, v = edges[i % len(edges)]
                edges[i % len(edges)] = (v, u)
            else:
                labels[i % len(labels)] = (i % num_nodes, labels[i % len(labels)][1])
        return Graph(ROOTED, num_nodes, tuple(edges), tuple(labels))
    num_nodes = draw(st.integers(1, 7))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=10, unique_by=frozenset))
    edges += draw(st.lists(st.tuples(node, node), max_size=1))  # a self-loop or parallel edge
    leaves = draw(st.lists(node, unique=True, max_size=num_nodes))
    labels = tuple((v, x) for x, v in enumerate(leaves, 1))
    return Graph(ROOTED, num_nodes, tuple(edges), labels)


@given(_rooted_digraphs())
@settings(max_examples=400, deadline=None)
def test_rooted_validation_matches_the_reference(G):
    assert model.validate(G).violations == tuple(oracles.validate_rooted_graph(G))
