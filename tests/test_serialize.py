import hashlib

import pytest

import oracles
import retnet as rn
from retnet import canonical, display, generate, model, serialize
from retnet.errors import ParseError
from retnet.model import ROOTED, UNROOTED
from test_display import TRIVIAL_PINS, seeded_trivial


def test_newick_roundtrip_rooted():
    for n in range(1, 6):
        for T in generate.enumerate_trees(n, ROOTED):
            s = serialize.tree_to_newick(T)
            T2 = serialize.newick_to_tree(s, ROOTED)
            assert rn.canonical_code(T) == rn.canonical_code(T2)
            assert serialize.tree_to_newick(T2) == s


def test_newick_roundtrip_unrooted():
    for n in range(1, 6):
        for T in generate.enumerate_trees(n, UNROOTED):
            s = serialize.tree_to_newick(T)
            T2 = serialize.newick_to_tree(s, UNROOTED)
            assert rn.canonical_code(T) == rn.canonical_code(T2)
            assert serialize.tree_to_newick(T2) == s


# SHA-256 of the newline-joined output: the written text is CLI output and
# must not change with the writer's implementation
WRITER_DIGESTS = [
    (serialize.tree_to_newick, lambda: generate.enumerate_trees(6, ROOTED),
     "de2b8d0a68b26fa317ef0787a06e41561253eb0f0c079906febdfcdd59666f93"),
    (serialize.tree_to_newick, lambda: generate.enumerate_trees(7, UNROOTED),
     "b60328cf6d40dff8f0e259a8d955f0fc27911944b320f1b6bdfc3ba5db6df367"),
    (serialize.network_to_enewick, lambda: generate.enumerate_networks(3, 2, ROOTED),
     "1b68d367ab211025042574333e425e89c0f1bf9b5a5895fa7b05e44cc58d1ed5"),
    (serialize.network_to_enewick, lambda: generate.enumerate_networks(4, 1, ROOTED),
     "a81a0936aa44c61e76de6a725b459d34fd8905a2fce84a4495b59e81ddc4b8f8"),
]


def test_writer_output_is_pinned():
    for write, graphs, digest in WRITER_DIGESTS:
        text = "\n".join(write(G) for G in graphs())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of the fields of each graph read back from the written forms of
# WRITER_DIGESTS: node ids reach the CLI's output through `decode`
READER_DIGESTS = [
    (lambda s: serialize.newick_to_tree(s, ROOTED),
     "21de233e9afdcec8c7ce411709428a46c3db10bfa611c52dcfd1da864100d686"),
    (lambda s: serialize.newick_to_tree(s, UNROOTED),
     "763253d561e4d252fd86cdab42f609d7f8266ded99dfb4f2023c991769866e08"),
    (serialize.enewick_to_network,
     "c581d7271639e8a1043e786f5bb043bf620d90271a933b4fa3d7a7ced9875b00"),
    (serialize.enewick_to_network,
     "410ca6f50267f3fd1ca0a15ccebf7575419fe7e3e4b86749472d136bf10033c9"),
]


def test_tree_writer_matches_sorted_leaf_sets():
    # trees are written by least leaf, the oracle sorts by every leaf below
    for mode in (ROOTED, UNROOTED):
        for n in range(1, 8):
            for T in generate.enumerate_trees(n, mode):
                assert serialize.tree_to_newick(T) == oracles.tree_to_newick(T)
    for n, t, seed, _ in TRIVIAL_PINS:
        for T in display.displayed_trees(seeded_trivial(n, t, seed)[0]):
            assert serialize.tree_to_newick(T) == oracles.tree_to_newick(T)


def test_network_writer_matches_canonical_tie_breaks(monkeypatch):
    # the writer searches canonical positions only for tied leaf sets:
    # 180 of the 279 networks of rooted (3, 2) have ties, none of the 228 of (4, 1)
    searched = []
    search = canonical.canonical_positions
    monkeypatch.setattr(canonical, "canonical_positions",
                        lambda N: searched.append(N) or search(N))
    for n, r, ties in [(1, 3, None), (2, 2, None), (2, 3, None), (3, 1, None),
                       (3, 2, (180, 279)), (4, 1, (0, 228))]:
        searched.clear()
        nets = generate.enumerate_networks(n, r, ROOTED)
        written = [serialize.network_to_enewick(N) for N in nets]
        assert ties is None or (len(searched), len(nets)) == ties
        assert written == [oracles.network_to_enewick(N) for N in nets]


def test_reader_numbering_is_pinned():
    for (write, graphs, _), (read, digest) in zip(WRITER_DIGESTS, READER_DIGESTS):
        read_back = (read(write(G)) for G in graphs())
        text = "\n".join(repr((G.num_nodes, G.edges, G.leaf_labels)) for G in read_back)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def caterpillar(n: int, mode: str):
    """Spine nodes 0..k-1 with one pendant leaf each; the end nodes get a second leaf."""
    k = n - 1 if mode == ROOTED else n - 2
    attach = [0] * (mode == UNROOTED) + list(range(k)) + [k - 1]
    edges = [(i, i + 1) for i in range(k - 1)] + [(u, k + x) for x, u in enumerate(attach)]
    return model.make_graph(mode, range(k + n), edges, {k + x: x + 1 for x in range(n)})


def test_writer_handles_deep_trees():
    n = 1200
    tail = f"({n - 1},{n})"
    for x in range(n - 2, 2, -1):
        tail = f"({x},{tail})"
    for mode, want in [(ROOTED, f"(1,(2,{tail}));"), (UNROOTED, f"(1,2,{tail});")]:
        T = caterpillar(n, mode)
        assert model.validate(T).ok
        assert serialize.tree_to_newick(T) == want
        assert rn.canonical_code(serialize.newick_to_tree(want, mode)) == rn.canonical_code(T)
        if mode == ROOTED:
            assert rn.canonical_code(serialize.enewick_to_network(want)) == rn.canonical_code(T)


def test_newick_accepts_arbitrary_child_order():
    a = serialize.newick_to_tree("((3,1),2);", ROOTED)
    b = serialize.newick_to_tree("(2,(1,3));", ROOTED)
    assert rn.canonical_code(a) == rn.canonical_code(b)


def test_newick_parse_errors():
    for bad in ["(1,2)", "(1,2));", "(1,(2,));", "(1,2);x", "(1,2;)", "(1,2);(3,4);"]:
        with pytest.raises(ParseError):
            serialize.newick_to_tree(bad, ROOTED)
    with pytest.raises(ParseError, match="trailing content after network"):
        serialize.enewick_to_network("((1,(3)#H1),(2,#H1));(1,2);")


def test_enewick_roundtrip_enumerated():
    for n, r in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        for N in generate.enumerate_networks(n, r, ROOTED):
            s = serialize.network_to_enewick(N)
            N2 = serialize.enewick_to_network(s)
            assert rn.canonical_code(N) == rn.canonical_code(N2)
            assert serialize.network_to_enewick(N2) == s


def test_enewick_tag_count(n6r4):
    s = serialize.network_to_enewick(n6r4)
    assert s.count("#H") == 2 * 4
    assert rn.canonical_code(serialize.enewick_to_network(s)) == rn.canonical_code(n6r4)


def test_enewick_rejects_duplicate_subtree():
    with pytest.raises(ParseError):
        serialize.enewick_to_network("(((1)#H1,(2)#H1),(#H1,3));")


def test_json_roundtrip_unrooted_networks():
    for n, r in [(3, 1), (3, 2), (2, 2)]:
        for N in generate.enumerate_networks(n, r, UNROOTED):
            s = serialize.network_to_json(N)
            N2 = serialize.json_to_network(s)
            assert rn.canonical_code(N) == rn.canonical_code(N2)
            assert serialize.network_to_json(N2) == s


def test_json_reader_refuses_invalid_graphs():
    # a path: its middle node has degree 2
    doc = '{"nodes": [0, 1, 2], "edges": [[0, 1], [1, 2]], "leaves": {"1": 0, "2": 2}}'
    with pytest.raises(ParseError, match=r"^not binary \(internal degree must be 3\)$"):
        serialize.json_to_network(doc)


def test_labelling_sidecar_roundtrip(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    for lab in generate.reticulation_labellings(sigma)[:4]:
        s = serialize.labelling_to_json(lab)
        lab2 = serialize.json_to_labelling(n6r4, s)
        assert lab2 == lab
