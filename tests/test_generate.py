import hashlib
import math
from fractions import Fraction

import pytest

from oracles import sweep, unrooted_off_edges
from retnet import bounds, canonical, generate, model, solver
from retnet.errors import BudgetExceeded, DomainError, SwitchingMismatch
from retnet.model import ROOTED, UNROOTED

# every (mode, n, r, leaf_connecting) with r >= 1 and n + 2r <= 7; the filter is unrooted only
ORACLE_POINTS = [(mode, n, r, lc) for mode in (ROOTED, UNROOTED) for n in range(1, 6)
                 for r in range(1, (7 - n) // 2 + 1)
                 for lc in ((True,) if mode == ROOTED else (True, False))]


def test_tree_counts_match_double_factorials():
    for n in range(1, 8):
        assert len(generate.enumerate_trees(n, ROOTED)) == bounds.tree_count(n, ROOTED)
    for n in range(1, 8):
        assert len(generate.enumerate_trees(n, UNROOTED)) == bounds.tree_count(n, UNROOTED)


def test_enumeration_is_deterministic():
    a = generate.enumerate_trees(5, ROOTED)
    b = generate.enumerate_trees(5, ROOTED)
    assert a == b
    codes = [canonical.canonical_code(T) for T in a]
    assert codes == sorted(codes)


def test_networks_pass_validation():
    # generation checks only simplicity; this is the full check
    for mode, n, r, lc in ORACLE_POINTS:
        for N in generate.enumerate_networks(n, r, mode, leaf_connecting=lc):
            assert model.validate(N).ok, (mode, n, r, lc)
            assert model.reticulation_count(N) == r
    for mode, n, r in [(ROOTED, 3, 1), (ROOTED, 2, 2), (UNROOTED, 3, 2)]:
        assert generate.enumerate_networks(n, r, mode)


def test_networks_pairwise_nonisomorphic():
    for mode, n, r in [(ROOTED, 3, 1), (UNROOTED, 3, 2)]:
        nets = generate.enumerate_networks(n, r, mode)
        codes = {canonical.canonical_code(N).bytes for N in nets}
        assert len(codes) == len(nets)


def test_unrooted_filter_keeps_only_leaf_connecting():
    strict = generate.enumerate_networks(4, 1, UNROOTED)
    loose = generate.enumerate_networks(4, 1, UNROOTED, leaf_connecting=False)
    assert set(N.edges for N in strict) <= set(N.edges for N in loose)
    for N in strict:
        assert model.is_leaf_connecting(N)


def test_rooted_networks_ignore_leaf_connecting():
    # the restriction is unrooted only: both spellings are one cache entry
    assert (generate.enumerate_networks(3, 1, ROOTED, leaf_connecting=False)
            is generate.enumerate_networks(3, 1, ROOTED))


def test_edge_addition_matches_sweep():
    # the codec sweep is complete (every labelled network decodes from its encoding)
    for mode, n, r, lc in ORACLE_POINTS:
        codes = [canonical.canonical_code(N)
                 for N in generate.enumerate_networks(n, r, mode, leaf_connecting=lc)]
        oracle = [canonical.canonical_code(N) for N in sweep(n, r, mode, lc)]
        assert codes == oracle, (mode, n, r, lc)


def test_towers_match_filtered_enumeration():
    # every point with n + 2r <= 7, every tree as the anchor; unrooted n = 1
    # starts from `_level`'s seed
    for mode in (ROOTED, UNROOTED):
        for n in range(1, 6):
            for r in range((7 - n) // 2 + 1):
                table = solver._code_sets(n, r, mode)
                for T1 in generate.enumerate_trees(n, mode):
                    code = canonical.canonical_code(T1).bytes
                    want = [canonical.canonical_code(N) for N, codes in table if code in codes]
                    tower = generate._networks(n, r, mode, T1, True)
                    got = [canonical.canonical_code(N) for N in tower]
                    assert got == want, (mode, n, r, T1)


def test_enumeration_and_code_sets_share_one_network_list():
    for cached in (generate._level, generate._networks, solver._code_sets):
        cached.cache_clear()
    generate.enumerate_networks(3, 2)
    solver._code_sets(3, 2, ROOTED)
    info = generate._networks.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_tower_refusal_names_its_level(monkeypatch):
    generate._level.cache_clear()  # a level already built is not checked again
    T1 = generate.enumerate_trees(4, ROOTED)[0]  # 6 edges: 7^2 moves at level 1
    monkeypatch.setenv("RETNET_BUDGET", "48")
    assert generate._level(4, 0, ROOTED, T1) == (T1,)
    with pytest.raises(BudgetExceeded, match=r"^the 1 x 49 moves that build level 1 of the tower"):
        generate._level(4, 1, ROOTED, T1)
    U1 = generate.enumerate_trees(4, UNROOTED)[0]  # 5 edges: C(5, 2) + 10 moves
    monkeypatch.setenv("RETNET_BUDGET", "19")
    with pytest.raises(BudgetExceeded, match=r"^the 1 x 20 moves that build level 1 of the tower"):
        generate._level(4, 1, UNROOTED, U1)
    # without T1, `_level` counts level 0 in closed form: 5!! rooted trees on 4 leaves
    for cached in (generate._level, generate._networks):
        cached.cache_clear()
    monkeypatch.setenv("RETNET_BUDGET", str(15 * 49 - 1))
    with pytest.raises(BudgetExceeded, match=r"^the 15 x 49 moves that build level 1 "
                                             r"of the 4-leaf networks"):
        generate.enumerate_networks(4, 1, ROOTED)
    assert generate._level.cache_info().currsize == 0  # refused before the trees are built
    monkeypatch.setenv("RETNET_BUDGET", str(15 * 49))
    level1 = generate._level(4, 1, ROOTED, None)  # 9 edges on each level-1 graph
    monkeypatch.setenv("RETNET_BUDGET", str(len(level1) * 100 - 1))
    level2 = rf"^the {len(level1)} x 100 moves that build level 2 of the 4-leaf networks"
    with pytest.raises(BudgetExceeded, match=level2):
        generate._level(4, 2, ROOTED, None)
    with pytest.raises(BudgetExceeded, match=level2):  # N(4, 2): the simple children of level 1
        generate.enumerate_networks(4, 2, ROOTED)
    monkeypatch.setenv("RETNET_BUDGET", "4")  # unrooted (1, 2): 2 edges, C(2, 2) + 4 moves
    with pytest.raises(BudgetExceeded, match=r"^the 1 x 5 moves that build level 2 of the 1-leaf"):
        generate.enumerate_networks(1, 2, UNROOTED)


def test_generate_does_not_use_the_codec():
    # the codec sweep is the generator's oracle, so the generator must not rest on it
    for name, value in vars(generate).items():
        assert "retnet.codec" not in (getattr(value, "__name__", None),
                                      getattr(value, "__module__", None)), name


# (class count, SHA-256 of the sorted hex codes joined by newlines), recorded
# from the codec sweep
NETWORK_DIGESTS = {
    (2, 3): (225, "e384d551de9b8a9fddef389c23d7093c7083fdf37a707ee98c6bdc0b31f47767"),
    (4, 2): (4530, "dcd4f7272b60189a4157db44b6eeb6b57b14dac3d25783a3a240b133eb38fa89"),
    (3, 3): (4980, "3323fe1b3c8408b92794a6807db703676e47ee18b08251e4ab5f41f089ffe9dc"),
}
# keyed (n, r, leaf_connecting)
UNROOTED_DIGESTS = {
    (4, 2, True): (66, "91ea8d7d6b390d10748298db5be39e21f3d722da8863711408b1593c05639e88"),
    (3, 3, True): (41, "5edc6fa8beb9ead755141d1059e19b5fac95e1db687aeca2af334165d702a63d"),
    (3, 3, False): (44, "c9a03b0f94fd226f7709b2eaff7edd59e21f4f83fb20ca63fa1073e84d9a0f97"),
    (1, 4, False): (4, "04a26fb16472dd5dff7512175b53636a4420f1de46f9148dede8919574778837"),
}


def _digest(nets) -> tuple[int, str]:
    codes = sorted(canonical.canonical_code(N).hex() for N in nets)
    return len(codes), hashlib.sha256("\n".join(codes).encode()).hexdigest()


def test_rooted_networks_match_stored_sweep_digests():
    for (n, r), expected in NETWORK_DIGESTS.items():
        assert _digest(generate.enumerate_networks(n, r, ROOTED)) == expected, (n, r)


def test_unrooted_networks_match_stored_sweep_digests():
    for (n, r, lc), expected in UNROOTED_DIGESTS.items():
        nets = generate.enumerate_networks(n, r, UNROOTED, leaf_connecting=lc)
        assert _digest(nets) == expected, (n, r, lc)


# SHA-256 of repr([(num_nodes, edges, leaf_labels), ...]): unrooted `networks`
# JSON and demo 02 print node ids, so the representatives' ids are pinned too
NODE_ID_DIGESTS = {  # keyed (n, r, mode); r = 0 lists the trees
    (6, 0, ROOTED): "ff1c595e494cfeedf8f261c1efaea3024be03a4cf24bd85c2d54b155e5b78f03",
    (6, 0, UNROOTED): "d38795ad65903ec57f625dac97342f9934b7bc76d49f91be3f565e33063f82d0",
    (3, 2, ROOTED): "316c425586e4c057e52838ad3e491836d3e1fb870873b92f55471e2435313774",
    (4, 2, UNROOTED): "a4eccc6c206e2d5eca21da73ac3319f4b193d149444eed57d7ea26d49264019e",
}


def test_representatives_keep_their_node_ids():
    for (n, r, mode), expected in NODE_ID_DIGESTS.items():
        graphs = generate.enumerate_networks(n, r, mode)
        pinned = repr([(G.num_nodes, G.edges, G.leaf_labels) for G in graphs])
        assert hashlib.sha256(pinned.encode()).hexdigest() == expected, (n, r, mode)


def test_budget_cap_raises():
    with pytest.raises(BudgetExceeded):
        generate.enumerate_networks(10, 4, ROOTED)


def test_budget_counts_closed_form_items(monkeypatch, n6r4):
    unrooted = generate.enumerate_networks(3, 2, UNROOTED)[0]  # 9 edges, r = 2
    sigma = generate.enumerate_switchings(n6r4)[0]
    for items, job in [(15, lambda: generate.enumerate_trees(4, ROOTED)),  # 5!!
                       # |level 1| x (3 + 1)^2 moves, 3 edges on the one level-1 graph
                       (16, lambda: generate.enumerate_networks(1, 2, ROOTED)),
                       (16, lambda: generate.enumerate_switchings(n6r4)),  # 2^4
                       (36, lambda: generate.enumerate_switchings(unrooted)),  # C(9, 2)
                       (24, lambda: generate.reticulation_labellings(n6r4, sigma))]:  # 4!
        monkeypatch.setenv("RETNET_BUDGET", str(items))
        job()
        for cached in (generate._level, generate._networks):
            cached.cache_clear()  # a level already built is not checked again
        monkeypatch.setenv("RETNET_BUDGET", str(items - 1))
        with pytest.raises(BudgetExceeded):
            job()


def test_rooted_switching_count_is_two_to_the_r(n6r4):
    assert len(generate.enumerate_switchings(n6r4)) == 2 ** 4
    for N in generate.enumerate_networks(3, 2, ROOTED):
        assert len(generate.enumerate_switchings(N)) == 4


def _spanning_tree_count_matrix_tree(N) -> int:
    """Kirchhoff determinant oracle, exact over Fractions."""
    m = N.num_nodes
    L = [[Fraction(0)] * m for _ in range(m)]
    for u, v in N.edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    M = [row[1:] for row in L[1:]]
    k = m - 1
    det = Fraction(1)
    for col in range(k):
        piv = next((i for i in range(col, k) if M[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for i in range(col + 1, k):
            f = M[i][col] / M[col][col]
            for j in range(col, k):
                M[i][j] -= f * M[col][j]
    assert det.denominator == 1
    return abs(int(det))


def test_unrooted_switchings_match_matrix_tree_count():
    for n, r in [(3, 1), (3, 2), (2, 2)]:
        for N in generate.enumerate_networks(n, r, UNROOTED):
            sws = generate.enumerate_switchings(N)
            assert len(sws) == _spanning_tree_count_matrix_tree(N)
            # each switching's kept edges really form a spanning tree
            for s in sws:
                kept = [e for i, e in enumerate(N.edges) if i not in s.off]
                assert len(kept) == N.num_nodes - 1
                assert model._is_connected(N.num_nodes, kept)


def test_unrooted_switching_walk_matches_union_find_scan():
    # every unrooted level graph with n + 2k <= 7, multigraphs with loops and parallel
    # edges among them, and every unrooted network there, leaf-connecting or not
    graphs = [G for n in range(1, 8) for k in range((7 - n) // 2 + 1)
              for G in generate._level(n, k, UNROOTED, None)]
    graphs += [N for n in range(1, 8) for r in range(1, (7 - n) // 2 + 1)
               for N in generate.enumerate_networks(n, r, UNROOTED, leaf_connecting=False)]
    assert any(a == b for G in graphs for a, b in G.edges)
    assert any(len(set(G.edges)) < len(G.edges) for G in graphs)
    for G in graphs:
        assert list(generate._off_edges(G)) == unrooted_off_edges(G)


def test_enumerations_refuse_unknown_modes():
    with pytest.raises(DomainError, match="^unknown mode 'sideways'$"):
        generate.enumerate_trees(4, "sideways")
    for r in (1, 2):
        with pytest.raises(DomainError, match="^unknown mode 'x'$"):
            generate.enumerate_networks(3, r, "x")


def test_labellings_per_switching_is_r_factorial(n6r4):
    sigma = generate.enumerate_switchings(n6r4)[0]
    labs = generate.reticulation_labellings(n6r4, sigma)
    assert len(labs) == math.factorial(4)
    for lab in labs:
        assert lab.switching() == sigma
        assert model.validate(lab).ok


def test_all_labellings_count(n6r4):
    total = sum(1 for _ in generate.all_reticulation_labellings(n6r4))
    assert total == 2 ** 4 * math.factorial(4)


def test_fixed_switching_count_identity():
    # |networks| * r! distinct labelled graphs from one switching per network
    for mode, n, r in [(ROOTED, 3, 1), (ROOTED, 2, 2), (UNROOTED, 3, 2)]:
        nets = generate.enumerate_networks(n, r, mode)
        codes = set()
        for N in nets:
            sigma = generate.enumerate_switchings(N)[0]
            for lab in generate.reticulation_labellings(N, sigma):
                codes.add(canonical.canonical_code(N, lab).bytes)
        assert len(codes) == len(nets) * math.factorial(r)


def test_labellings_refuse_foreign_and_invalid_switchings(n6r4):
    other = generate.enumerate_networks(3, 1, ROOTED)[0]
    with pytest.raises(SwitchingMismatch, match="^switching is not hosted by this network$"):
        generate.reticulation_labellings(n6r4, generate.enumerate_switchings(other)[0])
    with pytest.raises(SwitchingMismatch,
                       match="^off edge count differs from reticulation number$"):
        generate.reticulation_labellings(n6r4, model.Switching(n6r4, frozenset()))
