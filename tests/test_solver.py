import itertools

import pytest

import retnet as rn
from retnet import bounds, canonical, display, generate, model, serialize, solver
from retnet.errors import BudgetExceeded, DomainError
from retnet.model import ROOTED, UNROOTED


def test_min_reticulations_single_tree_is_zero():
    T = generate.enumerate_trees(4, ROOTED)[0]
    r, N = solver.min_reticulations(model.tree_set([T]))
    assert r == 0
    assert rn.are_isomorphic(N, T)


def test_min_reticulations_two_trees_n3():
    trees = generate.enumerate_trees(3, ROOTED)
    r, N = solver.min_reticulations(model.tree_set(trees[:2]))
    assert r == 1
    for T in trees[:2]:
        ok, _ = display.displays(N, T)
        assert ok


def test_cached_tower_still_reads_the_budget(monkeypatch):
    trees = generate.enumerate_trees(4, ROOTED)
    ts = model.tree_set([trees[0], trees[5]])
    monkeypatch.delenv("RETNET_BUDGET", raising=False)
    r, _ = solver.min_reticulations(ts)  # builds and caches the first tree's tower
    assert r >= 1
    monkeypatch.setenv("RETNET_BUDGET", "abc")
    with pytest.raises(DomainError, match="^RETNET_BUDGET must be a positive integer, not 'abc'$"):
        solver.min_reticulations(ts)


def test_tower_top_level_is_built_from_simple_children():
    for cached in (generate._level, generate._networks, solver._code_sets):
        cached.cache_clear()
    ts = model.tree_set(serialize.newick_to_tree(s) for s in ("((((1,2),3),4),5);",
                                                              "((((1,3),2),4),5);"))
    assert solver.min_reticulations(ts)[0] == 1
    # level 1 of the first tree's tower is read from level 0's simple children,
    # and never built in full
    info = generate._level.cache_info()
    assert info.currsize == 1
    assert generate._level(5, 0, ROOTED, ts.trees[0]) == (ts.trees[0],)
    assert generate._level.cache_info().misses == info.misses  # the one entry


def test_min_reticulations_witness_displays_all():
    trees = generate.enumerate_trees(3, ROOTED)
    r, N = solver.min_reticulations(model.tree_set(trees))  # all three
    assert 1 <= r <= 2
    for T in trees:
        ok, _ = display.displays(N, T)
        assert ok


def scan_min_reticulations(ts):
    """min_reticulations by a scan of all of N(n, r), r upward."""
    target = frozenset(canonical.canonical_code(T).bytes for T in ts.trees)
    for r in range((ts.t - 1) * ts.n + 1):
        for N, codes in solver._code_sets(ts.n, r, ts.mode):
            if target <= codes:
                return r, N


def test_tower_search_matches_full_scan():
    # pairs up to n = 4 rooted and n = 5 unrooted; each first tree costs a
    # tower, so at the largest n only three of them anchor
    for mode, n_max in [(ROOTED, 4), (UNROOTED, 5)]:
        for n in range(3, n_max + 1):
            trees = generate.enumerate_trees(n, mode)
            anchors = 3 if n == n_max else len(trees)
            for i, j in itertools.combinations(range(len(trees)), 2):
                if i >= anchors:
                    break
                ts = model.tree_set([trees[i], trees[j]])
                (r, N), (want_r, want) = solver.min_reticulations(ts), scan_min_reticulations(ts)
                assert r == want_r, ts
                if mode == ROOTED:  # eNewick is a graph invariant; unrooted JSON shows node ids
                    assert serialize.network_to_enewick(N) == serialize.network_to_enewick(want)
                else:
                    assert rn.are_isomorphic(N, want)


def test_relabelled_tree_is_its_shape_representative():
    for mode in (ROOTED, UNROOTED):
        for n in range(1, 7):
            for T in generate.enumerate_trees(n, mode):
                R, to = solver._relabelling(T)
                assert sorted(to) == sorted(to.values()) == list(range(1, n + 1))
                assert rn.are_isomorphic(solver._relabel(T, to), R), (mode, T)


# (n, t, mode) -> (r, witness): the witness is the least maximal t-set in
# canonical order
EXHAUSTIVE_WORST_CASES = {
    (3, 1, ROOTED): (0, ["((1,2),3);"]),
    (3, 2, ROOTED): (1, ["((1,2),3);", "((1,3),2);"]),
    (3, 3, ROOTED): (2, ["((1,2),3);", "((1,3),2);", "(1,(2,3));"]),
    (4, 2, UNROOTED): (1, ["(1,(2,3),4);", "(1,(2,4),3);"]),
    (4, 3, UNROOTED): (2, ["(1,(2,3),4);", "(1,(2,4),3);", "(1,2,(3,4));"]),
    (6, 2, UNROOTED): (2, ["(1,(((2,3),4),5),6);", "(1,(((2,3),6),5),4);"]),
}


def test_worst_case_r_tiny_points():
    r3, ts3 = solver.worst_case_r(3, 2, ROOTED)
    assert r3 == 1
    assert solver.min_reticulations(ts3)[0] == 1
    for (n, t, mode), (r, witness) in EXHAUSTIVE_WORST_CASES.items():
        got_r, ts = solver.worst_case_r(n, t, mode)
        assert (got_r, [serialize.tree_to_newick(T) for T in ts.trees]) == (r, witness)


def test_worst_case_dominates_counting_lower_bound():
    assert bounds.counting_lower_bound(3, 2, ROOTED) <= 1


def test_worst_case_sampled_reproducible():
    a = solver.worst_case_r(3, 2, ROOTED, samples=5, seed=42)
    b = solver.worst_case_r(3, 2, ROOTED, samples=5, seed=42)
    assert a[0] == b[0]
    assert [rn.canonical_code(t) for t in a[1].trees] == \
        [rn.canonical_code(t) for t in b[1].trees]
    # every pair on 3 leaves needs r = 1, so the witness is the seed's first draw
    first_draw = {0: ["((1,3),2);", "(1,(2,3));"], 1: ["((1,2),3);", "(1,(2,3));"],
                  2: ["((1,2),3);", "(1,(2,3));"], 7: ["((1,2),3);", "((1,3),2);"]}
    for seed, witness in first_draw.items():
        r, ts = solver.worst_case_r(3, 2, ROOTED, samples=4, seed=seed)
        assert (r, [serialize.tree_to_newick(T) for T in ts.trees]) == (1, witness)


def test_worst_case_exhaustive_limit():
    with pytest.raises(BudgetExceeded, match=r"^C\(135135, 2\) sets of trees"):  # 13!! trees
        solver.worst_case_r(8, 2, ROOTED)


def test_worst_case_rejects_samples_below_one():
    for samples in (0, -1):
        with pytest.raises(ValueError):
            solver.worst_case_r(3, 2, ROOTED, samples=samples)


def test_worst_case_rejects_empty_sets():
    for samples in (None, 2):
        with pytest.raises(ValueError, match="t must be at least 1"):
            solver.worst_case_r(3, 0, ROOTED, samples=samples)


def test_verify_counts_runs_each_canonical_search_once():
    # encode_tau's unrooted search repeats the one verify_counts has just run
    search = canonical._canon_general
    for mode, searches, repeats in [(UNROOTED, 204, 171), (ROOTED, 2861, 64)]:
        for cached in (generate._level, generate._networks,
                       solver._code_sets, search):
            cached.cache_clear()
        solver.verify_counts(3, 2, mode)
        info = search.cache_info()
        assert (info.misses, info.hits) == (searches, repeats), mode


def test_verify_counts_refuses_an_empty_grid():
    for n_max, r_max in [(0, 1), (3, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="n_max and r_max must be at least 1"):
            solver.verify_counts(n_max, r_max, ROOTED)


def test_verify_counts_all_hold():
    for mode in (ROOTED, UNROOTED):
        reps = solver.verify_counts(3, 1, mode)
        assert reps
        bad = [r for r in reps if not r.holds]
        assert not bad, bad
