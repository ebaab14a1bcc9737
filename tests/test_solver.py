import pytest

import retnet as rn
from retnet import bounds, display, generate, model, solver
from retnet.errors import BudgetExceeded
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


def test_min_reticulations_witness_displays_all():
    trees = generate.enumerate_trees(3, ROOTED)
    r, N = solver.min_reticulations(model.tree_set(trees))  # all three
    assert 1 <= r <= 2
    for T in trees:
        ok, _ = display.displays(N, T)
        assert ok


def test_worst_case_r_tiny_points():
    r3, ts3 = solver.worst_case_r(3, 2, ROOTED)
    assert r3 == 1
    assert solver.min_reticulations(ts3)[0] == 1


def test_worst_case_dominates_counting_lower_bound():
    assert bounds.counting_lower_bound(3, 2, ROOTED) <= 1


def test_worst_case_sampled_reproducible():
    a = solver.worst_case_r(3, 2, ROOTED, samples=5, seed=42)
    b = solver.worst_case_r(3, 2, ROOTED, samples=5, seed=42)
    assert a[0] == b[0]
    assert [rn.canonical_code(t) for t in a[1].trees] == \
        [rn.canonical_code(t) for t in b[1].trees]


def test_worst_case_exhaustive_limit():
    with pytest.raises(BudgetExceeded):
        solver.worst_case_r(6, 2, ROOTED)


def test_worst_case_rejects_samples_below_one():
    for samples in (0, -1):
        with pytest.raises(ValueError):
            solver.worst_case_r(3, 2, ROOTED, samples=samples)


def test_verify_counts_all_hold():
    for mode in (ROOTED, UNROOTED):
        reps = solver.verify_counts(3, 1, mode)
        assert reps
        bad = [r for r in reps if not r.holds]
        assert not bad, bad
