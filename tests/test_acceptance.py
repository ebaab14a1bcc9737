"""Top-level acceptance gate.

Each test prints one ``ACCEPTANCE k: PASS|FAIL`` line (visible with
``pytest -s`` or on failure) and enforces its own time budget.
"""

import math
import random
import time
from fractions import Fraction

from oracles import displays_by_subdivision
from retnet import bounds, canonical, codec, display, generate, model, serialize, solver
from retnet.model import ROOTED, UNROOTED


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_01_tree_counts():
    t0 = time.time()
    ok = True
    for n in range(1, 8):
        ok &= len(generate.enumerate_trees(n, ROOTED)) == bounds.tree_count(n, ROOTED)
    for n in range(1, 9):
        ok &= len(generate.enumerate_trees(n, UNROOTED)) == bounds.tree_count(n, UNROOTED)
    ok &= bounds.tree_count(7, ROOTED) == 10395
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(1, ok, f"tree counts match double factorials, {elapsed:.1f}s")


def test_acceptance_02_lemma_suite():
    t0 = time.time()
    reps = bounds.verify_math_lemmas(64)
    elapsed = time.time() - t0
    ok = bool(reps) and all(r.holds for r in reps) and elapsed < 5
    _report(2, ok, f"{len(reps)} certified inequality checks, {elapsed:.2f}s")


def _codec_sweep():
    cases = ([(ROOTED, n, r) for n in (1, 2, 3) for r in (1, 2)]
             + [(ROOTED, 4, 1)]
             + [(UNROOTED, n, 1) for n in (2, 3, 4)])
    for mode, n, r in cases:
        for N in generate.enumerate_networks(n, r, mode):
            for lab in generate.all_reticulation_labellings(N):
                yield mode, n, r, N, lab


def test_acceptance_03_and_04_codec_and_unit_automorphism():
    t0 = time.time()
    labelled, images = {}, {}
    aut_ok = True
    roundtrip_ok = True
    for mode, n, r, N, lab in _codec_sweep():
        T = codec.encode_tau(N, lab)
        key = (mode, n, r)
        lc = canonical.canonical_code(N, lab).bytes
        ic = canonical.canonical_code(T).bytes
        labelled.setdefault(key, set()).add(lc)
        images.setdefault(key, set()).add(ic)
        N2, lab2 = codec.decode_tau(T, n, r)
        if canonical.canonical_code(N2, lab2).bytes != lc:
            roundtrip_ok = False
        if canonical.automorphism_count(lab) != 1:
            aut_ok = False
    injective = all(len(images[k]) == len(labelled[k]) for k in labelled)
    elapsed = time.time() - t0
    ok3 = injective and roundtrip_ok and elapsed < 300
    total = sum(len(v) for v in labelled.values())
    _report(3, ok3,
            f"codec injective and invertible on {total} labelled networks, {elapsed:.1f}s")
    _report(4, aut_ok, "every reticulation-labelled network has trivial automorphism group")


def test_acceptance_05_counting_chain():
    ok = True
    for mode in (ROOTED, UNROOTED):
        for n in (1, 2, 3):
            for r in (1, 2):
                count = len(generate.enumerate_networks(n, r, mode))
                m = n + 2 * r
                df = bounds.double_factorial(2 * m - 3 if mode == ROOTED else 2 * m - 5)
                ok &= count * math.factorial(r) <= df
                b = bounds.network_count_bound(n, r, mode)
                ok &= Fraction(count) <= b.tight
                if b.relaxed is not None:
                    ok &= b.tight <= b.relaxed
    _report(5, ok, "enumerated counts respect the double-factorial bound chain")


def test_acceptance_06_display_bounds():
    ok = True
    for n in (2, 3):
        for r in (1, 2):
            for N in generate.enumerate_networks(n, r, ROOTED):
                ok &= len(display.displayed_trees(N)) <= 2 ** r
            for N in generate.enumerate_networks(n, r, UNROOTED):
                ok &= len(N.edges) == 2 * n + 3 * r - 3
                sts = generate.enumerate_switchings(N)
                ok &= len(sts) <= math.comb(n + 3 * r - 3, r)
    _report(6, ok, "displayed-tree and spanning-tree counts within bounds")


def test_acceptance_07_display_oracle_equivalence():
    checked = 0
    ok = True
    for mode in (ROOTED, UNROOTED):
        for n in (2, 3):
            trees = generate.enumerate_trees(n, mode)
            for r in (1, 2):
                for N in generate.enumerate_networks(n, r, mode):
                    for T in trees:
                        fast, _ = display.displays(N, T)
                        slow = displays_by_subdivision(N, T)
                        ok &= fast == slow
                        checked += 1
    _report(7, ok, f"switching and subdivision oracles agree on {checked} pairs")


def test_acceptance_08_trivial_network_random_tree_sets():
    rng = random.Random(2024)
    ok = True
    for _ in range(50):
        n = rng.randint(3, 6)
        t = rng.randint(1, 3)
        pool = generate.enumerate_trees(n, ROOTED)
        ts = model.tree_set(rng.sample(pool, min(t, len(pool))))
        N = display.trivial_network(ts)
        ok &= model.validate(N).ok
        ok &= model.reticulation_count(N) == (ts.t - 1) * n
        for T in ts.trees:
            shown, _ = display.displays(N, T)
            ok &= shown
    _report(8, ok, "trivial networks valid with (t-1)n reticulations, displaying all members")


def test_acceptance_09_worst_case_tiny():
    t0 = time.time()
    r32, _ = solver.worst_case_r(3, 2, ROOTED)
    r42, w42 = solver.worst_case_r(4, 2, ROOTED)
    elapsed = time.time() - t0
    ok = (r32 == 1 and r42 == 2
          and [serialize.tree_to_newick(T) for T in w42.trees] == ["(((1,2),3),4);",
                                                                   "(((1,4),3),2);"]
          and bounds.counting_lower_bound(3, 2, ROOTED) <= r32
          and bounds.counting_lower_bound(4, 2, ROOTED) <= r42
          and elapsed < 600)
    _report(9, ok, f"worst_case_r(3,2)={r32}, worst_case_r(4,2)={r42}, {elapsed:.1f}s")


def test_acceptance_10_bound_evaluators():
    t0 = time.time()
    iv = bounds.formula_lower_bound(2 ** 16, 4, ROOTED)
    ok = iv.radius <= Fraction(1, 10 ** 20) and iv.midpoint == Fraction(1572856, 22)
    for k in range(10, 21):
        n = 1 << k
        for t in range(2, 17):
            f = bounds.formula_lower_bound(n, t, ROOTED)
            if f.hi <= 0:
                continue
            ok &= bounds.counting_lower_bound(n, t, ROOTED) >= math.ceil(f.hi)
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(10, ok, f"exact formula point and 165-point grid dominance, {elapsed:.1f}s")
