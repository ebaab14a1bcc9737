"""Brute-force ground truth: minimum reticulations, worst-case tree sets,
and the enumeration-vs-bounds verification harness."""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import Optional

from . import bounds, codec, display, generate
from .canonical import _general_code, canonical_code, classes
from .errors import BudgetExceeded
from .model import Graph, TreeSet, ROOTED


@lru_cache(maxsize=64)
def _displayed_code_sets(n: int, r: int, mode: str) -> tuple[tuple[Graph, frozenset], ...]:
    """(network, frozenset of displayed tree codes) for every class in N_{n,r}.

    The solver reads displays only through this table."""
    return tuple((N, frozenset(code for _, code in display._switching_codes(N)))
                 for N in generate.enumerate_networks(n, r, mode))


def min_reticulations(ts: TreeSet) -> tuple[int, Graph]:
    """Least r such that some network with r reticulations displays every member.

    A single tree is its own witness.  Otherwise searches r upward through
    the canonical enumeration order, so the witness is deterministic, up
    to (t-1)n, the trivial network's reticulation count.
    """
    if ts.t == 1:
        return 0, ts.trees[0]
    r_cap = (ts.t - 1) * ts.n
    target = frozenset(canonical_code(T).bytes for T in ts.trees)
    for r in range(r_cap + 1):
        for N, codes in _displayed_code_sets(ts.n, r, ts.mode):
            if target <= codes:
                return r, N
    raise BudgetExceeded(f"no displaying network found up to r = {r_cap}")


def worst_case_r(n: int, t: int, mode: str = ROOTED, *,
                 samples: Optional[int] = None, seed: int = 0) -> tuple[int, TreeSet]:
    """Maximum of min_reticulations over t-element tree sets on [n].

    Exhaustive for n <= 4 rooted / n <= 5 unrooted; beyond that a sample
    count must be given, and the maximum is over that many seeded draws.
    The witness is the first maximal set searched: exhaustively, the
    least maximal set in canonical order; sampled, the first maximal draw.
    """
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1")
    if t < 1:
        raise ValueError("t must be at least 1")
    exhaustive_limit = 4 if mode == ROOTED else 5
    if samples is None and n > exhaustive_limit:
        raise BudgetExceeded(f"exhaustive search capped at n = {exhaustive_limit}; "
                             "pass a sample count beyond that")
    trees = generate.enumerate_trees(n, mode)
    if t > len(trees):
        raise ValueError(f"only {len(trees)} trees exist on {n} leaves")

    if samples is None:
        candidates = itertools.combinations(trees, t)  # trees are in canonical order
    else:
        rng = random.Random(seed)
        candidates = (classes(rng.sample(trees, t)) for _ in range(samples))
    best_r, best_set = -1, None
    for subset in candidates:
        ts = TreeSet(mode, tuple(subset))
        r, _ = min_reticulations(ts)
        if r > best_r:
            best_r, best_set = r, ts
    return best_r, best_set


def verify_counts(n_max: int, r_max: int, mode: str = ROOTED) -> list[bounds.BoundReport]:
    """Run every enumeration-vs-bound check over the (n, r) grid.

    Per point: the counting chain |N_{n,r}| * r! <= (2(n+2r)-3)!! (or the
    unrooted analogue), the tight and relaxed network-count bounds, the
    displayed-tree bounds, codec injectivity, and the unit-automorphism
    property of labelled networks.
    """
    reports: list[bounds.BoundReport] = []
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            table = _displayed_code_sets(n, r, mode)
            params = {"n": n, "r": r, "mode": mode}
            nb = bounds.network_count_bound(n, r, mode)
            df_arg = 2 * (n + 2 * r) - (3 if mode == ROOTED else 5)
            chain = len(table) * math.factorial(r) <= bounds.double_factorial(df_arg)
            reports.append(bounds.BoundReport(
                "counting-chain", params,
                lhs=len(table) * math.factorial(r),
                rhs=bounds.double_factorial(df_arg), holds=chain))
            tight_ok = len(table) <= nb.tight
            relaxed_ok = nb.relaxed is None or nb.tight <= nb.relaxed
            reports.append(bounds.BoundReport(
                "network-count-bound", params, lhs=len(table),
                rhs=(nb.tight, nb.relaxed), holds=tight_ok and relaxed_ok))

            disp_ok = True
            codec_images: set[bytes] = set()
            labelled_codes: set[bytes] = set()
            autos_ok = True
            for N, codes in table:
                if mode == ROOTED:
                    if len(codes) > 2 ** r:
                        disp_ok = False
                else:
                    st = sum(1 for _ in generate._switchings(N))
                    if len(codes) > st or st > math.comb(n + 3 * r - 3, r):
                        disp_ok = False
                    if len(N.edges) != 2 * n + 3 * r - 3:
                        disp_ok = False
                for lab in generate.all_reticulation_labellings(N):
                    # distinct labelled networks must encode to distinct trees
                    code, autos = _general_code(N, lab)
                    labelled_codes.add(code.bytes)
                    codec_images.add(canonical_code(codec.encode_tau(N, lab)).bytes)
                    if autos != 1:
                        autos_ok = False
            reports.append(bounds.BoundReport(
                "displayed-trees-bound", params, lhs=None, rhs=None, holds=disp_ok))
            reports.append(bounds.BoundReport(
                "codec-injective", params, lhs=len(codec_images),
                rhs=len(labelled_codes), holds=len(codec_images) == len(labelled_codes)))
            reports.append(bounds.BoundReport(
                "unit-automorphism", params, lhs=None, rhs=None, holds=autos_ok))
    return reports
