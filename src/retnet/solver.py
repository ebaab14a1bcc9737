"""Brute-force ground truth: minimum reticulations, worst-case tree sets,
and the enumeration-vs-bounds verification harness.

Every network that displays a tree set displays its first tree T1, so
`min_reticulations` searches T1's tower (`generate._networks` with T1),
level by level, in place of all of N(n, r).  `worst_case_r` relabels
each candidate set so that its first tree becomes the representative
tree of its unlabelled shape, which `canonical._shape` builds, and
searches that shape's tower: the minimum does not change under leaf
relabelling, and the candidates then share one tower per shape.  One
table, `_code_sets`, holds the displayed tree codes of each network
searched, for a tower or for all of N(n, r).  `verify_counts` searches
each network of N(n, r) once: its labelled classes are the orbits of its
labellings under its automorphisms (`_labelled_classes`).
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import Iterator, Optional

from . import bounds, codec, display, generate, model
from .canonical import _canon_general, _shape, canonical_code, classes
from .errors import ROOTED, BudgetExceeded, DomainError, _budget
from .model import Graph, ReticulationLabelling, TreeSet


@lru_cache(maxsize=128)
def _code_sets(n: int, r: int, mode: str, T1: Optional[Graph] = None
               ) -> tuple[tuple[Graph, frozenset], ...]:
    """(network, frozenset of displayed tree codes) for every class in N(n, r),
    or with T1 for every one that displays T1, in canonical order."""
    return tuple((N, frozenset(code for _, code in display._switching_codes(N)))
                 for N in generate._networks(n, r, mode, T1, True))


def _least_r(T1: Graph, target: frozenset, r_cap: int) -> tuple[int, Graph]:
    """The least r, and the first network in canonical order with r
    reticulations, that displays every code in `target`; T1 must be one of them."""
    _budget()  # a cached tower is not checked again, but a bad budget is still reported
    for r in range(r_cap + 1):
        for N, codes in _code_sets(T1.n, r, T1.mode, T1):
            if target <= codes:
                return r, N
    raise BudgetExceeded(f"no displaying network found up to r = {r_cap}")


def min_reticulations(ts: TreeSet) -> tuple[int, Graph]:
    """Least r such that some network with r reticulations displays every member.

    Searches r upward, up to (t-1)n, the trivial network's reticulation
    count, through the networks that display the first member, in
    canonical order; so the witness is the first network of N(n, r) in
    canonical order that displays the set, and a single tree is its own
    witness, at r = 0.  An invalid set raises DomainError before any search.
    """
    model.check(ts, DomainError, "invalid tree set: ")
    target = frozenset(canonical_code(T).bytes for T in ts.trees)
    return _least_r(ts.trees[0], target, (ts.t - 1) * ts.n)


def _relabel(T: Graph, to: dict[int, int]) -> Graph:
    return Graph(T.mode, T.num_nodes, T.edges, tuple((v, to[x]) for v, x in T.leaf_labels))


def worst_case_r(n: int, t: int, mode: str = ROOTED, *,
                 samples: Optional[int] = None, seed: int = 0) -> tuple[int, TreeSet]:
    """Maximum of min_reticulations over t-element tree sets on [n].

    Exhaustive over the C(T(n), t) sets, checked against the budget first,
    unless a sample count is given: then over that many seeded draws.
    The witness is the first maximal set searched: exhaustively, the
    least maximal set in canonical order; sampled, the first maximal draw.
    Each set's minimum is read, after relabelling, from the tower of the
    representative tree of its first member's shape.
    """
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1")
    if t < 1:
        raise ValueError("t must be at least 1")
    if samples is None:
        generate._check_choose(generate._tree_count(n, mode), t, "sets of trees")
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
        R, to = _shape(subset[0])
        target = frozenset(canonical_code(_relabel(T, to)).bytes for T in subset)
        r, _ = _least_r(R, target, (t - 1) * n)
        if r > best_r:
            best_r, best_set = r, TreeSet(mode, tuple(subset))
    return best_r, best_set


def _labelled_classes(N: Graph) -> Iterator[tuple[ReticulationLabelling, tuple, int]]:
    """Each reticulation labelling of the simple network N, with its class key among
    N's labellings and its automorphism count, from one search of N.

    The search's leaves are Aut(N): each maps N onto N's canonical ordering.
    A labelling's key is the least image of its numbered edges, in number
    order, under those maps, in canonical coordinates; two labellings of N
    are isomorphic exactly when their keys are equal (N is simple, so two
    ends name one edge).  Its automorphisms are the leaves that reach the key.
    """
    _, _, leaves = _canon_general(N)
    ends = [[(p[u], p[v]) if N.mode == ROOTED or p[u] < p[v] else (p[v], p[u]) for u, v in N.edges]
            for p in leaves]
    for lab in generate.all_reticulation_labellings(N):
        images = [tuple(edge[i] for i, _ in lab.numbered) for edge in ends]
        key = min(images)
        yield lab, key, images.count(key)


def verify_counts(n_max: int, r_max: int, mode: str = ROOTED) -> list[bounds.BoundReport]:
    """Run every enumeration-vs-bound check over the (n, r) grid.

    Per point: the counting chain |N_{n,r}| * r! <= T(n + 2r), the tight
    and relaxed network-count bounds, the displayed-tree bounds, codec
    injectivity, and the unit-automorphism property of labelled networks.
    The labelled classes are the Aut(N) orbits of each network N's
    labellings, read off one search of N, and a labelling's automorphisms
    are its stabilizer in Aut(N).
    """
    if n_max < 1 or r_max < 1:  # an empty grid would check nothing and report success
        raise ValueError(f"n_max and r_max must be at least 1, not {n_max} and {r_max}")
    reports: list[bounds.BoundReport] = []
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            table = _code_sets(n, r, mode)
            params = {"n": n, "r": r, "mode": mode}
            nb = bounds.network_count_bound(n, r, mode)
            lhs, rhs = len(table) * math.factorial(r), bounds.tree_count(n + 2 * r, mode)
            reports.append(bounds.BoundReport("counting-chain", params,
                                              lhs=lhs, rhs=rhs, holds=lhs <= rhs))
            tight_ok = len(table) <= nb.tight
            relaxed_ok = nb.relaxed is None or nb.tight <= nb.relaxed
            reports.append(bounds.BoundReport(
                "network-count-bound", params, lhs=len(table),
                rhs=(nb.tight, nb.relaxed), holds=tight_ok and relaxed_ok))

            disp_ok = True
            codec_images: set[bytes] = set()
            labelled_keys: set[tuple] = set()
            autos_ok = True
            for j, (N, codes) in enumerate(table):
                if mode == ROOTED:
                    if len(codes) > 2 ** r:
                        disp_ok = False
                else:
                    st = sum(1 for _ in generate._off_edges(N))
                    if len(codes) > st or st > math.comb(n + 3 * r - 3, r):
                        disp_ok = False
                    if len(N.edges) != 2 * n + 3 * r - 3:
                        disp_ok = False
                for lab, key, autos in _labelled_classes(N):
                    # distinct labelled networks must encode to distinct trees
                    labelled_keys.add((j, key))
                    codec_images.add(canonical_code(codec._encode(lab)).bytes)
                    if autos != 1:
                        autos_ok = False
            reports.append(bounds.BoundReport(
                "displayed-trees-bound", params, lhs=None, rhs=None, holds=disp_ok))
            reports.append(bounds.BoundReport(
                "codec-injective", params, lhs=len(codec_images),
                rhs=len(labelled_keys), holds=len(codec_images) == len(labelled_keys)))
            reports.append(bounds.BoundReport(
                "unit-automorphism", params, lhs=None, rhs=None, holds=autos_ok))
    return reports
