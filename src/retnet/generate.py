"""Exhaustive generation of trees, networks, switchings, and labellings.

Trees are generated by leaf insertion, which emits every isomorphism
class exactly once.  Networks are generated from the trees by edge
addition, one reticulation per level (the moves of `_add_edge`).
Levels below r keep binary multigraphs, each level keeps one graph per
canonical code, and level r keeps the move-(a) children that are
simple.  Unrooted networks are then restricted to the leaf-connecting
ones, a class invariant tested once per class.

Rooted, this is complete: deleting an in-edge of a top reticulation
(none above it) and suppressing gives a level k-1 multi-network, from
which one move rebuilds the network.

Unrooted, the lower levels are connected multigraphs that may have
parallel edges and loops.  This is complete for n >= 2.  Take a level-k
multigraph.  If it has a loop at v, delete v with its loop and suppress
v's neighbour, which inverts (c).  Otherwise delete any edge x - y on a
cycle and suppress x and y, which inverts (b) if x - y was one of a
parallel pair and (a) if not.  Either way the result is a connected
level k-1 multigraph; suppression can create a loop, which is why the
lower levels keep them.  For n = 1 the one-node tree has no edge to
subdivide, so level 1 is seeded with its one graph, leaf - x with a
loop at x, and the argument runs from there.

Every enumerator checks its closed-form item count against one budget,
`check_budget`, before it builds anything.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from . import model
from .canonical import canonical_code, canonical_positions
from .errors import BudgetExceeded, DomainError, SwitchingMismatch
from .model import Graph, ReticulationLabelling, Switching, ROOTED, UNROOTED

BUDGET_ENV = "RETNET_BUDGET"
# 15!! <= 2^21 < 17!!: networks are admitted up to n + 2r = 9 rooted and 10 unrooted
DEFAULT_BUDGET = 1 << 21


def check_budget(factors: Iterable, what: str) -> None:
    """Refuse a job of more than RETNET_BUDGET items before any is built.

    The item count is the product of `factors`, each at least 1, so the
    product is multiplied out only until it passes the budget.
    """
    env = os.environ.get(BUDGET_ENV)
    try:
        budget = int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise DomainError(f"{BUDGET_ENV} must be an integer, not {env!r}") from None
    items = 1
    for f in factors:
        items *= f
        if items > budget:
            raise BudgetExceeded(f"{what} exceed the budget of {budget} items ({BUDGET_ENV})")


def _check_tree_budget(m: int, mode: str, leaves: str) -> None:
    k = 2 * m - (3 if mode == ROOTED else 5)  # bounds.tree_count(m, mode) = k!!
    check_budget(range(k, 1, -2), f"{k}!! {mode} trees on {leaves} leaves")


def _raw_trees(n: int, mode: str) -> Iterator[Graph]:
    """All trees on leaf set [n], one per class, in leaf-insertion order."""
    if mode == ROOTED:
        yield from _raw_rooted(n)
    else:
        yield from _raw_unrooted(n)


def _raw_rooted(n: int) -> Iterator[Graph]:
    def rec(k: int, nid: int, edges: tuple, root: int, labels: tuple) -> Iterator[Graph]:
        if k > n:
            yield model.make_graph(ROOTED, range(nid), edges, dict(labels))
            return
        z, w = nid, nid + 1
        lab = labels + ((z, k),)
        for i, (u, v) in enumerate(edges):
            new_edges = edges[:i] + edges[i + 1:] + ((u, w), (w, v), (w, z))
            yield from rec(k + 1, nid + 2, new_edges, root, lab)
        # above the root
        yield from rec(k + 1, nid + 2, edges + ((w, root), (w, z)), w, lab)

    yield from rec(2, 1, (), 0, ((0, 1),))


def _raw_unrooted(n: int) -> Iterator[Graph]:
    if n == 1:
        yield model.make_graph(UNROOTED, [0], [], {0: 1})
        return
    if n == 2:
        yield model.make_graph(UNROOTED, [0, 1], [(0, 1)], {0: 1, 1: 2})
        return

    def rec(k: int, nid: int, edges: tuple, labels: tuple) -> Iterator[Graph]:
        if k > n:
            yield model.make_graph(UNROOTED, range(nid), edges, dict(labels))
            return
        z, w = nid, nid + 1
        lab = labels + ((z, k),)
        for i, (u, v) in enumerate(edges):
            new_edges = edges[:i] + edges[i + 1:] + ((u, w), (w, v), (w, z))
            yield from rec(k + 1, nid + 2, new_edges, lab)

    star = ((3, 0), (3, 1), (3, 2))
    yield from rec(4, 4, star, ((0, 1), (1, 2), (2, 3)))


@lru_cache(maxsize=32)
def _trees_sorted(n: int, mode: str) -> tuple[Graph, ...]:
    return tuple(sorted(_raw_trees(n, mode), key=lambda T: canonical_code(T).bytes))


def enumerate_trees(n: int, mode: str = ROOTED) -> tuple[Graph, ...]:
    """Every tree class on leaf set [n] exactly once, in canonical-code order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_tree_budget(n, mode, str(n))
    return _trees_sorted(n, mode)


def enumerate_networks(n: int, r: int, mode: str = ROOTED, *, leaf_connecting: bool = True):
    """Every binary network class with n leaves and r reticulations, exactly once.

    Unrooted networks are restricted to the leaf-connecting class unless
    `leaf_connecting=False`.  Ordered by canonical code.
    """
    if n < 1 or r < 0:
        raise ValueError("n must be at least 1 and r at least 0")
    if r == 0:
        return enumerate_trees(n, mode)
    _check_tree_budget(n + 2 * r, mode, f"n + 2r = {n + 2 * r}")
    return _networks_cached(n, r, mode, leaf_connecting)


@lru_cache(maxsize=64)
def _networks_cached(n: int, r: int, mode: str, leaf_connecting: bool):
    if mode == UNROOTED and leaf_connecting:  # a class invariant, so tested once per class
        return tuple(N for N in _networks_cached(n, r, mode, False) if model.is_leaf_connecting(N))
    # The moves keep the degrees, the labels, connectivity and (rooted) a single
    # root and no directed cycle, so simplicity is all `model.validate` could still fail.
    return _classes(C for P in _level(n, r - 1, mode) for C in _add_edge(P, multi=False)
                    if len(set(C.edges)) == len(C.edges) and all(a != b for a, b in C.edges))


@lru_cache(maxsize=32)
def _level(n: int, k: int, mode: str) -> tuple[Graph, ...]:
    """Binary multigraphs with n leaves and k reticulations, one per class.

    Rooted ones may have parallel edges; unrooted ones are connected and
    may have parallel edges and loops.
    """
    if k == 0:
        return _trees_sorted(n, mode)
    if mode == UNROOTED and n == 1 and k == 1:  # the one-leaf tree has no edge to subdivide
        return (Graph(UNROOTED, 2, ((0, 1), (1, 1)), ((0, 1),)),)
    return _classes(C for P in _level(n, k - 1, mode) for C in _add_edge(P, multi=True))


def _classes(graphs: Iterable[Graph]) -> tuple[Graph, ...]:
    """The first graph of each isomorphism class, in canonical-code order."""
    seen: dict[bytes, Graph] = {}
    for G in graphs:
        seen.setdefault(canonical_code(G).bytes, G)
    return tuple(seen[c] for c in sorted(seen))


def _add_edge(P: Graph, multi: bool) -> Iterator[Graph]:
    """The children of P by one new edge u -> v (unrooted u - v) between two new nodes.

    (a) u and v subdivide two distinct edges; if `multi`, also (b) u and v
    subdivide one edge, u above v, and u -> v is doubled, and, unrooted
    only, (c) u subdivides one edge, v hangs from u and gets a loop.
    Rooted: (a) is skipped where it closes a cycle, and u's edge may be
    the virtual edge above the root.  So that a child comes from one
    parent only, up to ties, v must be a top reticulation with the least
    cluster (leaf labels below, as a bit set) among the child's, and u's
    other child must not have a smaller cluster than v's other parent's
    other child.
    """
    u, v = P.num_nodes, P.num_nodes + 1
    edges = list(P.edges)

    def child(new_edges: list, *drop) -> Graph:
        rest = [e for i, e in enumerate(edges) if i not in drop]
        return Graph(P.mode, v + 1, tuple(sorted(rest + new_edges)), P.leaf_labels)

    if P.mode == UNROOTED:  # u and v exceed every old id, so each new edge is (min, max)
        for i, (a, b) in enumerate(edges):
            for j in range(i + 1, len(edges)):
                c, d = edges[j]
                yield child([(a, u), (b, u), (c, v), (d, v), (u, v)], i, j)
            if multi:
                yield child([(a, u), (u, v), (u, v), (b, v)], i)
                yield child([(a, u), (b, u), (u, v), (v, v)], i)
        return
    kids = model.out_adj(P)
    parents = [[a for a, b in edges if b == x] for x in range(u)]
    order = model.topological_order(P)
    leaf, cluster = dict(P.leaf_labels), [0] * u
    for x in reversed(order):  # a binary node has one or two children
        cluster[x] = 1 << leaf[x] if x in leaf else cluster[kids[x][0]] | cluster[kids[x][-1]]
    # each node with no reticulation at or above it -> its ancestors, itself included
    above: dict[int, set[int]] = {}
    for x in order:
        ps = parents[x]
        if not ps or (len(ps) == 1 and ps[0] in above):
            above[x] = above[ps[0]] | {x} if ps else {x}
    tops = [(x, above[ps[0]] | above[ps[1]] | {x}) for x, ps in enumerate(parents)
            if len(ps) == 2 and ps[0] in above and ps[1] in above]
    # heads d for which v on d's in-edge has the least cluster of the child's top reticulations
    least = {d for d in range(u) if all(cluster[d] <= cluster[h] for h, up in tops if d not in up)}

    # None stands for the virtual edge above the root
    for i in [None] + [i for i, (a, _) in enumerate(edges) if a in above]:
        a, b = (None, model.root_of(P)) if i is None else edges[i]
        split = [(u, b)] + ([] if a is None else [(a, u)])
        for j, (c, d) in enumerate(edges):
            # d at or above a closes a cycle; if c == a, u is v's other parent's other child
            if (j != i and c in above and (a is None or d not in above[a]) and d in least
                    and cluster[b] >= (cluster[b] | cluster[d] if c == a
                                       else cluster[kids[c][kids[c][0] == d]])):
                yield child(split + [(c, v), (v, d), (u, v)], i, j)
        if multi and b in least:
            yield child(split[1:] + [(u, v), (u, v), (v, b)], i)


def enumerate_switchings(N: Graph) -> tuple[Switching, ...]:
    """All switchings of N: 2^r for rooted, one per spanning tree for unrooted.

    Unrooted switchings are found among the C(|E|, r) sets of r edges.
    """
    if N.mode == ROOTED:
        rets = model.reticulations_of(N)
        check_budget(itertools.repeat(2, len(rets)), f"2^{len(rets)} switchings")
        in_edges = [sorted((u, v) for u, v in N.edges if v == ret) for ret in rets]
        out = []
        for off in itertools.product(*in_edges):
            out.append(Switching(N, frozenset(off)))
        return tuple(out)
    r = model.reticulation_count(N)
    m = len(N.edges)
    # C(m, i) grows with i up to m/2, so multiply out the smaller side of C(m, r) = C(m, m - r)
    check_budget((Fraction(m - i, i + 1) for i in range(min(r, m - r))),
                 f"C({m}, {r}) edge sets")
    out = []
    for off in itertools.combinations(sorted(N.edges), r):
        off_set = set(off)
        on = [e for e in N.edges if e not in off_set]
        if model._is_connected(N.num_nodes, on) and len(on) == N.num_nodes - 1:
            out.append(Switching(N, frozenset(off)))
    return tuple(out)


def fixed_switching(N: Graph) -> Switching:
    """A deterministic switching per isomorphism class.

    The lexicographically least switching when edges are named by their
    canonical node positions; isomorphic networks get isomorphic fixed
    switchings.
    """
    options = enumerate_switchings(N)
    if len(options) == 1:
        return options[0]
    pos = canonical_positions(N)

    def key(s: Switching):
        return sorted(model._norm_edge(N.mode, pos[u], pos[v]) for u, v in s.off_edges)

    return min(options, key=key)


def reticulation_labellings(N: Graph, sigma: Switching) -> tuple[ReticulationLabelling, ...]:
    """All r! bijective number assignments extending the switching sigma."""
    if sigma.host != N:
        raise SwitchingMismatch("switching is not hosted by this network")
    report = model.validate(sigma)
    if not report.ok:
        raise SwitchingMismatch("; ".join(report.violations))
    off = sorted(sigma.off_edges)
    check_budget(range(1, len(off) + 1), f"{len(off)}! labellings")
    out = []
    for perm in itertools.permutations(range(1, len(off) + 1)):
        numbered = tuple(sorted(zip(off, perm), key=lambda eh: eh[1]))
        out.append(ReticulationLabelling(N, numbered))
    return tuple(out)


def all_reticulation_labellings(N: Graph) -> Iterator[ReticulationLabelling]:
    """Every reticulation labelling of N, over every switching."""
    for sigma in enumerate_switchings(N):
        yield from reticulation_labellings(N, sigma)
