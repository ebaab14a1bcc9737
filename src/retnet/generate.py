"""Exhaustive generation of trees, networks, switchings, and labellings.

Everything comes from one augmentation recursion, level by level, and
each level keeps the first graph of each class in canonical-code order
(`canonical.classes`).  Level 0 holds the trees on [n], built from the
trees on [n - 1] by the leaf move of `_add_leaf`; deleting leaf n
inverts it, so every tree arises exactly once.  Level k + 1 is built
from level k by the edge moves of `_add_edge`, one reticulation each.
Levels below r keep binary multigraphs, and level r keeps the children
that are simple, which only move (a) gives.  Unrooted networks are then
restricted to the leaf-connecting ones, a class invariant tested once
per class.

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

Anchored generation, `_level(n, k, mode, T1)`, runs the same recursion
from one tree T1 in place of all the trees, with rooted rule 3 of
`_add_edge` switched off: T1's tower.  `_networks` builds level r of
both from the simple children of level r - 1, so with T1 it gives the
networks of N(n, r) that display T1, in the same order: all that a
search for a network displaying T1 and other trees needs to look at.

Every job is checked against one budget, `errors.check_budget`, before
it is built.  Each edge-addition level, of all trees or of a tower, is
checked by the moves that build it (`_grow`), once the level below it is
built; level 0 is counted in closed form, so a level-1 refusal builds
nothing.  A cached level is not checked again, but `enumerate_networks`
reads the budget before its cache, so a bad RETNET_BUDGET is always
reported.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from . import model
from .canonical import classes
from .errors import (MODES, ROOTED, UNROOTED, DomainError, SwitchingMismatch, _budget,
                     check_budget)
from .model import Graph, ReticulationLabelling, Switching


def _check_choose(m: int, r: int, what: str) -> None:
    # C(m, i) grows with i up to m/2, so multiply out the smaller side of C(m, r) = C(m, m - r)
    check_budget((Fraction(m - i, i + 1) for i in range(min(r, m - r))), f"C({m}, {r}) {what}")


def _tree_count(n: int, mode: str) -> int:
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    k = 2 * n - (3 if mode == ROOTED else 5)  # bounds.tree_count(n, mode) = k!!
    return check_budget(range(k, 1, -2), f"{k}!! {mode} trees on {n} leaves")


def enumerate_trees(n: int, mode: str = ROOTED) -> tuple[Graph, ...]:
    """Every tree class on leaf set [n] exactly once, in canonical-code order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _tree_count(n, mode)
    return _level(n, 0, mode, None)


def enumerate_networks(n: int, r: int, mode: str = ROOTED, *, leaf_connecting: bool = True):
    """Every binary network class with n leaves and r reticulations, exactly once.

    Unrooted networks are restricted to the leaf-connecting class unless
    `leaf_connecting=False`.  Ordered by canonical code.
    """
    if n < 1 or r < 0:
        raise ValueError("n must be at least 1 and r at least 0")
    _budget()  # a cached level is not checked again, but a bad budget is still reported
    if r == 0:
        return enumerate_trees(n, mode)
    # the restriction is unrooted only, so rooted calls share one cache entry
    return _networks(n, r, mode, None, leaf_connecting or mode == ROOTED)


@lru_cache(maxsize=128)
def _networks(n: int, r: int, mode: str, T1: Optional[Graph], leaf_connecting: bool):
    """N(n, r) in canonical-code order, or with a tree T1 on [n] its networks that
    display T1; unrooted and `leaf_connecting`, only the leaf-connecting ones."""
    if r == 0:
        return _level(n, 0, mode, T1)
    if mode == UNROOTED and leaf_connecting:  # a class invariant, so tested once per class
        return tuple(N for N in _networks(n, r, mode, T1, False) if model.is_leaf_connecting(N))
    return _grow(n, r, mode, T1, simple=True)


def _is_simple(G: Graph) -> bool:
    # The moves keep the degrees, the labels, connectivity and (rooted) a single
    # root and no directed cycle, so simplicity is all `model.validate` could still fail;
    # move (b) and (c) children never pass it.
    return len(set(G.edges)) == len(G.edges) and all(a != b for a, b in G.edges)


@lru_cache(maxsize=128)
def _level(n: int, k: int, mode: str, T1: Optional[Graph]) -> tuple[Graph, ...]:
    """Binary multigraphs with n leaves and k reticulations, one per class; given a
    tree T1 on [n], level k of T1's tower: only those that display T1.

    Level 0 holds the trees, or T1 alone.  Rooted levels above it may
    have parallel edges; unrooted ones are connected and may have
    parallel edges and loops.  Both are in canonical-code order.

    T1's tower builds level k from level k - 1 by `_add_edge` with rooted
    rule 3 switched off.  Every child displays T1: the parent's T1
    switching with the new edge u -> v off still has T1's tree code (u
    and v only subdivide, or hang leafless).  Conversely, take a level-k
    multigraph G with a T1 switching, and a top reticulation v that rules
    1 and 2 accept.  Deleting v's off in-edge and suppressing gives a
    level k - 1 multigraph that keeps the switching, so displays T1, and
    a move rebuilds G.  Rule 3 would fix which in-edge of v is new, and
    that may be the on edge, so it is off here.  Unrooted, delete an off
    edge (a loop, with its node, if there is one) as in the module
    docstring.  With one leaf every graph displays T1, and the tower runs
    the same moves from the same seed as the recursion without T1.
    """
    if k == 0:
        if T1 is not None:
            return (T1,)
        if n == 1:
            return (Graph(mode, 1, (), ((0, 1),)),)
        if n == 2 and mode == UNROOTED:  # the one-node tree has no edge to subdivide
            return (Graph(UNROOTED, 2, ((0, 1),), ((0, 1), (1, 2))),)
        return classes(C for P in _level(n - 1, 0, mode, None) for C in _add_leaf(P))
    if mode == UNROOTED and n == 1 and k == 1:  # the one-leaf tree has no edge to subdivide
        return (Graph(UNROOTED, 2, ((0, 1), (1, 1)), ((0, 1),)),)
    return _grow(n, k, mode, T1)


def _grow(n: int, k: int, mode: str, T1: Optional[Graph], *, simple: bool = False):
    """Level k of `_level` (with `simple`, only its simple graphs), once
    |level k - 1| times the moves per parent passes the budget: (|E| + 1)^2
    rooted and C(|E|, 2) + 2|E| unrooted, for the |E| edges of a level
    k - 1 graph (each move adds three)."""
    below = _level(n, k - 1, mode, T1) if T1 is not None or k > 1 else None  # trees: closed form
    size = _tree_count(n, mode) if below is None else len(below)
    e = max(2 * n - (2 if mode == ROOTED else 3) + 3 * (k - 1), 0)  # 1-leaf trees have none
    moves = (e + 1) ** 2 if mode == ROOTED else e * (e - 1) // 2 + 2 * e
    of = "the tower" if T1 is not None else f"the {n}-leaf networks"
    check_budget((size, moves), f"the {size} x {moves} moves that build level {k} of {of}")
    return classes(C for P in (_level(n, 0, mode, None) if below is None else below)
                   for C in _add_edge(P, T1 is not None) if not simple or _is_simple(C))


def _add_leaf(P: Graph) -> Iterator[Graph]:
    """The trees that give the tree P on deleting their largest leaf label, each once.

    That leaf is a new node z hung from a new node w; w subdivides one
    edge of P or, rooted only, the virtual edge above the root.
    """
    z, w = P.num_nodes, P.num_nodes + 1
    labels = P.leaf_labels + ((z, P.n + 1),)
    down = (lambda x: (x, w)) if P.mode == UNROOTED else (lambda x: (w, x))  # w is the largest id

    def child(edges: tuple) -> Graph:
        return Graph(P.mode, w + 1, tuple(sorted(edges + (down(z),))), labels)

    for i, (a, b) in enumerate(P.edges):
        yield child(P.edges[:i] + P.edges[i + 1:] + ((a, w), down(b)))
    if P.mode == ROOTED:
        yield child(P.edges + (down(model.root_of(P)),))


def _add_edge(P: Graph, any_in_edge: bool = False) -> Iterator[Graph]:
    """The children of P by one new edge u -> v (unrooted u - v) between two new nodes.

    (a) u and v subdivide two distinct edges; (b) u and v subdivide one
    edge, u above v, and u -> v is doubled; unrooted only, (c) u
    subdivides one edge, v hangs from u and gets a loop.  Rooted: (a) is
    skipped where it closes a cycle, and u's edge may be the virtual edge
    above the root.  So that a child comes from one parent only, up to
    ties, v must be a top reticulation with the least cluster (leaf
    labels below, as a bit set) among the child's, and u's other child
    must not have a smaller cluster than v's other parent's other child
    (rule 3, skipped if `any_in_edge`).
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
            yield child([(a, u), (u, v), (u, v), (b, v)], i)
            yield child([(a, u), (b, u), (u, v), (v, v)], i)
        return
    order, kids, _ = model.topological_order(P)
    root = order[0]
    parents = [[a for a, b in edges if b == x] for x in range(u)]
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
        a, b = (None, root) if i is None else edges[i]
        split = [(u, b)] + ([] if a is None else [(a, u)])
        for j, (c, d) in enumerate(edges):
            # d at or above a closes a cycle; if c == a, u is v's other parent's other child
            if (j != i and c in above and (a is None or d not in above[a]) and d in least
                    and (any_in_edge or cluster[b] >= (cluster[b] | cluster[d] if c == a
                                                       else cluster[kids[c][kids[c][0] == d]]))):
                yield child(split + [(c, v), (v, d), (u, v)], i, j)
        if b in least:
            yield child(split[1:] + [(u, v), (u, v), (v, b)], i)


def enumerate_switchings(N: Graph) -> tuple[Switching, ...]:
    """All switchings of N: 2^r for rooted, one per spanning tree for unrooted,
    walked by `_off_edges` once N is checked (DomainError if invalid)."""
    model.check(N, DomainError, "invalid network: ")
    return tuple(Switching(N, frozenset(off)) for off in _off_edges(N))


def _off_edges(N: Graph) -> Iterator[tuple[int, ...]]:
    """Each switching of N as the indices in N.edges of its off edges, one at
    a time, in `enumerate_switchings` order.

    Rooted, one in-edge per reticulation, reticulations in id order, each
    one's in-edges sorted, the last reticulation varying fastest.  Unrooted
    (N connected), a depth-first walk over the sorted edges turns each off
    only while `model.hang` still reaches every node, so each r-set it ends
    at leaves a spanning tree on, in `itertools.combinations` order.  Indices
    tell apart parallel edges, which the lower levels of `_level` have;
    there a switching may turn either of two parallel in-edges off, and
    unrooted, a loop is never on a spanning tree.  The item budget is
    checked before the first switching is built.
    """
    edges = N.edges
    if N.mode == ROOTED:
        into: list[list[int]] = [[] for _ in range(N.num_nodes)]
        for i, (_, v) in enumerate(edges):
            into[v].append(i)
        choices = [sorted(ix, key=edges.__getitem__) for ix in into if len(ix) >= 2]
        check_budget(itertools.repeat(2, len(choices)), f"2^{len(choices)} switchings")
        yield from itertools.product(*choices)
        return
    m, r = len(edges), model.reticulation_count(N)
    _check_choose(m, r, "edge sets")
    order = sorted(range(m), key=edges.__getitem__)

    def walk(off: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        if len(off) == r:
            yield off
            return
        for p in range(start, m - r + len(off) + 1):  # leaving enough edges to complete off
            if len(model.hang(N, 0, more := off + (order[p],))[0]) == N.num_nodes:
                yield from walk(more, p + 1)

    yield from walk((), 0)


def reticulation_labellings(N: Graph, sigma: Switching) -> tuple[ReticulationLabelling, ...]:
    """All r! bijective number assignments extending the switching sigma."""
    model.check(sigma, SwitchingMismatch)
    if sigma.host != N:
        raise SwitchingMismatch("switching is not hosted by this network")
    return _numberings(N, sigma)


def all_reticulation_labellings(N: Graph) -> Iterator[ReticulationLabelling]:
    """Every reticulation labelling of N, over every switching; N is checked once."""
    for sigma in enumerate_switchings(N):
        yield from _numberings(N, sigma)


def _numberings(N: Graph, sigma: Switching) -> tuple[ReticulationLabelling, ...]:
    """The r! numberings of the off edges of a valid switching of N, once r! passes the budget."""
    off = sorted(sigma.off)
    check_budget(range(1, len(off) + 1), f"{len(off)}! labellings")
    return tuple(ReticulationLabelling(N, tuple(sorted(zip(off, perm), key=lambda eh: eh[1])))
                 for perm in itertools.permutations(range(1, len(off) + 1)))
