"""Canonical forms and isomorphism for leaf-labelled trees and networks.

Codes are complete isomorphism invariants: two graphs get equal codes
exactly when they are isomorphic as labelled graphs (leaf labels always,
and a labelled network's edge numbers).  Trees use a fast bottom-up
code; networks use colour refinement with backtracking over the residual
symmetry, taking the lexicographically least encoding over all
refinement leaves.
"""

from __future__ import annotations

from typing import Collection, Iterable, NamedTuple, Optional

from . import model
from .errors import InvalidLabelling, NotATree
from .model import Graph, ReticulationLabelling, ROOTED

CODE_VERSION = 1


class CanonicalCode(NamedTuple):
    bytes: bytes  # codes order as their bytes

    def hex(self) -> str:
        return self.bytes.hex()


def canonical_code(X: Graph | ReticulationLabelling) -> CanonicalCode:
    """Deterministic, node-id-invariant code for a labelled graph: a graph, or a
    labelled network with its edge numbers (checked first, InvalidLabelling)."""
    G = X if isinstance(X, Graph) else _checked(X).host
    if (G is X or not X.numbered) and model.reticulation_count(G) == 0:
        return CanonicalCode(_header(G.mode) + b"T" + _tree_code(G))
    return CanonicalCode(_canon_general(X)[0])


def classes(graphs: Iterable[Graph]) -> tuple[Graph, ...]:
    """The first graph of each isomorphism class, in canonical-code order."""
    seen: dict[bytes, Graph] = {}
    last = None
    for G in graphs:
        if G != last:  # a move at either of two parallel edges gives the same child twice
            seen.setdefault(canonical_code(G).bytes, G)
            last = G
    return tuple(seen[c] for c in sorted(seen))


def canonical_positions(X: Graph | ReticulationLabelling) -> tuple[int, ...]:
    """node -> position in the canonical ordering of a graph or labelled network
    (general path).

    Any two minimal orderings differ by an automorphism, so sets of
    edges compared in canonical coordinates are class invariants.  A
    labelled network's ordering respects its edge numbers too.  A labelling
    is checked first (InvalidLabelling).
    """
    return _canon_general(_checked(X))[1]


def automorphism_count(X: Graph | ReticulationLabelling) -> int:
    """Number of labelled-graph automorphisms of a graph or labelled network.

    For a valid reticulation-labelled network this is always 1: the edge
    numbering pins every node.  Without edge labels larger groups are
    possible (parent-swap symmetries).  A labelling is checked first
    (InvalidLabelling).
    """
    return _canon_general(_checked(X))[2]


def _checked(X: Graph | ReticulationLabelling) -> Graph | ReticulationLabelling:
    """X, once checked if it is a labelling: the code of an invalid one would
    be read off edges its network may not have."""
    if not isinstance(X, Graph):
        model.check(X, InvalidLabelling)
    return X


def _header(mode: str) -> bytes:
    return bytes([CODE_VERSION]) + (b"R" if mode == ROOTED else b"U")


# ---------------------------------------------------------------------------
# fast tree codes


def _tree_code(G: Graph, off: Collection[int] = frozenset()) -> bytes:
    """Nested sorted leaf labels, built bottom-up from the root (rooted) or
    below leaf 1 (unrooted; leaf labels make this invariant).

    G need not be suppressed: a node with one coded child passes that
    code up, and a subtree without leaves has no code, so a subdivided
    tree with unlabelled pendant chains gets the code of its
    suppression.  The edges whose index is in `off` are left out (display
    codes a network's switchings so).  A graph that is not a tree (no
    single root, or a node out of reach) raises `NotATree`.
    """
    order, _, code = _hung_codes(G, off)
    if G.mode != ROOTED and len(order) > 1 and code[order[1]] is not None:
        return b"[1|" + code[order[1]] + b"]"  # leaf 1 and the code below it
    if code[order[0]] is None:
        raise NotATree("tree has no labelled leaf")
    return code[order[0]]


def _hung_codes(G: Graph, off: Collection[int] = frozenset()
                ) -> tuple[list[int], list[int], list[Optional[bytes]]]:
    """G hung as `_tree_code` hangs it: the walk order from the start (the root,
    or unrooted leaf 1), each node's parent, and each node's code, None for a
    subtree without leaves."""
    leaves = dict(G.leaf_labels)
    if G.mode == ROOTED:
        try:
            start = model.root_of(G)
        except ValueError:
            raise NotATree("rooted graph does not have a single root") from None
    else:
        start = model.label_map(G).get(1)
        if start is None:
            raise NotATree("unrooted tree has no leaf labelled 1")
    order, parent = model.hang(G, start, off)
    if len(order) < G.num_nodes:
        raise NotATree("graph is not connected")
    below: list[list[bytes]] = [[] for _ in range(G.num_nodes)]
    code: list[Optional[bytes]] = [None] * G.num_nodes
    for v in reversed(order):
        kids = below[v]
        if v in leaves:
            c = b"%d" % leaves[v]
        elif len(kids) > 1:
            c = _join(kids)
        elif kids:
            c = kids[0]
        else:
            continue
        code[v] = c
        below[parent[v]].append(c)
    return order, parent, code


def _join(parts: list[bytes]) -> bytes:
    """The code of a node whose children have the codes `parts` (two or more)."""
    parts.sort()
    return b"(" + b",".join(parts) + b")"


def _shape(T: Graph) -> tuple[Graph, dict[int, int]]:
    """The representative tree of T's unlabelled shape, and a leaf relabelling taking T onto it.

    T is hung from its root (unrooted: from the leaf whose hung shape is
    least) and walked depth first with children in shape order; the
    representative numbers the nodes in walk order and names the i-th
    leaf i.  Trees of one shape have the same walk up to an automorphism
    of the shape, so they all give the same representative.
    """
    leaves = dict(T.leaf_labels)
    best: Optional[tuple[bytes, int, list[list[int]]]] = None
    for start in [model.root_of(T)] if T.mode == ROOTED else sorted(leaves):
        order, parent = model.hang(T, start)
        kids: list[list[int]] = [[] for _ in range(T.num_nodes)]
        for v in order[1:]:
            kids[parent[v]].append(v)
        shape = [b""] * T.num_nodes
        for v in reversed(order):
            kids[v].sort(key=shape.__getitem__)
            shape[v] = (b"L(" if v in leaves else b"(") + b"".join(shape[c] for c in kids[v]) + b")"
        if best is None or shape[start] < best[0]:
            best = (shape[start], start, kids)
    _, start, kids = best
    walk, stack = [], [start]
    while stack:
        v = stack.pop()
        walk.append(v)
        stack.extend(reversed(kids[v]))
    pos = {v: i for i, v in enumerate(walk)}
    to = {leaves[v]: i for i, v in enumerate((v for v in walk if v in leaves), 1)}
    # in walk order, edges and labels come sorted as `model.make_graph` stores them
    return Graph(T.mode, T.num_nodes, tuple((pos[v], pos[c]) for v in walk for c in kids[v]),
                 tuple((pos[v], to[leaves[v]]) for v in walk if v in leaves)), to


# ---------------------------------------------------------------------------
# general labelled-graph canonization


def _canon_general(X) -> tuple[bytes, tuple[int, ...], int]:
    """The general-path code of a graph or labelled network (its least encoding),
    its node -> position map, and how many search leaves reach it.

    Every branch of the search is explored and target cells are chosen
    canonically, so the leaves reaching the least encoding correspond one
    to one with the automorphisms of the labelled graph.
    """
    G, elabels = (X, {}) if isinstance(X, Graph) else (X.host, dict(X.numbered))
    num_nodes, edges, vlabels = G.num_nodes, G.edges, dict(G.leaf_labels)
    directed = G.mode == ROOTED
    out_nb: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    in_nb = [[] for _ in range(num_nodes)] if directed else out_nb  # unrooted: one list
    for i, (u, v) in enumerate(edges):
        lab = elabels.get(i, 0)
        out_nb[u].append((v, lab))
        in_nb[v].append((u, lab))

    init_keys = [("L", vlabels[v]) if v in vlabels else ("I", 0) for v in range(num_nodes)]
    colors = _rank([(k,) for k in init_keys])

    def refine(cols: list[int]) -> list[int]:
        while True:
            sigs = []
            for v in range(num_nodes):
                sig = (cols[v],
                       tuple(sorted((cols[u], lab) for u, lab in in_nb[v])),
                       tuple(sorted((cols[u], lab) for u, lab in out_nb[v])))
                sigs.append(sig)
            new = _rank(sigs)
            if len(set(new)) == len(set(cols)):
                return new
            cols = new

    def encode(pos: list[int]) -> bytes:
        if directed:
            es = sorted((pos[u], pos[v], elabels.get(i, 0)) for i, (u, v) in enumerate(edges))
        else:
            es = sorted(tuple(sorted((pos[u], pos[v]))) + (elabels.get(i, 0),)
                        for i, (u, v) in enumerate(edges))
        ls = sorted((pos[v], x) for v, x in vlabels.items())
        return repr((num_nodes, es, ls)).encode()

    best: list = []

    def search(cols: list[int]) -> None:
        cols = refine(cols)
        classes: dict[int, list[int]] = {}
        for v in range(num_nodes):
            classes.setdefault(cols[v], []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = c
                break
        if target is None:
            enc = encode(cols)
            if not best or enc < best[0]:
                best[:] = [enc, tuple(cols), 1]
            elif enc == best[0]:
                best[2] += 1
            return
        for v in classes[target]:
            keyed = [(cols[u], 0 if u == v else 1) if cols[u] == target else (cols[u], 2)
                     for u in range(num_nodes)]
            search(_rank(keyed))

    search(colors)
    return _header(G.mode) + b"G" + best[0], best[1], best[2]


def _rank(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]
