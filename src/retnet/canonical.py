"""Canonical forms and isomorphism for leaf-labelled trees and networks.

Codes are complete isomorphism invariants: two graphs get equal codes
exactly when they are isomorphic as labelled graphs (leaf labels always,
and a labelled network's edge numbers).  Trees use a fast bottom-up
code; networks use colour refinement with backtracking over the residual
symmetry, taking the lexicographically least encoding over all
refinement leaves.  Refinement keeps the colour classes as cells of an
ordered partition and splits them in place (the cell splitting of
McKay & Piperno, "Practical graph isomorphism, II", 2014); a round
re-reads only the cells next to a node whose colour the round before
changed.  The leaves that reach the least encoding are the graph's
automorphisms, and the search returns them all.
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
    return len(_canon_general(_checked(X))[2])


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


def _canon_general(X) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The general-path code of a graph or labelled network (its least encoding),
    its node -> position map, and the map of every search leaf that reaches the
    least encoding, that one first.

    Nodes sit in cells, runs of positions, and a node's colour is the first
    position of its cell: internal nodes first, then leaves by label.  Each
    round of refinement splits cells in place, a cell's parts ordered by
    their nodes' sorted in-colours, then sorted out-colours (a colour paired
    with the edge's number).  A cell can split only if a node of it
    neighbours one whose colour changed in the round before, so a round
    re-reads only those cells.  Once no cell splits, each node of the first
    cell of more than one, in id order, takes that cell's first position
    and the others the next, and the search goes on below.  Every branch is
    explored and target cells are chosen canonically, so the leaves that
    reach the least encoding correspond one to one with the automorphisms
    of the labelled graph: each is the first composed with one.
    """
    G, elabels = (X, {}) if isinstance(X, Graph) else (X.host, dict(X.numbered))
    num_nodes, edges, vlabels = G.num_nodes, G.edges, dict(G.leaf_labels)
    directed = G.mode == ROOTED
    base = max(elabels.values(), default=0) + 1  # (colour, number) packs as colour * base + number
    numbers = [elabels.get(i, 0) for i in range(len(edges))]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    outs = [[] for _ in range(num_nodes)] if directed else ins  # unrooted: one list
    near: list[set[int]] = [set() for _ in range(num_nodes)]
    for (u, v), h in zip(edges, numbers):
        outs[u].append((v, h))
        ins[v].append((u, h))
        near[u].add(v)
        near[v].add(u)

    def split(cell: list[int], order: list[int], size: list[int], s: int, part: list[int],
              sig, changed: list[int]) -> None:
        """Split the cell at s in place into the runs of equal `sig` of `part`, its
        nodes sorted by `sig`; the nodes that leave position s go into `changed`."""
        order[s:s + len(part)] = part
        first = s
        for i in range(1, len(part)):
            v = part[i]
            if sig[v] != sig[part[i - 1]]:
                size[first] = s + i - first
                first = s + i
            if first != s:
                cell[v] = first
                changed.append(v)
        size[first] = s + len(part) - first

    def refine(cell: list[int], order: list[int], size: list[int], changed: list[int]) -> None:
        """Split cells in rounds until none splits; `changed` holds the nodes whose colour
        changed since the cells were last stable."""
        while changed:
            splits = []
            for s in {cell[u] for v in changed for u in near[v]}:
                if size[s] == 1:
                    continue
                part = order[s:s + size[s]]
                sig = {}
                for v in part:
                    a = sorted([cell[u] * base + h for u, h in ins[v]])
                    sig[v] = (a, sorted([cell[u] * base + h for u, h in outs[v]])) if directed else a
                part.sort(key=sig.__getitem__)
                if sig[part[0]] != sig[part[-1]]:
                    splits.append((s, part, sig))
            changed = []
            for s, part, sig in splits:  # all read first: every sig uses last round's colours
                split(cell, order, size, s, part, sig, changed)

    def encode(pos: list[int]) -> bytes:
        if directed:
            es = sorted([(pos[u], pos[v], h) for (u, v), h in zip(edges, numbers)])
        else:
            es = sorted([(pos[u], pos[v], h) if pos[u] < pos[v] else (pos[v], pos[u], h)
                         for (u, v), h in zip(edges, numbers)])
        ls = sorted((pos[v], x) for v, x in vlabels.items())
        return repr((num_nodes, es, ls)).encode()

    best: list = [None, []]  # the least encoding, and the leaves that reach it

    def search(cell: list[int], order: list[int], size: list[int], changed: list[int]) -> None:
        refine(cell, order, size, changed)
        s = 0
        while s < num_nodes and size[s] == 1:
            s += 1
        if s == num_nodes:
            enc = encode(cell)
            if best[0] is None or enc < best[0]:
                best[:] = [enc, [tuple(cell)]]
            elif enc == best[0]:
                best[1].append(tuple(cell))
            return
        k = size[s]
        for v in sorted(order[s:s + k]):
            rest = [u for u in order[s:s + k] if u != v]
            c, o, z = cell[:], order[:], size[:]
            o[s:s + k] = [v] + rest
            z[s], z[s + 1] = 1, k - 1
            for u in rest:
                c[u] = s + 1
            search(c, o, z, rest)

    # one cell, split by (internal, leaf label); every node's colour is new
    key = [(1, vlabels[v]) if v in vlabels else (0, 0) for v in range(num_nodes)]
    order = sorted(range(num_nodes), key=key.__getitem__)
    cell, size = [0] * num_nodes, [num_nodes] + [1] * num_nodes
    split(cell, order, size, 0, order[:], key, [])
    search(cell, order, size, list(range(num_nodes)))
    return _header(G.mode) + b"G" + best[0], best[1][0], tuple(best[1])
