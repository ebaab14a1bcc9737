"""Canonical forms and isomorphism for leaf-labelled trees and networks.

Codes are complete isomorphism invariants: two graphs get equal codes
exactly when they are isomorphic as labelled graphs (leaf labels always,
edge labels when supplied).  Trees use a fast bottom-up code; networks
use colour refinement with backtracking over the residual symmetry,
taking the lexicographically least encoding over all refinement leaves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Iterable, NamedTuple, Optional

from . import model
from .errors import ModeMismatch, NotATree
from .model import Graph, ReticulationLabelling, ROOTED

CODE_VERSION = 1


class CanonicalCode(NamedTuple):
    bytes: bytes  # codes order as their bytes

    def hex(self) -> str:
        return self.bytes.hex()


def canonical_code(G: Graph, edge_labels: Optional[ReticulationLabelling] = None) -> CanonicalCode:
    """Deterministic, node-id-invariant code for a labelled graph."""
    if (edge_labels is None or not edge_labels.numbered) and model.reticulation_count(G) == 0:
        return CanonicalCode(_header(G.mode) + b"T" + _tree_code(G))
    return _general_code(G, edge_labels)[0]


def classes(graphs: Iterable[Graph]) -> tuple[Graph, ...]:
    """The first graph of each isomorphism class, in canonical-code order."""
    seen: dict[bytes, Graph] = {}
    for G in graphs:
        seen.setdefault(canonical_code(G).bytes, G)
    return tuple(seen[c] for c in sorted(seen))


def canonical_positions(G: Graph,
                        edge_labels: Optional[ReticulationLabelling] = None) -> tuple[int, ...]:
    """node -> position in the canonical ordering of G (general path).

    Any two minimal orderings differ by an automorphism, so sets of
    edges compared in canonical coordinates are class invariants.  With
    edge labels supplied the ordering respects them too.
    """
    return _canon_general(G, edge_labels)[1]


def are_isomorphic(A: Graph, B: Graph) -> bool:
    if A.mode != B.mode:
        raise ModeMismatch(f"{A.mode} vs {B.mode}")
    return canonical_code(A) == canonical_code(B)


def automorphism_count(X) -> int:
    """Number of labelled-graph automorphisms of a graph or labelled network.

    For a valid reticulation-labelled network this is always 1: the edge
    numbering pins every node.  Without edge labels larger groups are
    possible (parent-swap symmetries).
    """
    if isinstance(X, ReticulationLabelling):
        return _canon_general(X.host, X)[2]
    return _canon_general(X, None)[2]


def _header(mode: str) -> bytes:
    return bytes([CODE_VERSION]) + (b"R" if mode == ROOTED else b"U")


def _general_code(G: Graph, edge_labels: Optional[ReticulationLabelling]
                  ) -> tuple[CanonicalCode, int]:
    """The general-path code of G and its automorphism count, from one search."""
    body, _, ties = _canon_general(G, edge_labels)
    return CanonicalCode(_header(G.mode) + b"G" + body), ties


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
    code = None
    for v in reversed(order):
        kids = below[v]
        if v in leaves:
            code = b"%d" % leaves[v]
        elif len(kids) > 1:
            code = b"(" + b",".join(sorted(kids)) + b")"
        elif kids:
            code = kids[0]
        else:
            continue
        below[parent[v]].append(code)
    if code is None:
        raise NotATree("tree has no labelled leaf")
    # unrooted, the start leaf's own code closes below[start]; a lone
    # entry means no other leaf, so the tree is leaf 1 alone
    if G.mode == ROOTED or len(below[start]) == 1:
        return code
    return b"[1|" + below[start][0] + b"]"


def _shape(T: Graph) -> tuple[bytes, list[int]]:
    """T's unlabelled shape, and its leaf labels in the order of a walk that ignores them.

    The walk starts at the root (unrooted: at the leaf whose hung shape is
    least) and visits children in shape order.  Trees of one shape have
    the same walk up to an automorphism of the shape, so naming the i-th
    leaf of the walk i gives isomorphic labelled trees.
    """
    leaves = dict(T.leaf_labels)
    best: Optional[tuple[bytes, list[int]]] = None
    for start in [model.root_of(T)] if T.mode == ROOTED else sorted(leaves):
        order, parent = model.hang(T, start)
        kids: list[list[int]] = [[] for _ in range(T.num_nodes)]
        for v in order[1:]:
            kids[parent[v]].append(v)
        shape, walk = [b""] * T.num_nodes, [[] for _ in range(T.num_nodes)]
        for v in reversed(order):
            below = sorted(kids[v], key=shape.__getitem__)
            shape[v] = (b"L(" if v in leaves else b"(") + b"".join(shape[c] for c in below) + b")"
            walk[v] = ([leaves[v]] if v in leaves else []) + [x for c in below for x in walk[c]]
        if best is None or shape[start] < best[0]:
            best = (shape[start], walk[start])
    return best


# ---------------------------------------------------------------------------
# general labelled-graph canonization


@lru_cache(maxsize=1)  # encode_tau repeats the search verify_counts has just run
def _canon_general(G: Graph, edge_labels: Optional[ReticulationLabelling]
                   ) -> tuple[bytes, tuple[int, ...], int]:
    """Least encoding, its node -> position map, and how many search leaves reach it.

    Every branch of the search is explored and target cells are chosen
    canonically, so the leaves reaching the least encoding correspond one
    to one with the automorphisms of the labelled graph.
    """
    num_nodes, edges, vlabels = G.num_nodes, G.edges, dict(G.leaf_labels)
    elabels = {} if edge_labels is None else dict(edge_labels.numbered)
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
    return tuple(best)


def _rank(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]
