"""Injective encoding of reticulation-labelled networks as trees, and its inverse.

A numbered edge (u, v) with number h becomes a pair of pendant leaves:
one under u labelled n + 2h - 1 and one under v labelled n + 2h.  The
inverse locates those leaf pairs, removes them, and re-adds the numbered
edge.  Decoding validates eagerly: any violated invariant means the tree
is not the image of a labelled network, which is the expected outcome
for most trees.
"""

from __future__ import annotations

from . import model
from .errors import InvalidLabelling, NotInImage
from .model import Graph, ReticulationLabelling, ROOTED, UNROOTED


def encode_tau(N: Graph, lab: ReticulationLabelling) -> Graph:
    """Replace every numbered edge of (N, lab) by a pendant leaf pair."""
    if lab.host is not N and lab.host != N:
        raise InvalidLabelling("labelling is not hosted by this network")
    report = model.validate(lab)
    if not report.ok:
        raise InvalidLabelling("; ".join(report.violations))
    n = N.n
    numbered = {i for i, _ in lab.numbered}
    edges = [e for i, e in enumerate(N.edges) if i not in numbered]
    labels = dict(N.leaf_labels)
    nid = N.num_nodes
    if N.mode == UNROOTED:
        # undirected numbered edges have no intrinsic tail; orient them by
        # canonical position of the labelled host so the image is a class
        # invariant (isomorphic labelled networks encode to isomorphic trees)
        from .canonical import canonical_positions
        pos = canonical_positions(N, lab)
    for i, h in lab.numbered:
        u, v = N.edges[i]
        if N.mode == UNROOTED and pos[u] > pos[v]:
            u, v = v, u
        z, zp = nid, nid + 1
        nid += 2
        edges += [model._norm_edge(N.mode, u, z), model._norm_edge(N.mode, v, zp)]
        labels[z] = n + 2 * h - 1
        labels[zp] = n + 2 * h
    return model.make_graph(N.mode, range(nid), edges, labels)


def decode_tau(T: Graph, n: int, r: int):
    """Recover the reticulation-labelled network whose encoding is T.

    Raises NotInImage when the reconstruction violates any network or
    labelling invariant (parallel edge, cycle, degree violation, 0-edges
    not forming a switching).
    """
    if n < 1 or r < 0:
        raise ValueError("n must be at least 1 and r at least 0")
    if r == 0:
        if T.n != n:
            raise ValueError("leaf count does not match n")
        return T, ReticulationLabelling(T, ())
    if T.n != n + 2 * r:
        raise ValueError("tree must have n + 2r leaves")
    by_label = model.label_map(T)
    leaves = dict(T.leaf_labels)
    if sorted(leaves.values()) != list(range(1, n + 2 * r + 1)):
        raise ValueError("leaves must be labelled 1..n+2r")

    if T.mode == ROOTED:
        parent = {v: u for u, v in T.edges}
    else:
        nb = model.adjacency(T)
        parent = {v: nb[v][0] for v in leaves if len(nb[v]) == 1}

    drop_nodes = set()
    numbered: list[tuple[tuple[int, int], int]] = []
    for h in range(1, r + 1):
        z = by_label[n + 2 * h - 1]
        zp = by_label[n + 2 * h]
        if z not in parent or zp not in parent:
            raise NotInImage("pendant pair leaf has no parent")
        u, v = parent[z], parent[zp]
        if u in drop_nodes or v in drop_nodes or u == v:
            raise NotInImage("pendant pair parents collide")
        drop_nodes.update((z, zp))
        numbered.append(((u, v), h))

    kept = [v for v in range(T.num_nodes) if v not in drop_nodes]
    edges = {e for e in T.edges if e[0] not in drop_nodes and e[1] not in drop_nodes}
    for (u, v), h in numbered:
        e = model._norm_edge(T.mode, u, v)
        if e in edges:
            raise NotInImage("re-added edge is parallel to an existing edge")
        edges.add(e)
    labels = {v: x for v, x in T.leaf_labels if v not in drop_nodes}

    idx = {v: i for i, v in enumerate(sorted(kept))}
    net = model.make_graph(T.mode, kept, edges, labels)
    index = {e: i for i, e in enumerate(net.edges)}  # the re-added edges are not parallel
    lab = ReticulationLabelling(net, tuple((index[model._norm_edge(T.mode, idx[u], idx[v])], h)
                                           for (u, v), h in numbered))

    # A valid net makes lab valid too: nodes of T have in-degree at most 1,
    # so each reticulation of net is entered by exactly one re-added edge,
    # and the kept edges, T minus its pendant pairs, span net as a tree.
    report = model.validate(net)
    if not report.ok:
        raise NotInImage(report.violations[0])
    return net, lab
