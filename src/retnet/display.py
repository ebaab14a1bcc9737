"""Display semantics: which trees a network displays, and the trivial network.

Display is computed through switchings, a finite certificate per
displayed tree.  A switching's tree is not suppressed to be compared:
its canonical code is read straight off the network's on edges (the
tree code ignores subdivisions and leafless subtrees), and
`displayed_tree` runs only for the first switching of each class that
is returned.  The tests cross-check display at desk scale against the
direct subdivision-subgraph definition, and the codes against those of
`displayed_tree`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import generate, model
from .canonical import _header, _tree_code, canonical_code
from .errors import LeafsetMismatch, ModeMismatch, SwitchingMismatch
from .model import Graph, Switching, TreeSet, ROOTED


def displayed_tree(N: Graph, sigma: Switching) -> Graph:
    """The unique tree certified by one switching of N."""
    if sigma.host != N:
        raise SwitchingMismatch("switching is not hosted by this network")
    on_edges = tuple(e for e in N.edges if e not in sigma.off_edges)
    return model.suppress(Graph(N.mode, N.num_nodes, on_edges, N.leaf_labels))


def displayed_trees(N: Graph) -> tuple[Graph, ...]:
    """All trees displayed by N, deduplicated, in canonical-code order.

    Each class is represented by the tree of its first switching."""
    first: dict[bytes, Switching] = {}
    for sigma, code in _switching_codes(N):
        first.setdefault(code, sigma)
    return tuple(displayed_tree(N, first[c]) for c in sorted(first))


def displays(N: Graph, T: Graph) -> tuple[bool, Optional[Switching]]:
    """Whether some switching of N certifies T; returns the witness if so."""
    if N.mode != T.mode:
        raise ModeMismatch(f"{N.mode} vs {T.mode}")
    if N.n != T.n:
        raise LeafsetMismatch(f"{N.n} vs {T.n} leaves")
    code = canonical_code(T).bytes
    for sigma, c in _switching_codes(N):
        if c == code:
            return True, sigma
    return False, None


def _switching_codes(N: Graph) -> Iterator[tuple[Switching, bytes]]:
    """(switching, canonical code of its displayed tree) for every switching of N.

    In `generate.enumerate_switchings` order; each code equals
    `canonical_code(displayed_tree(N, sigma)).bytes`.
    """
    header = _header(N.mode) + b"T"
    leaves = dict(N.leaf_labels)
    start = model.root_of(N) if N.mode == ROOTED else model.label_map(N)[1]
    for sigma in generate._switchings(N):
        off = sigma.off_edges
        on = Graph(N.mode, N.num_nodes, tuple(e for e in N.edges if e not in off), N.leaf_labels)
        yield sigma, header + _tree_code(on, start, leaves)


# ---------------------------------------------------------------------------
# trivial network


def trivial_network(ts: TreeSet) -> Graph:
    """Disjoint union of the trees, a caterpillar root cap, and per-leaf merge chains.

    Has exactly (t - 1) * n reticulations and displays every member.
    """
    if ts.mode != ROOTED:
        raise ModeMismatch("trivial network is defined for rooted tree sets")
    t, n = ts.t, ts.n
    if t == 1:
        return ts.trees[0]

    nid = 0
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    copy_leaf: list[dict[int, int]] = []  # per tree: label -> shifted leaf node
    parent_of: list[dict[int, int]] = []  # per tree: shifted leaf node -> parent
    for T in ts.trees:
        shift = nid
        nid += T.num_nodes
        edges.extend((u + shift, v + shift) for u, v in T.edges)
        roots.append(model.root_of(T) + shift)
        copy_leaf.append({x: v + shift for v, x in T.leaf_labels})
        parent_of.append({v + shift: u + shift for u, v in T.edges})

    # caterpillar cap: tree i hangs at depth i
    cap_root = None
    prev = None
    for i in range(t - 1):
        c = nid
        nid += 1
        if prev is None:
            cap_root = c
        else:
            edges.append((prev, c))
        edges.append((c, roots[i]))
        prev = c
    edges.append((prev, roots[t - 1]))

    # merge chains: copies of each leaf merge in tree-index order
    labels: dict[int, int] = {}
    for x in range(1, n + 1):
        attach = []
        for i in range(t):
            leaf = copy_leaf[i][x]
            # t >= 2 forces n >= 3 (fewer leaves admit only one tree), so
            # every member has a proper parent edge for each leaf.
            p = parent_of[i][leaf]
            edges.remove((p, leaf))
            attach.append(p)
        prev_m = attach[0]
        for i in range(1, t):
            m = nid
            nid += 1
            edges.append((prev_m, m))
            edges.append((attach[i], m))
            prev_m = m
        z = nid
        nid += 1
        edges.append((prev_m, z))
        labels[z] = x

    # every member's old leaf nodes lost their edges to the merge chains and
    # are isolated now; drop the unused nodes
    used = {u for e in edges for u in e}
    return model.make_graph(ROOTED, used, edges, labels)
