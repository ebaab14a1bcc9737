"""Display semantics: which trees a network displays, and the trivial network.

Display is computed through switchings, a finite certificate per
displayed tree.  A switching names its off edges by their indices in
`N.edges`, so it can turn off one of two parallel edges, and
`displayed_tree` reads the multigraphs of the generator's lower levels
as well as networks.  A switching's tree is not suppressed to be compared:
its canonical code is read straight off the network's on edges (the
tree code ignores subdivisions and leafless subtrees), and a tree is
built only for the first switching of each class that is returned.
Every tree is built by `model.suppress(N, off)`, the package's one
suppression walk, which follows the on edges and needs no graph of
them; `displayed_trees` builds its representatives in one batch that
shares N's edge lists.

Rooted, the codes are updated incrementally.  `generate._off_edges`
walks the product of the reticulations' in-edges, last reticulation
fastest, so from one switching to the next only a suffix of the
reticulations changes its on parent, and only the nodes above that
suffix are recomputed; no graph is built.  Unrooted switchings are
spanning trees with no such structure, and each is coded afresh.

The tests cross-check display at desk scale against the direct
subdivision-subgraph definition, the codes against those of
`displayed_tree`, and `displayed_tree` against the hang-based
suppression of a graph of the on edges in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from . import generate, model
from .canonical import _header, _join, _tree_code, canonical_code
from .errors import DomainError, LeafsetMismatch, ModeMismatch, NotATree
from .model import Graph, Switching, TreeSet, ROOTED


def displayed_tree(sigma: Switching) -> Graph:
    """The unique tree certified by one switching of its network.

    On edges that do not form a tree raise NotATree."""
    return model.suppress(sigma.host, sigma.off)


def displayed_trees(N: Graph) -> tuple[Graph, ...]:
    """All trees displayed by N, deduplicated, in canonical-code order.

    Each class is represented by the tree of its first switching."""
    model.check(N, DomainError, "invalid network: ")
    first: dict[bytes, tuple[int, ...]] = {}
    for off, code in _switching_codes(N):
        first.setdefault(code, off)
    return tuple(model._suppressions(N, (frozenset(first[c]) for c in sorted(first))))


def displays(N: Graph, T: Graph) -> tuple[bool, Optional[Switching]]:
    """Whether some switching of N certifies T; returns the witness if so."""
    model.check(N, DomainError, "invalid network: ")
    model.check_tree(T)
    if N.mode != T.mode:
        raise ModeMismatch(f"{N.mode} vs {T.mode}")
    if N.n != T.n:
        raise LeafsetMismatch(f"{N.n} vs {T.n} leaves")
    code = canonical_code(T).bytes
    for off, c in _switching_codes(N):
        if c == code:
            return True, Switching(N, frozenset(off))
    return False, None


def _switching_codes(N: Graph) -> Iterator[tuple[tuple[int, ...], bytes]]:
    """(off edge indices, canonical code of the displayed tree) for every switching of N.

    In `generate._off_edges` order; each code is that of the suppressed
    tree on the other edges, `canonical_code(displayed_tree(sigma)).bytes`
    for the switching sigma with off edges `off`.  N may be one of the
    multigraphs of `generate._level`; the public entry points validate
    their network first.  Unrooted, each spanning tree is coded afresh by
    `_tree_code` on N without its off edges.

    Rooted, node codes are kept from one switching to the next, and N's
    order, children and in-degrees come from `model.topological_order`.
    A node's code is the one `_tree_code` builds on the on edges (its leaf
    label, the sorted codes of its coded on children, or its one coded
    child's code), so it depends only on the on parents of the
    reticulations strictly below it.  Number the reticulations in id
    order, the order of `generate._off_edges`' product, and let last[v]
    be the largest index of a reticulation strictly below v (-1 for none).
    When the least index whose off edge changed is k, only the nodes with
    last[v] >= k can change code, and they are recomputed, children first.
    That holds in any switching order; the product varies the last
    reticulation fastest, so most switchings change a short suffix and
    recompute only the nodes above it.
    """
    header = _header(N.mode) + b"T"
    if N.mode != ROOTED:
        for off in generate._off_edges(N):
            yield off, header + _tree_code(N, off)
        return

    num_nodes, edges = N.num_nodes, N.edges
    order, kids, indeg = model.topological_order(N)  # each node after its parents
    root = order[0]
    rank: dict[int, int] = {}  # reticulation -> its index in the product
    for v, d in enumerate(indeg):
        if d >= 2:
            rank[v] = len(rank)
    if len(set(edges)) < len(edges):  # a child under two parallel in-edges is one child
        kids = [list(set(c)) for c in kids]
    code: list[Optional[bytes]] = [None] * num_nodes
    for v, x in N.leaf_labels:
        code[v] = b"%d" % x
    # bucket the unlabelled nodes by last[v] + 1, children first within a
    # bucket; a parent's last is at least its children's, so the nodes with
    # last >= k are redo[start[k + 1]:], still children first
    below = [-1] * num_nodes  # the largest reticulation index at or below v
    buckets: list[list[int]] = [[] for _ in range(len(rank) + 1)]
    for v in reversed(order):
        last = -1  # max() calls would double the set-up cost at r = 1
        for c in kids[v]:
            if below[c] > last:
                last = below[c]
        if code[v] is None:
            buckets[last + 1].append(v)
        below[v] = rank[v] if v in rank and rank[v] > last else last
    redo = [v for b in buckets for v in b]
    start = list(itertools.accumulate(map(len, buckets), initial=0))
    # par[c] is c's on parent; a reticulation's is the sum of its parents
    # less its off parent
    par = [0] * num_nodes
    for u, v in edges:
        par[v] += u
    both = par[:]
    prev: tuple[int, ...] = ()
    for off in generate._off_edges(N):  # off[i] is the off in-edge of rank i
        # k: the least rank whose off edge changed; the first switching
        # codes every node, those below no reticulation too
        k = 0
        if prev:
            while off[k] == prev[k]:
                k += 1
        else:
            k = -1
        for i in range(max(k, 0), len(off)):
            u, c = edges[off[i]]
            par[c] = both[c] - u
        prev = off
        for v in redo[start[k + 1]:]:
            got = [x for c in kids[v] if par[c] == v and (x := code[c]) is not None]
            if len(got) > 1:
                code[v] = _join(got)
            else:
                code[v] = got[0] if got else None
        if code[root] is None:
            raise NotATree("network has no labelled leaf")
        yield off, header + code[root]


# ---------------------------------------------------------------------------
# trivial network


def trivial_network(ts: TreeSet) -> Graph:
    """Disjoint union of the trees, a caterpillar root cap, and per-leaf merge chains.

    Has exactly (t - 1) * n reticulations and displays every member.
    """
    model.check(ts, DomainError, "invalid tree set: ")
    if ts.mode != ROOTED:
        raise ModeMismatch("trivial network is defined for rooted tree sets")
    t, n = ts.t, ts.n
    if t == 1:
        return ts.trees[0]

    # each tree's internal edges, its node ids shifted past the trees before it;
    # t >= 2 forces n >= 3 (fewer leaves admit only one tree), so every leaf has a parent
    nid = 0
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    attach: dict[int, list[int]] = {x: [] for x in range(1, n + 1)}  # label -> its copies' parents
    for T in ts.trees:
        leaf = dict(T.leaf_labels)
        for u, v in T.edges:
            if v in leaf:
                attach[leaf[v]].append(u + nid)
            else:
                edges.append((u + nid, v + nid))
        roots.append(model.root_of(T) + nid)
        nid += T.num_nodes

    # caterpillar cap: tree i hangs at depth i
    cap = range(nid, nid + t - 1)
    edges += [*zip(cap, roots), *zip(cap, cap[1:]), (cap[-1], roots[-1])]
    # merge chains: each label's copies merge in tree-index order, and the last merge
    # node's child is the leaf; per label, t - 1 merge node ids and then the leaf's
    labels: dict[int, int] = {}
    for x, ps in attach.items():
        chain = range(cap.stop + (x - 1) * t, cap.stop + x * t)
        edges += [*zip([ps[0], *chain], chain), *zip(ps[1:], chain)]
        labels[chain[-1]] = x
    # the members' own leaf nodes have no edges; drop them
    used = {u for e in edges for u in e}
    return model.make_graph(ROOTED, used, edges, labels)
