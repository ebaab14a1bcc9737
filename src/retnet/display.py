"""Display semantics: which trees a network displays, and the trivial network.

Display is computed through switchings (a finite certificate per
displayed tree) and cross-checked at desk scale against the direct
subdivision-subgraph definition, implemented here as an embedding
search.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import generate, model
from .canonical import canonical_code
from .errors import BudgetExceeded, LeafsetMismatch, ModeMismatch, SwitchingMismatch
from .model import Edge, Graph, Switching, TreeSet, ROOTED

DEFAULT_SWITCHING_LIMIT = 1 << 14


def displayed_tree(N: Graph, sigma: Switching) -> Graph:
    """The unique tree certified by one switching of N."""
    if sigma.host != N:
        raise SwitchingMismatch("switching is not hosted by this network")
    on_edges = {e for e in N.edges if e not in sigma.off_edges}
    return model._suppress_raw(N.mode, N.num_nodes, on_edges, dict(N.leaf_labels))


def displayed_trees(N: Graph, limit: int = DEFAULT_SWITCHING_LIMIT) -> tuple[Graph, ...]:
    """All trees displayed by N, deduplicated, in canonical-code order."""
    switchings = generate.enumerate_switchings(N)
    if len(switchings) > limit:
        raise BudgetExceeded(f"{len(switchings)} switchings exceed limit {limit}")
    seen: dict[bytes, Graph] = {}
    for sigma in switchings:
        T = displayed_tree(N, sigma)
        seen.setdefault(canonical_code(T).bytes, T)
    return tuple(seen[c] for c in sorted(seen))


def displays(N: Graph, T: Graph) -> tuple[bool, Optional[Switching]]:
    """Whether some switching of N certifies T; returns the witness if so."""
    if N.mode != T.mode:
        raise ModeMismatch(f"{N.mode} vs {T.mode}")
    if N.n != T.n:
        raise LeafsetMismatch(f"{N.n} vs {T.n} leaves")
    code = canonical_code(T).bytes
    for sigma in generate.enumerate_switchings(N):
        if canonical_code(displayed_tree(N, sigma)).bytes == code:
            return True, sigma
    return False, None


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

    # degenerate single-node trees left their old leaf node isolated; drop them
    used = {u for e in edges for u in e}
    return model.make_graph(ROOTED, used, edges, labels)


# ---------------------------------------------------------------------------
# subdivision-subgraph oracle


def find_embedding(N: Graph, T: Graph) -> Optional[frozenset[Edge]]:
    """Brute-force search for a subgraph of N that is a subdivision of T.

    Returns the edge set of the embedding, or None.  Exponential; meant
    as the ground-truth oracle for `displays` at desk scale.
    """
    if N.mode != T.mode:
        raise ModeMismatch(f"{N.mode} vs {T.mode}")
    directed = N.mode == ROOTED
    n_leaf_of = model.label_map(N)
    t_leaves = model.leaf_map(T)
    t_internal = [v for v in range(T.num_nodes) if v not in t_leaves]
    n_leaves = set(model.leaf_map(N))
    n_candidates = [v for v in range(N.num_nodes) if v not in n_leaves]

    if directed:
        nbr = model.out_adj(N)
        t_edges = list(T.edges)
    else:
        nbr = model.undirected_adj(N)
        t_edges = [tuple(e) for e in T.edges]

    if not t_internal:
        # T is a single leaf or a single edge
        if len(t_leaves) == 1:
            return frozenset()
        (a, la), (b, lb) = sorted(t_leaves.items())
        image = {a: n_leaf_of[la], b: n_leaf_of[lb]}
        return _match_paths(N, t_edges, image, directed, nbr)

    for assignment in itertools.permutations(n_candidates, len(t_internal)):
        image = {tv: nv for tv, nv in zip(t_internal, assignment)}
        for tv, lab in t_leaves.items():
            image[tv] = n_leaf_of[lab]
        emb = _match_paths(N, t_edges, image, directed, nbr)
        if emb is not None:
            return emb
    return None


def _match_paths(N: Graph, t_edges, image: dict[int, int], directed: bool,
                 nbr) -> Optional[frozenset[Edge]]:
    """Internally vertex-disjoint paths realizing each tree edge, by backtracking."""
    targets = set(image.values())
    if len(targets) != len(image):
        return None

    def simple_paths(a: int, b: int, blocked: set[int]):
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for w in nbr[v]:
                if w in path or w in blocked:
                    continue
                if w == b:
                    yield path + (w,)
                elif w not in targets:
                    stack.append((w, path + (w,)))

    def rec(i: int, used: set[int], acc: list[Edge]):
        if i == len(t_edges):
            return frozenset(acc)
        tu, tv = t_edges[i]
        a, b = image[tu], image[tv]
        for path in simple_paths(a, b, used):
            internal = set(path[1:-1])
            new_edges = [model._norm_edge(N.mode, path[j], path[j + 1])
                         for j in range(len(path) - 1)]
            res = rec(i + 1, used | internal, acc + new_edges)
            if res is not None:
                return res
        return None

    return rec(0, set(), [])


def displays_by_subdivision(N: Graph, T: Graph) -> bool:
    """Display per the direct definition: N contains a subdivision of T."""
    return find_embedding(N, T) is not None
