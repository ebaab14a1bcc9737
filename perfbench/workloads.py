"""The four benchmark workloads: their seeded inputs, commands and output checks.

A workload is a list of CLI commands (one pass). Each command names the
check its stdout must pass; checks get every stdout of the pass, because
the display checks compare commands with each other. Checks use only
``oracle`` and the stored values in ``expected.json``, never retnet.

``tiny`` selects small points with the same shape, for the smoke tests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from oracle import require

EXPECTED_PATH = Path(__file__).with_name("expected.json")

Outputs = dict[str, str]


@dataclass
class Command:
    name: str                                  # unique in the pass; stdout goes to <name>.out
    args: list[str]                            # after ``python -m retnet.cli``
    check: Callable[[str, Outputs], None]      # (this stdout, every stdout of the pass)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _key(args: list[str]) -> str:
    """How expected.json names a command: its arguments joined by spaces."""
    return " ".join(args)


# ---------------------------------------------------------------------------
# seeded trees (nested tuples of leaf labels)


def random_tree(n: int, rng: random.Random):
    """A random rooted binary tree on leaves 1..n, by random leaf insertion."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    tree = labels[0]
    for x in labels[1:]:
        nodes = list(_subtrees(tree))
        target = nodes[rng.randrange(len(nodes))]
        tree = _replace(tree, target, (target, x))
    return tree


def _subtrees(t):
    yield t
    if isinstance(t, tuple):
        yield from _subtrees(t[0])
        yield from _subtrees(t[1])


def _replace(t, target, new):
    if t is target:
        return new
    if isinstance(t, tuple):
        return (_replace(t[0], target, new), _replace(t[1], target, new))
    return t


def _prune(t, target):
    """t without the subtree ``target``; its parent is suppressed."""
    if not isinstance(t, tuple):
        return t
    a, b = t
    if a is target:
        return b
    if b is target:
        return a
    return (_prune(a, target), _prune(b, target))


def newick(t) -> str:
    def w(s):
        return "(" + w(s[0]) + "," + w(s[1]) + ")" if isinstance(s, tuple) else str(s)
    return w(t) + ";"


def key(t) -> str:
    """Same key as ``oracle.tree_key`` of ``newick(t)``."""
    if not isinstance(t, tuple):
        return str(t)
    return "(" + ",".join(sorted((key(t[0]), key(t[1])))) + ")"


def rspr_neighbour(t, rng: random.Random):
    """A different tree one rooted subtree-prune-and-regraft move from t."""
    while True:
        nodes = list(_subtrees(t))[1:]
        pruned = nodes[rng.randrange(len(nodes))]
        rest = _prune(t, pruned)
        spots = list(_subtrees(rest))
        spot = spots[rng.randrange(len(spots))]
        moved = _replace(rest, spot, (spot, pruned))
        if key(moved) != key(t):
            return moved


def _restrict(t, keep: set[int]):
    if not isinstance(t, tuple):
        return t if t in keep else None
    a, b = _restrict(t[0], keep), _restrict(t[1], keep)
    if a is None or b is None:
        return a if b is None else b
    return (a, b)


def caterpillar_displayed(trees) -> set[str]:
    """Keys of every tree the trivial network of ``trees`` can display.

    Each switching of its merge chains gives every leaf to one member;
    the displayed tree joins the members' restrictions along the root
    caterpillar. The program picks the members' order along the
    caterpillar, so every order is taken, and the result holds the
    displayed trees and possibly more. Used only to pick a tree that is
    not displayed, so that its query scans every switching.
    """
    n = max(x for t in trees for x in _subtrees(t) if not isinstance(x, tuple))
    out = set()
    for order in itertools.permutations(trees):
        for owner in _assignments(n, len(trees)):
            parts = [_restrict(t, {x for x in range(1, n + 1) if owner[x - 1] == i})
                     for i, t in enumerate(order)]
            joined = None
            for p in reversed(parts):
                if p is not None:
                    joined = p if joined is None else (p, joined)
            out.add(key(joined))
    return out


def lone_witness(t, other) -> bool:
    """Whether, in the trivial network of {t, other}, only t's own switching displays t.

    A switching that gives the leaves A to t and the rest, B, to other
    displays the join of t|A and other|B. That is t itself for a split
    other than A = all leaves only when A|B is t's root split and
    other|B = t|B.
    """
    return all(key(_restrict(other, set(_leaves(side)))) != key(side) for side in t)


def _leaves(t):
    return [x for x in _subtrees(t) if not isinstance(x, tuple)]


def _assignments(n: int, t: int):
    if n == 0:
        yield ()
        return
    for rest in _assignments(n - 1, t):
        for i in range(t):
            yield rest + (i,)


def distinct_trees(n: int, count: int, rng: random.Random) -> list:
    out, seen = [], set()
    while len(out) < count:
        t = random_tree(n, rng)
        if key(t) not in seen:
            seen.add(key(t))
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# enumerate: the codec sweep


def _check_listing(n: int, r: int, mode: str, count: int, digest: str):
    def check(out: str, _: Outputs) -> None:
        if hashlib.sha256(out.encode()).hexdigest() == digest:
            return
        # A valid change of order or of eNewick tie-breaking lands here.
        lines = out.splitlines()
        require(len(lines) == count, f"{len(lines)} lines, expected {count}")
        docs = [json.loads(line) for line in lines]
        if r == 0:
            keys = {oracle.tree_key(d["newick"], n) for d in docs}
            require(len(keys) == count, "repeated tree")
        elif mode == "rooted":
            oracle.rooted_pairwise_distinct([d["network"] for d in docs], n, r)
        else:
            oracle.unrooted_pairwise_distinct([json.loads(d["network"]) for d in docs], n, r)
    return check


def build_enumerate(rng: random.Random, work: Path, tiny: bool, exp: dict) -> list[Command]:
    # (n, r, mode, exact class count); r = 0 is `trees`
    if tiny:
        points = [(3, 1, "rooted", 21), (4, 1, "unrooted", 9), (5, 0, "rooted", 105)]
    else:
        points = [(3, 2, "rooted", 279), (4, 1, "rooted", 228),
                  (4, 2, "unrooted", 66), (7, 0, "rooted", 10395)]
    cmds = []
    for n, r, mode, count in points:
        if r == 0:
            require(count == oracle.double_factorial(2 * n - 3), "tree count table")
            args = ["trees", "--n", str(n)]
        else:
            args = ["networks", "--n", str(n), "--r", str(r), "--mode", mode]
        check = _check_listing(n, r, mode, count, exp["digests"][_key(args)])
        cmds.append(Command(f"{args[0]}_{n}_{r}_{mode}", args, check))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# groundtruth: worst cases, minimum reticulations, enumeration vs bounds


def _check_worstcase(n: int, t: int, mode: str, r: int):
    def check(out: str, _: Outputs) -> None:
        doc = json.loads(out)
        require(doc["r"] == r, f"worst case r = {doc['r']}, expected {r}")
        wit = doc["witness"]
        require(len(wit) == t and len(set(wit)) == t, "witness is not a t-set")
        for s in wit:
            if mode == "rooted":
                oracle.tree_key(s, n)
            else:
                oracle.unrooted_tree_check(s, n)
    return check


def _check_minret(n: int, trees):
    def check(out: str, _: Outputs) -> None:
        doc = json.loads(out)
        # distinct trees one rSPR move apart need exactly one reticulation
        require(doc["r"] == 1, f"minret r = {doc['r']}, expected 1")
        N = oracle.RootedNet(doc["witness"])
        N.check(n, 1)
        require({key(t) for t in trees} <= N.displayed_keys(), "witness misses an input tree")
    return check


def _check_report_rows(rows: int):
    def check(out: str, _: Outputs) -> None:
        table = list(csv.DictReader(io.StringIO(out)))
        require(len(table) == rows, f"{len(table)} report rows, expected {rows}")
        require(all(row["holds"] == "True" for row in table), "a verification row fails")
    return check


def build_groundtruth(rng: random.Random, work: Path, tiny: bool, exp: dict) -> list[Command]:
    worst = [(3, 2, "rooted")] if tiny else [(3, 2, "rooted"), (3, 3, "rooted"),
                                             (4, 2, "unrooted")]
    pairs_n, pairs = (4, 1) if tiny else (5, 1)
    n_max, r_max = (2, 1) if tiny else (3, 2)
    cmds = []
    for n, t, mode in worst:
        args = ["worstcase", "--n", str(n), "--t", str(t), "--mode", mode]
        cmds.append(Command(f"worstcase_{n}_{t}_{mode}", args,
                            _check_worstcase(n, t, mode, exp["values"][_key(args)])))
    for i in range(pairs):
        a = random_tree(pairs_n, rng)
        b = rspr_neighbour(a, rng)
        files = []
        for j, t in enumerate((a, b)):
            (work / f"pair{i}_{j}.nwk").write_text(newick(t) + "\n")
            files += ["--trees", f"pair{i}_{j}.nwk"]
        cmds.append(Command(f"minret_{i}", ["minret"] + files, _check_minret(pairs_n, (a, b))))
    for mode in ("rooted", "unrooted"):
        args = ["verify", "--counts", "--n-max", str(n_max), "--r-max", str(r_max),
                "--mode", mode]
        cmds.append(Command(f"verify_counts_{mode}", args,
                            _check_report_rows(exp["values"][_key(args)])))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# display: switchings of trivial networks


class _DisplaySet:
    """Checks for one tree set: trivial, displayed, and the display queries."""

    def __init__(self, tag: str, trees, n: int):
        self.tag, self.trees, self.n = tag, trees, n
        self.r = (len(trees) - 1) * n
        self.shown = None
        self._parsed: tuple[str | None, list[str]] = (None, [])

    def trivial(self, out: str, _: Outputs) -> None:
        self.shown = None
        N = oracle.RootedNet(out)
        N.check(self.n, self.r)
        self.shown = N.displayed_keys()
        require({key(t) for t in self.trees} <= self.shown, "a member is not displayed")

    def _listed(self, out: str) -> list[str]:
        if self._parsed[0] != out:
            keys = [oracle.tree_key(json.loads(line)["newick"], self.n)
                    for line in out.splitlines()]
            self._parsed = (out, keys)
        return self._parsed[1]

    def displayed(self, out: str, outs: Outputs) -> None:
        listed = self._listed(out)
        require(self.shown is not None, "no valid trivial network to compare with")
        require(len(set(listed)) == len(listed), "displayed list repeats a tree")
        require(set(listed) == self.shown, "displayed list differs from the switchings")

    def query(self, t):
        def check(out: str, outs: Outputs) -> None:
            doc = json.loads(out)
            listed = self._listed(outs[f"{self.tag}_displayed"])
            require(doc["displays"] is (key(t) in listed),
                    "display verdict disagrees with the displayed list")
            if doc["displays"]:
                require(len(doc["witness_off_edges"]) == self.r, "witness is not a switching")
            else:
                require(doc["witness_off_edges"] is None, "negative verdict with a witness")
        return check


def build_display(rng: random.Random, work: Path, tiny: bool, exp: dict) -> list[Command]:
    # (n, t, query the members?). A positive query exits at the first
    # switching that displays its tree. The members of a queried t = 2
    # set are drawn so that each is displayed only by its own switching,
    # so those exits do not depend on the seed; t = 3 sets get only the
    # full-scan negative query.
    sets = [(6, 2, True), (5, 3, False)] if tiny else [(12, 2, True)] + [(6, 3, False)] * 2
    trivials, rest = [], []
    for k, (n, t, members) in enumerate(sets):
        tag = f"set{k}_{n}_{t}"
        trees = distinct_trees(n, t, rng)
        while members and not (lone_witness(*trees) and lone_witness(*trees[::-1])):
            trees = distinct_trees(n, t, rng)
        shown = caterpillar_displayed(trees)
        require(len(shown) < oracle.double_factorial(2 * n - 3), "no tree is a non-member")
        other = random_tree(n, rng)
        while key(other) in shown:
            other = random_tree(n, rng)
        ds = _DisplaySet(tag, trees, n)
        names = []
        for i, tr in enumerate(trees + [other]):
            (work / f"{tag}_{i}.nwk").write_text(newick(tr) + "\n")
            names.append(f"{tag}_{i}.nwk")
        trivials.append(Command(f"{tag}_trivial",
                                ["trivial"] + [a for f in names[:-1] for a in ("--trees", f)],
                                ds.trivial))
        net = f"{tag}_trivial.out"
        rest.append(Command(f"{tag}_displayed", ["displayed", "--network", net], ds.displayed))
        for i in range(t + 1) if members else [t]:
            rest.append(Command(f"{tag}_display_{i}",
                                ["display", "--network", net, "--tree", names[i]],
                                ds.query((trees + [other])[i])))
    # The trivial networks come first, as the other commands read them.
    rng.shuffle(rest)
    return trivials + rest


# ---------------------------------------------------------------------------
# bounds: short commands where start-up dominates


BOUNDS_GRID = [
    ("counting-lower", {"n": 64, "t": 2}),
    ("counting-lower", {"n": 1000, "t": 3}),
    ("counting-lower", {"n": 1024, "t": 4}),
    ("counting-lower", {"n": 4096, "t": 8}),
    ("counting-lower", {"n": 65536, "t": 16}),
    ("counting-lower", {"n": 100000, "t": 5}),
    ("counting-lower", {"n": 1 << 20, "t": 16}),
    ("counting-lower", {"n": 1 << 24, "t": 4}),
    ("counting-lower", {"n": 1024, "t": 4, "mode": "unrooted"}),
    ("counting-lower", {"n": 1 << 20, "t": 8, "mode": "unrooted"}),
    ("formula-lower", {"n": 64, "t": 2}),
    ("formula-lower", {"n": 1024, "t": 4}),
    ("formula-lower", {"n": 1 << 20, "t": 16}),
    ("formula-lower", {"n": 1 << 24, "t": 8}),
    ("formula-lower", {"n": 1024, "t": 4, "mode": "unrooted"}),
    ("formula-lower", {"n": 100, "t": 3}),
    ("formula-lower", {"n": 1000, "t": 5}),
    ("formula-lower", {"n": 12345, "t": 7}),
    ("formula-lower", {"n": 1000000, "t": 10}),
    ("formula-lower", {"n": 1000, "t": 6, "mode": "unrooted"}),
    ("network-count", {"n": 4, "r": 2}),
    ("network-count", {"n": 10, "r": 5}),
    ("network-count", {"n": 50, "r": 20}),
    ("network-count", {"n": 10, "r": 5, "mode": "unrooted"}),
    ("pair-count", {"n": 10, "t": 3, "r": 4}),
    ("pair-count", {"n": 50, "t": 4, "r": 10}),
    ("pair-count", {"n": 10, "t": 3, "r": 4, "mode": "unrooted"}),
    ("tree-set-count", {"n": 6, "t": 2}),
    ("tree-set-count", {"n": 10, "t": 5}),
    ("tree-set-count", {"n": 8, "t": 3, "mode": "unrooted"}),
]
TINY_BOUNDS = [0, 10, 15, 20, 24, 27]
LEMMA_KMAX = 128


def _check_bound(stored: str):
    def check(out: str, _: Outputs) -> None:
        got, want = json.loads(out), json.loads(stored)
        if "lo" in want and want["lo"] != want["hi"]:
            # interval path: any certified enclosure of the same real must
            # overlap the stored one, so tighter intervals still pass
            lo, hi = Fraction(got["lo"]), Fraction(got["hi"])
            require(lo <= hi, "empty interval")
            require(max(lo, Fraction(want["lo"])) <= min(hi, Fraction(want["hi"])),
                    "interval misses the stored enclosure")
            return
        require(got == want, f"bound value {out.strip()!r}, expected {stored.strip()!r}")
    return check


def build_bounds(rng: random.Random, work: Path, tiny: bool, exp: dict) -> list[Command]:
    grid = [BOUNDS_GRID[i] for i in TINY_BOUNDS] if tiny else BOUNDS_GRID
    cmds = []
    for i, (stmt, params) in enumerate(grid):
        args = ["bounds", "--stmt", stmt]
        for k, v in params.items():
            args += [f"--{k}", str(v)]
        cmds.append(Command(f"bounds_{i}", args, _check_bound(exp["outputs"][_key(args)])))
    rng.shuffle(cmds)
    args = ["verify", "--lemmas", "--kmax", str(16 if tiny else LEMMA_KMAX)]
    cmds.append(Command("lemmas", args, _check_report_rows(exp["values"][_key(args)])))
    return cmds


WORKLOADS = {
    "enumerate": build_enumerate,
    "groundtruth": build_groundtruth,
    "display": build_display,
    "bounds": build_bounds,
}
