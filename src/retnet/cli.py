"""Command-line front end, parsed with the standard library's argparse.

Streams are JSON Lines by default (one object per line) or CSV via
--format csv.  Exit codes: 0 success, 1 domain error, 2 usage error; each
error is one line on stderr.  Output is deterministic, in canonical order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import bounds, canonical, codec, display, generate, model, serialize, solver
from .errors import MODES, ROOTED, DomainError, RetnetError


_encode_row = json.JSONEncoder(sort_keys=True).encode  # json.dumps(row, sort_keys=True)


def _emit_stream(rows: Iterable[dict], fmt: str) -> None:
    """Write the rows to stdout as they come, and flush once at the end."""
    out = sys.stdout
    if fmt == "jsonl":
        for row in rows:
            out.write(_encode_row(row) + "\n")
    else:
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            w = csv.DictWriter(out, fieldnames=list(first))
            w.writeheader()
            w.writerow(first)
            w.writerows(rows)
    out.flush()


def _report_rows(reports) -> Iterator[dict]:
    return ({"name": rep.name, "parameters": _encode_row(rep.parameters),
             "lhs": str(rep.lhs), "rhs": str(rep.rhs), "holds": rep.holds} for rep in reports)


def _write_network(N) -> str:
    if N.mode == ROOTED:
        return serialize.network_to_enewick(N)
    return serialize.network_to_json(N)


def _read_network(path: str):
    text = Path(path).read_text().strip()
    if text.startswith("{"):
        return serialize.json_to_network(text)
    return serialize.enewick_to_network(text)


def _read_tree(path: str, mode: str):
    return serialize.newick_to_tree(Path(path).read_text().strip(), mode)


def trees(n: int, mode: str, count_only: bool, fmt: str) -> None:
    """Enumerate all binary trees on n labelled leaves."""
    if count_only:
        print(bounds.tree_count(n, mode))
        return
    _emit_stream(({"newick": serialize.tree_to_newick(T)}
                  for T in generate.enumerate_trees(n, mode)), fmt)


def networks(n: int, r: int, mode: str, count_only: bool,
             leaf_connecting: bool, fmt: str) -> None:
    """Enumerate all binary networks with n leaves and r reticulations."""
    nets = generate.enumerate_networks(n, r, mode, leaf_connecting=leaf_connecting)
    if count_only:
        print(len(nets))
        return
    _emit_stream(({"network": _write_network(N)} for N in nets), fmt)


def switchings(path: str, count_only: bool, fmt: str) -> None:
    """Enumerate the switchings of a network."""
    N = _read_network(path)
    offs = generate._off_edges(N)  # one at a time: a count lists nothing
    if count_only:
        print(sum(1 for _ in offs))
        return
    _emit_stream(({"off_edges": sorted(N.edges[i] for i in off)} for off in offs), fmt)


def encode(path: str, labels_path: str) -> None:
    """Encode a reticulation-labelled network as a tree; prints Newick."""
    lab = serialize.json_to_labelling(_read_network(path), Path(labels_path).read_text())
    print(serialize.tree_to_newick(codec.encode_tau(lab)))


def decode(path: str, n: int, r: int, mode: str) -> None:
    """Decode a tree on n+2r leaves back to a labelled network.

    Prints a JSON object holding the network and the edge-label sidecar.
    """
    T = _read_tree(path, mode)
    lab = codec.decode_tau(T, n, r)
    N = lab.host
    text = _write_network(N)
    labels = json.loads(serialize.labelling_to_json(lab))
    if mode == ROOTED:
        # name the labelled edges by the node ids that reading `text` back
        # gives: two least orderings differ by an isomorphism
        N2 = serialize.enewick_to_network(text)
        pos = canonical.canonical_positions(N)
        node2 = {p: v for v, p in enumerate(canonical.canonical_positions(N2))}
        labels["edge_labels"] = [[node2[pos[u]], node2[pos[v]], h]
                                 for u, v, h in labels["edge_labels"]]
    print(json.dumps({"network": text, "labels": labels}, sort_keys=True))


def display_cmd(net_path: str, tree_path: str) -> None:
    """Decide whether the network displays the tree; prints a JSON verdict."""
    N = _read_network(net_path)
    T = _read_tree(tree_path, N.mode)
    ok, witness = display.displays(N, T)
    doc = {"displays": ok,
           "witness_off_edges": sorted(N.edges[i] for i in witness.off) if witness else None}
    print(json.dumps(doc, sort_keys=True))


def displayed(path: str, count_only: bool, fmt: str) -> None:
    """List every tree the network displays."""
    N = _read_network(path)
    ts = display.displayed_trees(N)
    if count_only:
        print(len(ts))
        return
    _emit_stream(({"newick": serialize.tree_to_newick(T)} for T in ts), fmt)


def trivial(paths: list[str]) -> None:
    """Build the trivial network displaying the given rooted trees."""
    ts = model.tree_set([_read_tree(p, ROOTED) for p in paths])
    N = display.trivial_network(ts)
    print(serialize.network_to_enewick(N))


def minret(paths: list[str], mode: str) -> None:
    """Minimum reticulation number of a network displaying all the trees."""
    ts = model.tree_set([_read_tree(p, mode) for p in paths])
    r, witness = solver.min_reticulations(ts)
    print(json.dumps({"r": r, "witness": _write_network(witness)}, sort_keys=True))


def worstcase(n: int, t: int, mode: str, samples: int | None, seed: int) -> None:
    """Largest min_reticulations over tree sets of size t on n leaves."""
    if samples is not None and samples < 1:
        raise argparse.ArgumentError(None, f"--samples must be at least 1, not {samples}")
    r, witness = solver.worst_case_r(n, t, mode, samples=samples, seed=seed)
    doc = {"r": r, "witness": [serialize.tree_to_newick(T) for T in witness.trees]}
    print(json.dumps(doc, sort_keys=True))


_STMTS = ["tree-set-count", "network-count", "pair-count",
          "counting-lower", "formula-lower"]


def bounds_cmd(stmt: str, n: int, t: int | None, r: int | None, mode: str) -> None:
    """Evaluate a counting bound; prints a JSON report."""
    if stmt == "tree-set-count":
        if t is None:
            raise argparse.ArgumentError(None, "--t is required for tree-set-count")
        rep = bounds.tree_set_count_bounds(n, t, mode)
        _emit_stream(_report_rows([rep]), "jsonl")
        return
    if stmt == "network-count":
        if r is None:
            raise argparse.ArgumentError(None, "--r is required for network-count")
        b = bounds.network_count_bound(n, r, mode)
        print(json.dumps({"tight": str(b.tight),
                          "relaxed": None if b.relaxed is None else str(b.relaxed)},
                         sort_keys=True))
        return
    if stmt == "pair-count":
        if t is None or r is None:
            raise argparse.ArgumentError(None, "--t and --r are required for pair-count")
        print(json.dumps({"bound": str(bounds.pair_count_bound(n, t, r, mode))}))
        return
    if t is None:
        raise argparse.ArgumentError(None, f"--t is required for {stmt}")
    if stmt == "counting-lower":
        print(json.dumps({"r": bounds.counting_lower_bound(n, t, mode)}))
        return
    iv = bounds.formula_lower_bound(n, t, mode)
    try:
        midpoint = float(iv)
    except OverflowError:
        raise DomainError("the bound's midpoint exceeds the float range") from None
    print(json.dumps({"lo": str(iv.lo), "hi": str(iv.hi),
                      "midpoint": midpoint}, sort_keys=True))


def verify(lemmas: bool, counts: bool, kmax: int, n_max: int, r_max: int,
           mode: str) -> None:
    """Run the bound-verification suites; prints CSV."""
    if not lemmas and not counts:
        raise argparse.ArgumentError(None, "pass --lemmas and/or --counts")
    reports = []
    if lemmas:
        reports.extend(bounds.verify_math_lemmas(kmax))
    if counts:
        reports.extend(solver.verify_counts(n_max, r_max, mode))
    _emit_stream(_report_rows(reports), "csv")
    if not all(rep.holds for rep in reports):
        raise RetnetError("a verification check failed")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line and exit 2 from run(), not argparse's usage text and sys.exit
        raise argparse.ArgumentError(None, message)


def _existing(path: str) -> str:
    if not Path(path).exists():
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _int(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, {"type": int, "required": "default" not in kwargs, **kwargs}


def _path(flag: str, dest: str, **kwargs) -> tuple[str, dict]:
    return flag, {"dest": dest, "type": _existing, "required": True, **kwargs}


_MODE = ("--mode", {"choices": MODES, "default": ROOTED})
_FLAG = {"action": "store_true"}
_COUNT_ONLY = ("--count-only", _FLAG)
_FORMAT = ("--format", {"dest": "fmt", "choices": ["jsonl", "csv"], "default": "jsonl"})
_TREES = _path("--trees", "paths", action="append")

# command name -> (function, its options as add_argument's (flag, keywords))
_COMMANDS = {
    "trees": (trees, [_int("--n"), _MODE, _COUNT_ONLY, _FORMAT]),
    "networks": (networks, [_int("--n"), _int("--r"), _MODE, _COUNT_ONLY,
                            ("--leaf-connecting", {"action": argparse.BooleanOptionalAction,
                                                   "default": True}), _FORMAT]),
    "switchings": (switchings, [_path("--network", "path"), _COUNT_ONLY, _FORMAT]),
    "encode": (encode, [_path("--network", "path"), _path(
        "--labels", "labels_path", help="Sidecar JSON mapping reticulation edges to labels 1..r.")]),
    "decode": (decode, [_path("--tree", "path"), _int("--n"), _int("--r"), _MODE]),
    "display": (display_cmd, [_path("--network", "net_path"), _path("--tree", "tree_path")]),
    "displayed": (displayed, [_path("--network", "path"), _COUNT_ONLY, _FORMAT]),
    "trivial": (trivial, [_TREES]),
    "minret": (minret, [_TREES, _MODE]),
    "worstcase": (worstcase, [_int("--n"), _int("--t"), _MODE,
                              _int("--samples", default=None), _int("--seed", default=0)]),
    "bounds": (bounds_cmd, [("--stmt", {"choices": _STMTS, "required": True}), _int("--n"),
                            _int("--t", default=None), _int("--r", default=None), _MODE]),
    "verify": (verify, [("--lemmas", _FLAG), ("--counts", _FLAG), _int("--kmax", default=64),
                        _int("--n-max", default=3), _int("--r-max", default=1), _MODE]),
}


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of the given command alone, or of every command for None."""
    parser = _Parser(prog="retnet", allow_abbrev=False,
                     description="Exact combinatorics for binary phylogenetic networks.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, options) in _COMMANDS.items():
        if command not in (None, name):
            continue  # all twelve parsers took each run about 2 ms more CPU
        sub = commands.add_parser(name, help=func.__doc__.splitlines()[0],
                                  description=func.__doc__, allow_abbrev=False)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    return parser


def run(argv: list[str]) -> int:
    """Programmatic entry point mirroring the console script."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts pass CPython's 4,300-digit cap
        sys.set_int_max_str_digits(0)
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = vars(_parser(command).parse_args(argv))
        _COMMANDS[args.pop("command")][0](**args)
        return 0
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help printed to stdout
        return exc.code
    except RetnetError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout early
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _script_main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # so that the interpreter's flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    _script_main()
