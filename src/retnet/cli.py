"""Command-line front end.

Streams are JSON Lines by default (one object per line) or CSV via
--format csv.  Exit codes: 0 success, 1 domain error, 2 usage error.
Output is deterministic, in canonical order.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Iterable

import click

from . import bounds, codec, display, generate, model, serialize, solver
from .canonical import canonical_positions
from .errors import RetnetError
from .model import ROOTED, UNROOTED

_MODE = click.Choice([ROOTED, UNROOTED])


_encode_row = json.JSONEncoder(sort_keys=True).encode  # json.dumps(row, sort_keys=True)


def _emit_stream(rows: Iterable[dict], fmt: str) -> None:
    """Write the rows to stdout as they come, and flush once at the end."""
    out = click.get_text_stream("stdout")
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


def _report_rows(reports) -> list[dict]:
    return [{"name": rep.name, "parameters": json.dumps(rep.parameters, sort_keys=True),
             "lhs": str(rep.lhs), "rhs": str(rep.rhs), "holds": rep.holds} for rep in reports]


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


@click.group()
def main() -> None:
    """Exact combinatorics for binary phylogenetic networks."""


_format_option = click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]),
                              default="jsonl", show_default=True)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
@click.option("--count-only", is_flag=True)
@_format_option
def trees(n: int, mode: str, count_only: bool, fmt: str) -> None:
    """Enumerate all binary trees on n labelled leaves."""
    if count_only:
        click.echo(str(bounds.tree_count(n, mode)))
        return
    _emit_stream(({"newick": serialize.tree_to_newick(T)}
                  for T in generate.enumerate_trees(n, mode)), fmt)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
@click.option("--count-only", is_flag=True)
@click.option("--leaf-connecting/--no-leaf-connecting", default=True, show_default=True)
@_format_option
def networks(n: int, r: int, mode: str, count_only: bool,
             leaf_connecting: bool, fmt: str) -> None:
    """Enumerate all binary networks with n leaves and r reticulations."""
    nets = generate.enumerate_networks(n, r, mode, leaf_connecting=leaf_connecting)
    if count_only:
        click.echo(str(len(nets)))
        return
    _emit_stream(({"network": _write_network(N)} for N in nets), fmt)


@main.command()
@click.option("--network", "path", type=click.Path(exists=True), required=True)
@click.option("--count-only", is_flag=True)
@_format_option
def switchings(path: str, count_only: bool, fmt: str) -> None:
    """Enumerate the switchings of a network."""
    N = _read_network(path)
    sws = generate.enumerate_switchings(N)
    if count_only:
        click.echo(str(len(sws)))
        return
    _emit_stream(({"off_edges": sorted(N.edges[i] for i in s.off)} for s in sws), fmt)


@main.command()
@click.option("--network", "path", type=click.Path(exists=True), required=True)
@click.option("--labels", "labels_path", type=click.Path(exists=True), required=True,
              help="Sidecar JSON mapping reticulation edges to labels 1..r.")
def encode(path: str, labels_path: str) -> None:
    """Encode a reticulation-labelled network as a tree; prints Newick."""
    N = _read_network(path)
    lab = serialize.json_to_labelling(N, Path(labels_path).read_text())
    T = codec.encode_tau(N, lab)
    click.echo(serialize.tree_to_newick(T))


@main.command()
@click.option("--tree", "path", type=click.Path(exists=True), required=True)
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
def decode(path: str, n: int, r: int, mode: str) -> None:
    """Decode a tree on n+2r leaves back to a labelled network.

    Prints a JSON object holding the network and the edge-label sidecar.
    """
    T = _read_tree(path, mode)
    N, lab = codec.decode_tau(T, n, r)
    text = _write_network(N)
    labels = json.loads(serialize.labelling_to_json(lab))
    if mode == ROOTED:
        # name the labelled edges by the node ids that reading `text` back
        # gives: two least orderings differ by an isomorphism
        N2 = serialize.enewick_to_network(text)
        pos = canonical_positions(N)
        node2 = {p: v for v, p in enumerate(canonical_positions(N2))}
        labels["edge_labels"] = [[node2[pos[u]], node2[pos[v]], h]
                                 for u, v, h in labels["edge_labels"]]
    click.echo(json.dumps({"network": text, "labels": labels}, sort_keys=True))


@main.command("display")
@click.option("--network", "net_path", type=click.Path(exists=True), required=True)
@click.option("--tree", "tree_path", type=click.Path(exists=True), required=True)
def display_cmd(net_path: str, tree_path: str) -> None:
    """Decide whether the network displays the tree; prints a JSON verdict."""
    N = _read_network(net_path)
    T = _read_tree(tree_path, N.mode)
    ok, witness = display.displays(N, T)
    doc = {"displays": ok,
           "witness_off_edges": sorted(N.edges[i] for i in witness.off) if witness else None}
    click.echo(json.dumps(doc, sort_keys=True))


@main.command()
@click.option("--network", "path", type=click.Path(exists=True), required=True)
@click.option("--count-only", is_flag=True)
@_format_option
def displayed(path: str, count_only: bool, fmt: str) -> None:
    """List every tree the network displays."""
    N = _read_network(path)
    ts = display.displayed_trees(N)
    if count_only:
        click.echo(str(len(ts)))
        return
    _emit_stream(({"newick": serialize.tree_to_newick(T)} for T in ts), fmt)


@main.command()
@click.option("--trees", "paths", type=click.Path(exists=True), multiple=True,
              required=True)
def trivial(paths: tuple[str, ...]) -> None:
    """Build the trivial network displaying the given rooted trees."""
    ts = model.tree_set([_read_tree(p, ROOTED) for p in paths])
    N = display.trivial_network(ts)
    click.echo(serialize.network_to_enewick(N))


@main.command()
@click.option("--trees", "paths", type=click.Path(exists=True), multiple=True,
              required=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
def minret(paths: tuple[str, ...], mode: str) -> None:
    """Minimum reticulation number of a network displaying all the trees."""
    ts = model.tree_set([_read_tree(p, mode) for p in paths])
    r, witness = solver.min_reticulations(ts)
    click.echo(json.dumps({"r": r, "witness": _write_network(witness)},
                          sort_keys=True))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
@click.option("--samples", type=click.IntRange(min=1))
@click.option("--seed", type=int, default=0, show_default=True)
def worstcase(n: int, t: int, mode: str, samples: int | None, seed: int) -> None:
    """Largest min_reticulations over tree sets of size t on n leaves."""
    r, witness = solver.worst_case_r(n, t, mode, samples=samples, seed=seed)
    doc = {"r": r, "witness": [serialize.tree_to_newick(T) for T in witness.trees]}
    click.echo(json.dumps(doc, sort_keys=True))


_STMTS = ["tree-set-count", "network-count", "pair-count",
          "counting-lower", "formula-lower"]


@main.command("bounds")
@click.option("--stmt", type=click.Choice(_STMTS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--t", type=int)
@click.option("--r", type=int)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
def bounds_cmd(stmt: str, n: int, t: int | None, r: int | None, mode: str) -> None:
    """Evaluate a counting bound; prints a JSON report."""
    if stmt == "tree-set-count":
        if t is None:
            raise click.UsageError("--t is required for tree-set-count")
        rep = bounds.tree_set_count_bounds(n, t, mode)
        _emit_stream(_report_rows([rep]), "jsonl")
        return
    if stmt == "network-count":
        if r is None:
            raise click.UsageError("--r is required for network-count")
        b = bounds.network_count_bound(n, r, mode)
        click.echo(json.dumps({"tight": str(b.tight),
                               "relaxed": None if b.relaxed is None else str(b.relaxed)},
                              sort_keys=True))
        return
    if stmt == "pair-count":
        if t is None or r is None:
            raise click.UsageError("--t and --r are required for pair-count")
        click.echo(json.dumps({"bound": str(bounds.pair_count_bound(n, t, r, mode))}))
        return
    if t is None:
        raise click.UsageError(f"--t is required for {stmt}")
    if stmt == "counting-lower":
        click.echo(json.dumps({"r": bounds.counting_lower_bound(n, t, mode)}))
        return
    iv = bounds.formula_lower_bound(n, t, mode)
    click.echo(json.dumps({"lo": str(iv.lo), "hi": str(iv.hi),
                           "midpoint": float(iv)}, sort_keys=True))


@main.command()
@click.option("--lemmas", is_flag=True)
@click.option("--counts", is_flag=True)
@click.option("--kmax", type=int, default=64, show_default=True)
@click.option("--n-max", type=int, default=3, show_default=True)
@click.option("--r-max", type=int, default=1, show_default=True)
@click.option("--mode", type=_MODE, default=ROOTED, show_default=True)
def verify(lemmas: bool, counts: bool, kmax: int, n_max: int, r_max: int,
           mode: str) -> None:
    """Run the bound-verification suites; prints CSV."""
    if not lemmas and not counts:
        raise click.UsageError("pass --lemmas and/or --counts")
    reports = []
    if lemmas:
        reports.extend(bounds.verify_math_lemmas(kmax))
    if counts:
        reports.extend(solver.verify_counts(n_max, r_max, mode))
    _emit_stream(_report_rows(reports), "csv")
    if not all(rep.holds for rep in reports):
        raise RetnetError("a verification check failed")


def run(argv: list[str]) -> int:
    """Programmatic entry point mirroring the console script."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts pass CPython's 4,300-digit cap
        sys.set_int_max_str_digits(0)
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except RetnetError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


def _script_main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    _script_main()
