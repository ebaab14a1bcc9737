"""Every imported name is read somewhere in its module, or re-exported by `__all__`;
every public function or class and every private function of the package is read
somewhere in it, or exported.  Each CLI command runs only the modules it reaches."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import retnet
from retnet import serialize

import conftest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/retnet", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/retnet").rglob("*.py"))


def exported(node: ast.AST) -> set[str]:
    """Every string in an assignment to `__all__` or to `__init__`'s table `_EXPORTS`
    (defining module -> its public names, from which `__all__` is built)."""
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS") for t in node.targets):
        return {n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        read.update(exported(node))
        # a quoted annotation is read like code
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(ast.parse(p.read_text()))
             for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}


def dead_public_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level functions, public or private, and public classes that no package code
    reads; a private function that only the tests read is dead too."""
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
            read.update(exported(node))
    # the interpreter calls a module's PEP 562 hooks, so nothing in the code reads them
    return [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if (isinstance(node, ast.FunctionDef) and node.name not in ("__getattr__", "__dir__")
                or isinstance(node, ast.ClassDef) and not node.name.startswith("_"))
            and node.name not in read]


def test_no_dead_public_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE}
    assert dead_public_names(trees) == []


def readers(trees: dict[str, ast.Module], is_read) -> set[str]:
    """module.function (or module alone, at module level) for every node that `is_read`."""
    return {f"{mod}.{top.name}" if hasattr(top, "name") else mod
            for mod, tree in trees.items() for top in tree.body
            for node in ast.walk(top) if is_read(node)}


def test_only_model_check_turns_reports_into_errors():
    # every invalid-value error is raised by model.check or model.check_tree; decode_tau
    # alone reads a report, because decode prints only its first violation
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE if p.stem != "model"}
    assert readers(trees, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("violations", "ok")) == {"codec.decode_tau"}


def test_only_the_entry_points_list_every_tree():
    # a shape's representative is built from the tree itself, so no module keeps a
    # side table over every tree on [n]
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE}
    assert readers(trees, lambda node: isinstance(node, ast.Name) and node.id == "enumerate_trees"
                   or isinstance(node, ast.Attribute) and node.attr == "enumerate_trees") == {
        "cli.trees", "generate.enumerate_networks", "solver.worst_case_r"}


def test_no_export_takes_a_network_beside_a_switching_or_labelling():
    # a switching or labelling holds its network (`host`): no function takes that
    # network again, so none compares two copies of it
    carriers = ("Switching", "ReticulationLabelling")
    for name in retnet.__all__:
        if inspect.isfunction(fn := getattr(retnet, name)):
            kinds = [str(p.annotation) for p in inspect.signature(fn).parameters.values()]
            graphs = {i for i, a in enumerate(kinds) if "Graph" in a}
            carried = {i for i, a in enumerate(kinds) if any(c in a for c in carriers)}
            assert not any(g != c for g in graphs for c in carried), name
    assert [p for p in (ROOT / "src").rglob("*")
            if p.is_file() and b"hosted by this network" in p.read_bytes()] == []


def test_cli_import_skips_mpmath():
    # no command needs mpmath, and the CLI parses with argparse and needs no click at all
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, retnet.cli; print([m in sys.modules for m in ('mpmath', 'click')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[False, False]"
    # nor does a command: the exact statements, the lemma suite, and the counting and
    # formula bounds, whose logarithm enclosures are integer arithmetic
    commands = [["verify", "--lemmas", "--kmax", "16"],
                ["bounds", "--stmt", "tree-set-count", "--n", "10", "--t", "5"],
                ["bounds", "--stmt", "network-count", "--n", "50", "--r", "20"],
                ["bounds", "--stmt", "pair-count", "--n", "50", "--t", "4", "--r", "10"],
                ["bounds", "--stmt", "counting-lower", "--n", "64", "--t", "2"],
                ["bounds", "--stmt", "counting-lower", "--n", "16777216", "--t", "4"],
                ["bounds", "--stmt", "formula-lower", "--n", "100", "--t", "3"]]
    probe = ("import contextlib, io, sys, retnet.cli\n"
             f"for argv in {commands!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = retnet.cli.run(argv)\n"
             "    print(code, 'mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["0 False"] * len(commands)


def test_cli_import_skips_dataclasses():
    # the value types are named tuples, so no module needs dataclasses or the inspect it loads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, retnet.cli; print([m in sys.modules for m in ('dataclasses', 'inspect')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[False, False]"


def probe(code: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter on the package in `src/`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def executed_after_each(commands: list[list[str]]) -> list[str]:
    """For each command, its exit code and the retnet modules that have run by its end;
    a lazy module that is registered but not yet run is a `_LazyModule`, not a ModuleType."""
    return probe("import contextlib, io, sys, types, retnet.cli\n"
                 f"for argv in {commands!r}:\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        code = retnet.cli.run(argv)\n"
                 "    print(code, sorted(k[7:] for k, m in sys.modules.items()\n"
                 "                       if k.startswith('retnet.') and type(m) is types.ModuleType))")


def test_each_command_runs_only_the_modules_it_reaches(tmp_path):
    # `import retnet` runs errors alone, and the counting bounds run no graph module
    commands = [["trees", "--n", "1", "--count-only"],
                ["bounds", "--stmt", "counting-lower", "--n", "64", "--t", "2"],
                ["verify", "--lemmas", "--kmax", "16"]]
    assert executed_after_each(commands) == ["0 ['bounds', 'cli', 'errors']"] * len(commands)
    net = tmp_path / "net.enwk"
    net.write_text(serialize.network_to_enewick(conftest.six_leaf_network()))
    [line] = executed_after_each([["displayed", "--network", str(net), "--count-only"]])
    code, executed = line.split(" ", 1)
    assert code == "0" and not {"solver", "codec", "bounds"} & set(ast.literal_eval(executed))
    # yet every module is registered once the CLI is imported, for tools that look them up
    [registered] = probe("import sys, retnet.cli\n"
                         "print(sorted(k for k in sys.modules if k.startswith('retnet.')))")
    assert ast.literal_eval(registered) == [f"retnet.{p.stem}" for p in PACKAGE
                                            if p.stem != "__init__"]


def test_every_exported_name_is_its_defining_module_object():
    for name in retnet.__all__:
        obj = getattr(retnet, name)
        home = sys.modules[f"retnet.{retnet._HOME[name]}"]
        assert obj is getattr(home, name)
        assert isinstance(obj, str) or obj.__module__ == home.__name__, name
    assert retnet._HOME["ROOTED"] == retnet._HOME["UNROOTED"] == "errors"
    star: dict = {}
    exec("from retnet import *", star)
    assert star.keys() - {"__builtins__"} == set(retnet.__all__)
    assert all(star[name] is getattr(retnet, name) for name in retnet.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(retnet, "no_such_name")
    assert set(retnet.__all__) <= set(dir(retnet))
