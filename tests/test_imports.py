"""Every imported name is read somewhere in its module, or re-exported by `__all__`;
every public function or class and every private function of the package is read
somewhere in it, or exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/retnet", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src/retnet").rglob("*.py"))


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
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
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
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
    return [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if (isinstance(node, ast.FunctionDef)
                or isinstance(node, ast.ClassDef) and not node.name.startswith("_"))
            and node.name not in read]


def test_no_dead_public_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE}
    assert dead_public_names(trees) == []


def test_cli_import_skips_mpmath():
    # only the interval-certified bounds need mpmath, and they import it on first use;
    # the CLI parses with argparse and needs no click at all
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, retnet.cli; print([m in sys.modules for m in ('mpmath', 'click')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[False, False]"


def test_cli_import_skips_dataclasses():
    # the value types are named tuples, so no module needs dataclasses or the inspect it loads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, retnet.cli; print([m in sys.modules for m in ('dataclasses', 'inspect')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[False, False]"
