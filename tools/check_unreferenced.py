#!/usr/bin/env python3
"""Fail on a function or method in ``src/repro`` that nothing references.

A ``def`` counts as referenced when its name occurs outside its own
definition, in any Python file under ``src/``, ``tests/``,
``benchmarks/``, ``examples/``, ``tools/`` or ``perfbench/``: as a
name, an attribute, an imported name, or a string constant (the
entries of ``__all__``, dispatch tables).  Matching is by name, as a
grep would, so a method shares its references with every same-named
function; the check finds what *no* code mentions.

Exempt without listing:

* dunder methods (``__init__``, ``__getstate__``, ...);
* methods that override a method of a base class — a class of
  ``src/repro`` followed by name, or an importable base (``Exception``,
  ``pickle.Pickler``, ...) that has the attribute.

Any other exemption goes in :data:`ALLOWED`, one reason per entry.

Usage::

    python tools/check_unreferenced.py      # exit status 1 on findings

Uses the standard library only.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REFERENCE_TREES = ("src", "tests", "benchmarks", "examples", "tools",
                   "perfbench")

#: ``"module.qualname"`` -> why the definition stays without a caller.
ALLOWED: dict[str, str] = {}


def _python_files(top: Path):
    return sorted(p for p in top.rglob("*.py") if p.is_file())


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Every identifier ``tree`` mentions, with its line."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                found.append((part, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            found.append((node.value, node.lineno))
    return found


class _Definitions(ast.NodeVisitor):
    """Collect ``def``s with their span, qualname and enclosing class."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.classes: list[ast.ClassDef | None] = [None]
        self.found: list[tuple[str, str, int, int, ast.ClassDef | None]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        qualname = ".".join(self.scope + [node.name])
        self.found.append((node.name, f"{self.module}.{qualname}",
                           node.lineno, node.end_lineno, self.classes[-1]))
        self.scope.append(node.name)
        self.classes.append(None)
        self.generic_visit(node)
        self.classes.pop()
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _imported_names(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, attribute) of the module's imports; the
    attribute is empty for a plain ``import module``."""
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = (alias.name, "")
                else:
                    head = alias.name.split(".")[0]
                    names[head] = (head, "")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _external_base(expr: ast.expr, imports: dict[str, tuple[str, str]]):
    """The imported or builtin class a base-class expression names, or
    ``None`` when it cannot be imported."""
    head, *path = ast.unparse(expr).split(".")
    if head not in imports:
        value = None if path else getattr(builtins, head, None)
    else:
        module, attr = imports[head]
        try:
            value = importlib.import_module(module)
        except ImportError:
            return None
        path = ([attr] if attr else []) + path
    for part in path:
        value = getattr(value, part, None)
    return value


def main() -> int:
    Imports = dict[str, tuple[str, str]]
    classes: dict[str, list[tuple[ast.ClassDef, Imports]]] = {}
    definitions = []
    occurrences: dict[str, list[tuple[Path, int]]] = {}
    for tree_name in REFERENCE_TREES:
        for path in _python_files(ROOT / tree_name):
            tree = ast.parse(path.read_text(), str(path))
            for name, line in _references(tree):
                occurrences.setdefault(name, []).append((path, line))
            if not path.is_relative_to(PACKAGE):
                continue
            module = ".".join(
                path.relative_to(PACKAGE.parent).with_suffix("").parts)
            imports = _imported_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, []).append((node, imports))
            collector = _Definitions(module)
            collector.visit(tree)
            definitions.extend((path, imports, *found)
                               for found in collector.found)

    def overrides(cls: ast.ClassDef, imports: Imports, name: str,
                  seen: set[int]) -> bool:
        for base in cls.bases:
            local = ast.unparse(base).rpartition(".")[2]
            if local in classes:
                for base_cls, base_imports in classes[local]:
                    if id(base_cls) in seen:
                        continue
                    seen.add(id(base_cls))
                    if any(isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                           and item.name == name for item in base_cls.body):
                        return True
                    if overrides(base_cls, base_imports, name, seen):
                        return True
            elif hasattr(_external_base(base, imports), name):
                return True
        return False

    unreferenced = []
    for path, imports, name, qualname, start, end, cls in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if qualname in ALLOWED:
            continue
        if any(where != path or not start <= line <= end
               for where, line in occurrences.get(name, ())):
            continue
        if cls is not None and overrides(cls, imports, name, set()):
            continue
        unreferenced.append(f"{path.relative_to(ROOT)}:{start}: {qualname}")
    stale = sorted(set(ALLOWED) - {d[3] for d in definitions})
    for line in unreferenced:
        print(f"unreferenced: {line}")
    for qualname in stale:
        print(f"stale allow-list entry: {qualname}")
    if unreferenced or stale:
        print(f"{len(unreferenced)} unreferenced definition(s); delete them "
              f"or add them to ALLOWED in {Path(__file__).name} with a "
              f"reason", file=sys.stderr)
        return 1
    print(f"ok: {len(definitions)} definitions in src/repro, every one "
          f"referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
