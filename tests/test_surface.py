"""The public surface is what the program and the benchmark reach.

Every public top-level function or class in src/bsratio must be referenced
(as a name, an attribute or an import alias) from another place in the
package or from perfbench/rep.py.  References from __init__.py do not
count, and neither do docstrings.  Oracles that only tests call live in
tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bsratio"


def _references(tree: ast.Module):
    """(name, top-level definition enclosing the reference, or None)."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name, owner


def test_every_public_name_has_a_caller():
    modules = {
        p: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
    }
    rep = ROOT / "perfbench" / "rep.py"
    refs = [
        (name, path, owner)
        for path, tree in [*modules.items(), (rep, ast.parse(rep.read_text()))]
        for name, owner in _references(tree)
    ]
    unreached = sorted(
        f"{path.stem}.{stmt.name}"
        for path, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(r == stmt.name and (p != path or o != stmt.name) for r, p, o in refs)
    )
    assert unreached == []


def test_init_reexports_only_submodules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
    assert imports and all(
        isinstance(s, ast.ImportFrom) and s.level == 1 and s.module is None for s in imports
    )
    assert {a.name for s in imports for a in s.names} <= {p.stem for p in PACKAGE.glob("*.py")}
