"""Unused imports (ruff's F401) over every linted tree, as a tier-1 test.

``pyproject.toml`` selects F401 for ``ruff``, which the test environment
does not ship; this AST pass applies the same rule wherever the tests
run.  It follows ruff's reading: an import is used when its bound name
is read in the scope that imports it (or a scope nested in it), in a
string annotation there, or — at module level — listed in ``__all__``.
``import x as x`` / ``from m import x as x`` are explicit re-exports,
``# noqa: F401`` silences a line and ``**/__init__.py`` is ignored, as
in the pyproject's ``per-file-ignores``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
LINTED = ("src", "tests", "benchmarks", "examples")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope`` outside the function scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _imports(scope: ast.AST) -> Iterator[Tuple[str, int]]:
    """(bound name, line) of each import binding ``scope`` owns."""
    for node in _owned(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname != alias.name:
                    yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    yield alias.asname or alias.name, node.lineno


def _annotations(scope: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(scope):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(scope: ast.AST) -> Set[str]:
    """Names read anywhere under ``scope``, string annotations included."""
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    for annotation in _annotations(scope):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _used(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a Literal["..."] value, not a type
                    pass
    return used


def _dunder_all(module: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names |= {elt.value for elt in ast.walk(node.value)
                          if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every unused import in one module's source."""
    module = ast.parse(source)
    lines = source.splitlines()
    scopes = [module] + [n for n in ast.walk(module) if isinstance(n, _SCOPES)]
    hits = []
    for scope in scopes:
        used = _used(scope)
        if scope is module:
            used |= _dunder_all(module)
        for name, line in _imports(scope):
            if name not in used and "noqa: F401" not in lines[line - 1]:
                hits.append((line, name))
    return sorted(hits)


def _linted_files() -> List[Path]:
    return sorted(
        path
        for tree in LINTED
        for path in (ROOT / tree).rglob("*.py")
        if path.name != "__init__.py"
    )


class TestUnusedImports:
    def test_no_unused_imports(self):
        files = _linted_files()
        assert len(files) > 100
        hits = [
            f"{path.relative_to(ROOT)}:{line}: F401 {name!r} imported but unused"
            for path in files
            for line, name in unused_imports(path.read_text())
        ]
        assert not hits, "\n".join(hits)

    def test_the_pass_sees_what_ruff_sees(self):
        source = (
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "import numpy as np\n"
            "from typing import Dict, List, Optional\n"
            "from .x import exported, kept as kept\n"
            "from .y import hinted  # noqa: F401 - optional\n"
            "__all__ = ['exported']\n"
            "def f(a: 'Optional[int]') -> List[int]:\n"
            "    import json\n"
            "    import re\n"
            "    return [re.sub('', '', a)]\n"
            "def g():\n"
            "    return np.zeros(1)\n"
        )
        assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "Dict"),
                                          (10, "json")]
