"""ruff's selected rules that an AST can see, over every linted tree.

``pyproject.toml`` selects E7, E9, F401, F63, F7, F82 and F841 for ``ruff``,
which the test environment does not ship; these passes apply the same
rules wherever the tests run.

* F401, unused imports.  It follows ruff's reading: an import is used
  when its bound name is read in the scope that imports it (or a scope
  nested in it), in a string annotation there, or — at module level —
  listed in ``__all__``.  ``import x as x`` / ``from m import x as x``
  are explicit re-exports and ``**/__init__.py`` is ignored, as in the
  pyproject's ``per-file-ignores``.
* E9 and F70x: every file compiles, which rejects syntax errors and a
  ``break`` / ``continue`` / ``return`` / ``yield`` out of place.
* F631 (assert on a tuple), F632 (``is`` against a literal) and
  E711 / E712 / E713 / E714 / E721 / E722 / E731 / E741 (comparisons to
  ``None`` / ``True``, ``not x in``, ``not x is``, ``type() ==``, bare
  ``except``, a named lambda, the names ``l`` / ``O`` / ``I``).

* F821, undefined names.  The stdlib ``symtable`` resolves every scope;
  a name that some scope reads as a global must be bound at module
  level — by an assignment, import, ``def`` / ``class``, or a
  ``global`` declaration in a function that binds it — or be a
  builtin.  Files with ``from m import *`` are skipped, as their
  globals are unknown.
* F822, undefined names in ``__all__``: every string listed there must
  be bound at module level in the same sense (builtins do not count).
  ``__init__.py`` files are checked too; ``import *`` files skipped.

* F841, unused local variables: a name a function binds by plain
  assignment (``x = ...``, ``x: T = ...``, ``x := ...``), by
  ``with ... as x`` or by ``except ... as x`` that nothing in the
  function (nested scopes included) reads.  As in ruff's defaults,
  tuple-unpacking targets are not flagged, an augmented assignment
  (``x += 1``) counts as a use, ``global`` / ``nonlocal`` names and
  dummy names (a leading underscore) are skipped, and so is a function
  that calls ``locals()``.

``# noqa: <code>`` silences a line.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINTED = ("src", "tests", "benchmarks", "examples")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned(scope: ast.AST, nested: tuple = _SCOPES) -> Iterator[ast.AST]:
    """Nodes of ``scope`` outside the ``nested`` scopes (functions) in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, nested):
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


_SINGLETONS = (None, True, False, Ellipsis)
_AMBIGUOUS = {"l", "O", "I"}


def _is_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.Tuple) and all(_is_constant(elt) for elt in node.elts))


def _is_literal(node: ast.AST) -> bool:
    """A constant other than a singleton: ``is`` against it is F632."""
    return _is_constant(node) and not (
        isinstance(node, ast.Constant) and any(node.value is s for s in _SINGLETONS))


def _is_type_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type" and len(node.args) == 1)


def _comparison_hits(node: ast.Compare) -> Iterator[str]:
    operands = [node.left] + node.comparators
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Is, ast.IsNot)) and (_is_literal(left) or _is_literal(right)):
            yield "F632"
        if isinstance(op, (ast.Eq, ast.NotEq)):
            for side in (left, right):
                if isinstance(side, ast.Constant) and side.value is None:
                    yield "E711"
                elif isinstance(side, ast.Constant) and isinstance(side.value, bool):
                    yield "E712"
            if _is_type_call(left) or _is_type_call(right):
                yield "E721"


def _names_bound(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.arg):
        yield node.arg
    elif isinstance(node, ast.ExceptHandler) and node.name:
        yield node.name
    elif isinstance(node, (ast.Global, ast.Nonlocal)):
        yield from node.names


def rule_violations(source: str) -> List[Tuple[int, str]]:
    """(line, code) of every F63 / E7 hit in one module's source."""
    module = ast.parse(source)
    lines = source.splitlines()
    hits = []
    for node in ast.walk(module):
        codes: List[str] = []
        if isinstance(node, ast.Assert) and isinstance(node.test, ast.Tuple) and node.test.elts:
            codes.append("F631")
        elif isinstance(node, ast.Compare):
            codes.extend(_comparison_hits(node))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = node.operand
            if isinstance(inner, ast.Compare) and len(inner.ops) == 1:
                if isinstance(inner.ops[0], ast.In):
                    codes.append("E713")
                elif isinstance(inner.ops[0], ast.Is):
                    codes.append("E714")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            codes.append("E722")
        elif (isinstance(node, (ast.Assign, ast.AnnAssign))
              and isinstance(node.value, ast.Lambda)
              and all(isinstance(t, ast.Name) for t in
                      (node.targets if isinstance(node, ast.Assign) else [node.target]))):
            codes.append("E731")
        if any(name in _AMBIGUOUS for name in _names_bound(node)):
            codes.append("E741")
        for code in codes:
            line = node.lineno
            if f"noqa: {code}" not in lines[line - 1]:
                hits.append((line, code))
    return sorted(hits)


_MODULE_NAMES = set(dir(builtins)) | {"__file__", "__builtins__", "__path__"}


def _tables(top: symtable.SymbolTable) -> Iterator[symtable.SymbolTable]:
    stack = [top]
    while stack:
        table = stack.pop()
        yield table
        stack.extend(table.get_children())


_SCOPE_NODE_NAMES = {ast.Lambda: "lambda", ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                     ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, *_SCOPE_NODE_NAMES)


def _scope_nodes(module: ast.Module, table: symtable.SymbolTable) -> List[ast.AST]:
    """The AST node(s) of ``table``'s scope, matched by name and line."""
    if table.get_type() == "module":
        return [module]
    return [node for node in ast.walk(module)
            if getattr(node, "lineno", None) == table.get_lineno()
            and (getattr(node, "name", None) or _SCOPE_NODE_NAMES.get(type(node)))
            == table.get_name()]


def _first_read(scopes: List[ast.AST], name: str) -> int:
    """Line of the first read of ``name`` in ``scopes`` outside their nested
    scopes, or anywhere under them (a default or decorator) if none."""
    own = [node for scope in scopes for node in _owned(scope, _NESTED_SCOPES)]
    everywhere = (node for scope in scopes for node in ast.walk(scope))
    for nodes in (own, everywhere):
        lines = [node.lineno for node in nodes if isinstance(node, ast.Name) and node.id == name]
        if lines:
            return min(lines)
    raise AssertionError(f"symtable reads {name!r} where the AST does not")


def _star_imports(module: ast.Module) -> bool:
    return any(isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
               for node in ast.walk(module))


def _module_bound(tables: List[symtable.SymbolTable]) -> Set[str]:
    """Names bound at module level: locals of the module table, plus
    names a function's ``global`` declaration assigns or imports."""
    bound = {s.get_name() for s in tables[0].get_symbols() if s.is_local()}
    return bound | {s.get_name() for table in tables for s in table.get_symbols()
                    if s.is_declared_global() and (s.is_assigned() or s.is_imported())}


def undefined_names(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every F821 hit in one module's source."""
    module = ast.parse(source)
    if _star_imports(module):
        return []
    tables = list(_tables(symtable.symtable(source, "<lint>", "exec")))
    bound = _module_bound(tables)
    lines = source.splitlines()
    hits = set()
    for table in tables:
        missing = {s.get_name() for s in table.get_symbols()
                   if s.is_referenced() and s.is_global()} - bound - _MODULE_NAMES
        scopes = _scope_nodes(module, table)
        for name in missing:
            line = _first_read(scopes, name)
            if "noqa: F821" not in lines[line - 1]:
                hits.add((line, name))
    return sorted(hits)


def undefined_exports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every F822 hit: an ``__all__`` entry never bound."""
    module = ast.parse(source)
    if _star_imports(module):
        return []
    bound = _module_bound(list(_tables(symtable.symtable(source, "<lint>", "exec"))))
    lines = source.splitlines()
    return sorted(
        (elt.lineno, elt.value)
        for node in module.body
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        and elt.value not in bound and "noqa: F822" not in lines[elt.lineno - 1]
    )


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_bindings(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """(name, line) of each binding ``node`` makes that F841 can flag."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    elif isinstance(node, ast.NamedExpr):
        targets = [node.target]
    elif isinstance(node, ast.withitem):
        targets = [node.optional_vars]
    elif isinstance(node, ast.ExceptHandler) and node.name:
        yield node.name, node.lineno
        return
    else:
        return
    for target in targets:    # a Tuple / List target unpacks: not flagged
        if isinstance(target, ast.Name):
            yield target.id, target.lineno


def unused_variables(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every F841 hit in one module's source."""
    module = ast.parse(source)
    lines = source.splitlines()
    hits = set()
    for function in ast.walk(module):
        if not isinstance(function, _FUNCTIONS):
            continue
        used: Set[str] = set()
        declared: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                used.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        if "locals" in used:
            continue
        # A comprehension's ``:=`` binds in the function; a nested
        # function or class body binds in its own scope.
        for node in _owned(function, _FUNCTIONS + (ast.ClassDef,)):
            for name, line in _local_bindings(node):
                if (name not in used and name not in declared and not name.startswith("_")
                        and "noqa: F841" not in lines[line - 1]):
                    hits.add((line, name))
    return sorted(hits)


def _linted_files(with_init: bool = False) -> List[Path]:
    """Every module of the linted trees; package ``__init__``s on request."""
    return sorted(
        path
        for tree in LINTED
        for path in (ROOT / tree).rglob("*.py")
        if with_init or path.name != "__init__.py"
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


class TestCompiles:
    def test_every_file_compiles(self):
        # E9 and F70x: compile() raises SyntaxError on both.
        errors = []
        for path in _linted_files(with_init=True):
            try:
                compile(path.read_text(), str(path), "exec")
            except SyntaxError as exc:
                errors.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
        assert not errors, "\n".join(errors)

    @pytest.mark.parametrize("body", [
        "break\n", "def f():\n    continue\n", "return 1\n", "class C:\n    yield 1\n",
        "x = (\n",
    ])
    def test_compile_rejects_what_f70x_and_e9_reject(self, body):
        with pytest.raises(SyntaxError):
            compile(body, "<lint>", "exec")


class TestComparisonsAndStatements:
    def test_no_violations(self):
        files = _linted_files(with_init=True)
        hits = [
            f"{path.relative_to(ROOT)}:{line}: {code}"
            for path in files
            for line, code in rule_violations(path.read_text())
        ]
        assert not hits, "\n".join(hits)

    def test_the_pass_sees_what_ruff_sees(self):
        source = (
            "assert (x, 'message')\n"              # 1 F631
            "assert ()\n"                           # empty tuple: not F631
            "a = x is 'text' or x is (1, 2)\n"      # 3 F632 twice
            "a = x is not None and y is True\n"     # singletons: fine
            "a = x == None\n"                       # 5 E711
            "a = x != False\n"                      # 6 E712
            "a = not x in y\n"                      # 7 E713
            "a = not x is y\n"                      # 8 E714
            "a = type(x) == type(y)\n"              # 9 E721
            "a = type(x) is int\n"                  # fine
            "try:\n    pass\nexcept:\n    pass\n"  # 13 E722
            "f = lambda: 0\n"                       # 15 E731
            "obj.f = lambda: 0\n"                   # attribute: fine
            "l = 1\n"                               # 17 E741
            "def g(I):\n    return I\n"            # 18 E741
            "for O in x:\n    pass\n"              # 20 E741
            "a = x == None  # noqa: E711\n"         # silenced
            "a = x not in y and x == 0\n"           # fine
        )
        assert rule_violations(source) == [
            (1, "F631"), (3, "F632"), (3, "F632"), (5, "E711"), (6, "E712"), (7, "E713"),
            (8, "E714"), (9, "E721"), (13, "E722"), (15, "E731"), (17, "E741"),
            (18, "E741"), (20, "E741"),
        ]


class TestUndefinedNames:
    def test_no_undefined_names(self):
        files = _linted_files(with_init=True)
        hits = [
            f"{path.relative_to(ROOT)}:{line}: F821 undefined name {name!r}"
            for path in files
            for line, name in undefined_names(path.read_text())
        ]
        assert not hits, "\n".join(hits)

    def test_the_pass_sees_what_ruff_sees(self):
        source = (
            "import os\n"
            "def f():\n"
            "    return os.sep + missing\n"            # 3 F821
            "def set_counter():\n"
            "    global counter\n"
            "    counter = 1\n"
            "def read_counter():\n"
            "    return counter + len(__file__)\n"     # bound by `global`: fine
            "squares = [i * i for i in range(3)]\n"    # comprehension-local i: fine
            "last = i\n"                               # 10 F821: i is not leaked
            "class C:\n"
            "    size = 2\n"
            "    double = size * 2\n"                  # class-local read: fine
            "    def area(self):\n"
            "        return size * self.double\n"      # 15 F821: class body not visible
            "    def hinted(self) -> 'Later':\n"       # string annotation: not read
            "        return unknown  # noqa: F821\n"   # silenced
        )
        assert undefined_names(source) == [(3, "missing"), (10, "i"), (15, "size")]

    def test_star_import_is_skipped(self):
        assert undefined_names("from os.path import *\nx = join('a', 'b') + nowhere\n") == []


class TestUndefinedExports:
    def test_no_undefined_exports(self):
        files = _linted_files(with_init=True)
        hits = [
            f"{path.relative_to(ROOT)}:{line}: F822 undefined name {name!r} in __all__"
            for path in files
            for line, name in undefined_exports(path.read_text())
        ]
        assert not hits, "\n".join(hits)

    def test_the_pass_sees_what_ruff_sees(self):
        source = (
            "import os.path\n"
            "from .store import ShardedMapStore\n"
            "def publish():\n"
            "    global published\n"
            "    published = True\n"
            "class Stats:\n"
            "    pass\n"
            "limit = 8\n"
            "__all__ = [\n"
            "    'ShardedMapStore', 'Stats', 'limit', 'os', 'publish', 'published',\n"
            "    'SharedMapStore',\n"                  # 11 F822: a stale export
            "    'len',\n"                             # 12 F822: builtins are not bound
            "    'Arena',  # noqa: F822\n"             # silenced
            "]\n"
            "__all__ += ['Gone']\n"                    # 15 F822
        )
        assert undefined_exports(source) == [(11, "SharedMapStore"), (12, "len"),
                                             (15, "Gone")]

    def test_star_import_is_skipped(self):
        assert undefined_exports("from os.path import *\n__all__ = ['join', 'nowhere']\n") == []


class TestUnusedVariables:
    def test_no_unused_variables(self):
        files = _linted_files(with_init=True)
        hits = [
            f"{path.relative_to(ROOT)}:{line}: F841 local variable {name!r} "
            "is assigned to but never used"
            for path in files
            for line, name in unused_variables(path.read_text())
        ]
        assert not hits, "\n".join(hits)

    def test_the_pass_sees_what_ruff_sees(self):
        source = (
            "total = 0\n"                              # module level: not local
            "def f(a):\n"
            "    unused = a + 1\n"                     # 3 F841
            "    first, second = a\n"                  # unpacking: fine
            "    count = 0\n"
            "    count += 1\n"                         # augmented: a use
            "    hinted: int = 2\n"                    # 7 F841
            "    if (found := a):\n"                   # 8 F841
            "        pass\n"
            "    with open(a) as handle:\n"            # 10 F841
            "        pass\n"
            "    with open(a) as (x, y):\n"            # unpacking: fine
            "        pass\n"
            "    try:\n"
            "        pass\n"
            "    except ValueError as error:\n"        # 16 F841
            "        pass\n"
            "    _ignored = 1\n"                       # dummy name: fine
            "    global total\n"
            "    total = 2\n"                          # global: fine
            "    kept = 3  # noqa: F841\n"             # silenced
            "    seen = 4\n"
            "    a = b = 5\n"                          # 23 F841 for b; a is read
            "    def inner():\n"
            "        return seen\n"                    # a closure read is a use
            "    class Box:\n"
            "        size = 1\n"                       # class attribute: not local
            "    return a, inner, Box\n"
            "def g():\n"
            "    value = 1\n"                          # locals() reads it
            "    return locals()\n"
            "h = lambda: (late := 1)\n"                # 32 F841 in the lambda
        )
        assert unused_variables(source) == [
            (3, "unused"), (7, "hinted"), (8, "found"), (10, "handle"), (16, "error"),
            (23, "b"), (32, "late"),
        ]
