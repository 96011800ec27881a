"""Censuses of the codebase, run from the repository root.

    python3 tools/census.py settable            # every *Config field and its setters
    python3 tools/census.py settable --unset    # only fields no run code sets
    python3 tools/census.py reach               # every def of src/repro that no run executes
    python3 tools/census.py reach --check       # ... and fail on one without an allowlist entry

``settable`` walks ``src``, ``tests``, ``benchmarks`` and ``examples``
with :mod:`ast` and reports, for each field of each ``*Config``
dataclass under ``src/repro``, every place that sets it.  A setter is
run code unless it sits under ``tests/``.  It counts:

* keyword and positional arguments of a ``*Config(...)`` constructor;
* keyword arguments of ``replace(obj, ...)``;
* attribute assignments ``obj.field = ...`` and ``setattr(obj, "field", ...)``;
* keyword arguments that a helper forwards through ``**kwargs`` into a
  ``*Config(...)`` constructor, or into ``setattr(obj, key, value)``
  while looping over ``kwargs.items()`` (``_short_session(**serving)``).

The owner of ``obj`` is resolved from a local ``x = SomeConfig(...)``,
from a nested config field (``config.serving`` is a ``ServingConfig``),
or, failing that, from a name that says ``config`` / ``cfg``: then every
config class with a field of that name counts as set.  It is a static
walk, so a setter built by name at run time is not seen.

``reach`` runs a fixed set of programs (:func:`run_set`: the perf smoke,
every figure bench, every example and each CLI subcommand) with a
generated ``sitecustomize`` first on ``PYTHONPATH``.  It installs a
``sys.setprofile`` / ``threading.setprofile`` hook in every process,
spawned workers included, that records the ``(file, first line)`` of
each code object under ``src/repro`` it sees called, and dumps that set
when the process exits.  A ``def`` of ``src/repro`` (found with
:mod:`ast`; its first line is its first decorator's) that no process
called is *never run*.  Line counts add up outermost never-run defs
only.  ``--check`` fails when a never-run def is missing from
``tools/reach_allowlist.txt``, or when an entry there names a def that
is gone or that now runs.  Whether a bench's asserts pass does not
matter: reach counts what ran.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
WALKED = ("src", "tests", "benchmarks", "examples")
REACH_ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"
# The reasons a never-run def may stay: an open ROADMAP item, or one of
# the roles below (see the allowlist's header).
REACH_REASON = (r"(ROADMAP \d+|lifecycle|observation point|oracle|test tool"
                r"|platform|TestLedgerSeam|interface|repr)\b")

Field = Tuple[str, str]          # (config class, field name)


@dataclass(frozen=True)
class Setter:
    path: str                    # relative to the root
    line: int
    how: str                     # "call", "replace", "attribute", "forwarded"

    @property
    def is_test(self) -> bool:
        return self.path.startswith("tests/")

    def __str__(self) -> str:
        return f"{self.path}:{self.line} ({self.how})"


def _python_files(root: Path) -> Iterator[Path]:
    for top in WALKED:
        yield from sorted((root / top).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _annotation_names(annotation: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(annotation) if isinstance(n, ast.Attribute)
    }


def config_classes(root: Path = ROOT) -> Dict[str, List[Tuple[str, ast.expr]]]:
    """Every ``*Config`` dataclass under ``src/repro``: its fields in order."""
    classes: Dict[str, List[Tuple[str, ast.expr]]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
                    and _is_dataclass(node)):
                classes[node.name] = [
                    (stmt.target.id, stmt.annotation)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in _annotation_names(stmt.annotation)
                ]
    return classes


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


@dataclass
class _Helper:
    """A function that forwards its ``**kwargs`` into config fields."""

    params: Set[str]
    targets: Set[str]            # config classes the kwargs land in


class _Census:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.classes = config_classes(root)
        self.fields = {c: {f for f, _ in fs} for c, fs in self.classes.items()}
        # A field whose annotation names a config class: ``config.slam``
        # is a SlamConfig wherever it appears.
        self.nested: Dict[str, str] = {}
        for fs in self.classes.values():
            for name, annotation in fs:
                owners = _annotation_names(annotation) & set(self.classes)
                if len(owners) == 1:
                    self.nested[name] = owners.pop()
        self.setters: Dict[Field, List[Setter]] = {
            (c, f): [] for c, fs in self.fields.items() for f in fs
        }
        self.helpers: Dict[str, Dict[str, _Helper]] = defaultdict(dict)

    # ------------------------------------------------------------ resolve
    def _config_of(self, obj: ast.expr, local: Dict[str, str]) -> Optional[str]:
        """The config class ``obj`` is known to be, if any."""
        if isinstance(obj, ast.Name):
            return local.get(obj.id) or self.nested.get(obj.id)
        if isinstance(obj, ast.Attribute):
            return self.nested.get(obj.attr)
        return None

    def _owners(self, obj: ast.expr, local: Dict[str, str], name: str) -> Set[str]:
        """The config classes ``obj.name`` may set (empty: not a config)."""
        known = self._config_of(obj, local)
        if known is not None:
            owners = {known}
        else:
            text = ast.unparse(obj).lower()
            if "config" not in text and "cfg" not in text:
                return set()
            owners = set(self.classes)
        return {c for c in owners if name in self.fields[c]}

    def _add(self, owners: Set[str], name: str, setter: Setter) -> None:
        for cls in owners:
            if name in self.fields[cls]:
                self.setters[(cls, name)].append(setter)

    # -------------------------------------------------------------- walk
    @staticmethod
    def _scopes(tree: ast.Module) -> List[Tuple[Optional[ast.AST], List[ast.AST]]]:
        """Module level and each function: the nodes that belong to it."""
        scopes: Dict[ast.AST, List[ast.AST]] = {tree: []}
        stack = [(child, tree) for child in ast.iter_child_nodes(tree)]
        while stack:
            node, owner = stack.pop()
            scopes[owner].append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node
                scopes[node] = []
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
        return [(None if scope is tree else scope, nodes)
                for scope, nodes in scopes.items()]

    def _locals(self, nodes: List[ast.AST]) -> Dict[str, str]:
        local: Dict[str, str] = {}
        for node in nodes:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and _callee(node.value) in self.classes):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local[target.id] = _callee(node.value)
        return local

    def find_helpers(self, rel: str, scopes) -> None:
        for fn, nodes in scopes:
            if fn is None or fn.args.kwarg is None:
                continue
            kwargs = fn.args.kwarg.arg
            local = self._locals(nodes)
            loop_keys: Set[str] = set()
            for node in nodes:
                if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                        and isinstance(node.iter.func, ast.Attribute)
                        and node.iter.func.attr == "items"
                        and isinstance(node.iter.func.value, ast.Name)
                        and node.iter.func.value.id == kwargs
                        and isinstance(node.target, ast.Tuple)
                        and isinstance(node.target.elts[0], ast.Name)):
                    loop_keys.add(node.target.elts[0].id)
            targets: Set[str] = set()
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee(node)
                if callee in self.classes and any(
                        kw.arg is None and isinstance(kw.value, ast.Name)
                        and kw.value.id == kwargs for kw in node.keywords):
                    targets.add(callee)
                elif (callee == "setattr" and len(node.args) == 3
                      and isinstance(node.args[1], ast.Name)
                      and node.args[1].id in loop_keys):
                    known = self._config_of(node.args[0], local)
                    if known is not None:
                        targets.add(known)
            if targets:
                params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
                self.helpers[fn.name][rel] = _Helper(params, targets)

    def _helper(self, name: str, rel: str) -> Optional[_Helper]:
        defined = self.helpers.get(name)
        if not defined:
            return None
        if rel in defined:
            return defined[rel]
        params = set.union(*(h.params for h in defined.values()))
        targets = set.union(*(h.targets for h in defined.values()))
        return _Helper(params, targets)

    def find_setters(self, rel: str, scopes) -> None:
        for _fn, nodes in scopes:
            local = self._locals(nodes)
            for node in nodes:
                line = getattr(node, "lineno", 0)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for t in (target.elts if isinstance(target, ast.Tuple) else [target]):
                            if isinstance(t, ast.Attribute):
                                self._add(self._owners(t.value, local, t.attr), t.attr,
                                          Setter(rel, line, "attribute"))
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee(node)
                if callee in self.classes:
                    order = [f for f, _ in self.classes[callee]]
                    for name, _arg in zip(order, node.args):
                        self._add({callee}, name, Setter(rel, line, "call"))
                    for kw in node.keywords:
                        if kw.arg is not None:
                            self._add({callee}, kw.arg, Setter(rel, line, "call"))
                elif callee == "replace" and node.args:
                    names = [kw.arg for kw in node.keywords if kw.arg is not None]
                    owners: Set[str] = set()
                    for name in names:
                        owners |= self._owners(node.args[0], local, name)
                    if not owners:
                        owners = {c for c, fs in self.fields.items()
                                  if names and set(names) <= fs}
                    for name in names:
                        self._add(owners, name, Setter(rel, line, "replace"))
                elif (callee == "setattr" and len(node.args) == 3
                      and isinstance(node.args[1], ast.Constant)
                      and isinstance(node.args[1].value, str)):
                    name = node.args[1].value
                    self._add(self._owners(node.args[0], local, name), name,
                              Setter(rel, line, "attribute"))
                else:
                    helper = self._helper(callee, rel)
                    if helper is None:
                        continue
                    for kw in node.keywords:
                        if kw.arg is not None and kw.arg not in helper.params:
                            self._add(helper.targets, kw.arg,
                                      Setter(rel, line, "forwarded"))

    def run(self) -> Dict[Field, List[Setter]]:
        files = [(p.relative_to(self.root).as_posix(), self._scopes(_parse(p)))
                 for p in _python_files(self.root)]
        for rel, scopes in files:
            self.find_helpers(rel, scopes)
        for rel, scopes in files:
            self.find_setters(rel, scopes)
        return {key: sorted(set(found), key=lambda s: (s.path, s.line, s.how))
                for key, found in self.setters.items()}


def settable(root: Path = ROOT) -> Dict[Field, List[Setter]]:
    """Every ``*Config`` field mapped to the places that set it."""
    return _Census(root).run()


def run_setters(setters: List[Setter]) -> List[Setter]:
    return [s for s in setters if not s.is_test]


def _print_settable(census: Dict[Field, List[Setter]], unset_only: bool) -> None:
    classes = sorted({c for c, _ in census})
    nowhere = [k for k, v in census.items() if not v]
    tests_only = [k for k, v in census.items() if v and not run_setters(v)]
    for key in sorted(census):
        setters = census[key]
        if unset_only and run_setters(setters):
            continue
        label = ("set nowhere" if not setters else
                 "tests only" if not run_setters(setters) else "run code")
        print(f"{key[0]}.{key[1]}: {label}")
        for setter in setters:
            print(f"    {'test' if setter.is_test else 'run '}  {setter}")
    print(f"{len(classes)} config classes, {len(census)} fields: "
          f"{len(nowhere)} set nowhere, {len(tests_only)} set only by tests")


# ------------------------------------------------------------------ reach

@dataclass(frozen=True)
class Def:
    module: str                  # "repro.slam.map"
    qualname: str                # "SlamMap.add_keyframe"; nested defs "outer.inner"
    path: str                    # relative to the root
    first: int                   # first decorator's line, else the def line
    last: int
    outer: Optional[str]         # qualname of the enclosing def, if any

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def src_defs(root: Path = ROOT) -> Dict[str, Def]:
    """Every ``def`` under ``src/repro`` keyed by ``module:qualname``."""
    found: Dict[str, Def] = {}
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        rel = path.relative_to(root).as_posix()

        def walk(node: ast.AST, prefix: str, outer: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{module}:{qual}"] = Def(module, qual, rel, first,
                                                   child.end_lineno, outer)
                    walk(child, qual + ".", qual)
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", outer)
                else:
                    walk(child, prefix, outer)

        walk(_parse(path), "", None)
    return found


# Installed in every process of the run set.  Everything the hook and
# the dump touch is bound in a closure, so neither depends on module
# globals that interpreter teardown sets to None (a weakref callback
# during pytest shutdown still calls the profiler then).
_HOOK = """\
import os, sys, threading

def _install(out, sep=os.sep, getpid=os.getpid, real_exit=os._exit):
    seen = set()
    add = seen.add
    dumped = [0]

    def profile(frame, event, arg):
        if event == "call":
            try:
                code = frame.f_code
                name = code.co_filename
                if name.endswith(".py") and "repro" in name:
                    add((name, code.co_firstlineno))
            except Exception:
                pass

    def dump():
        try:
            dumped[0] += 1
            path = out + sep + str(getpid()) + "-" + str(dumped[0]) + ".txt"
            with open(path, "w") as fh:
                for name, line in list(seen):
                    fh.write(name + "\\t" + str(line) + "\\n")
        except Exception:
            pass

    def _exit(code=0):
        dump()
        real_exit(code)

    import atexit
    atexit.register(dump)
    os._exit = _exit            # forked children leave through os._exit
    sys.setprofile(profile)
    threading.setprofile(profile)
"""


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def run_set(work: Path) -> List[Tuple[str, List[str]]]:
    """The programs whose reach defines "run": (label, argv), in order."""
    short = ["--traces", "MH04", "MH05", "--duration", "4"]
    snap = str(work / "map.snap")
    spans = str(work / "spans.jsonl")
    runs = [
        ("perf smoke", [sys.executable, "benchmarks/perf/run.py", "--smoke", "--trace"]),
        ("figure benches", [sys.executable, "-m", "pytest", "benchmarks",
                            "--ignore=benchmarks/perf", "--benchmark-disable", "-q",
                            "-p", "no:cacheprovider"]),
    ]
    runs += [(f"example {p.name}", [sys.executable, f"examples/{p.name}"])
             for p in sorted((ROOT / "examples").glob("*.py"))]
    runs += [
        ("cli session", _cli("session", *short, "--trace", str(work / "trace.json"),
                             "--trace-jsonl", spans, "--metrics",
                             "--metrics-out", str(work / "metrics.json"),
                             "--metrics-prom", str(work / "metrics.prom"))),
        ("cli session stream", _cli("session", *short, "--trace-jsonl",
                                    str(work / "stream.jsonl"), "--trace-stream",
                                    "--trace-capacity", "64")),
        ("cli baseline", _cli("baseline", *short)),
        ("cli stats", _cli("stats", *short)),
        ("cli info", _cli("info")),
        ("cli snapshot", _cli("snapshot", *short, "--out", snap,
                              "--max-keyframes", "6", "--max-points", "300")),
        # Client 0 wrote the snapshot: restoring as it reserves its old ids.
        ("cli restore", _cli("restore", snap, "--traces", "MH05", "--duration", "3",
                             "--client-id", "0")),
        ("cli report", _cli("report", spans, "--html", str(work / "report.html"))),
    ]
    return runs


# Output lines shown for a run that exits non-zero.
FAILED_RUN_TAIL = 20


def reached(root: Path = ROOT, runs=run_set, log=print) -> Set[Tuple[str, int]]:
    """Run ``runs(work_dir)`` under the hook, from ``root`` with its
    ``src`` on the path: the ``(realpath, first line)`` of each code
    object called."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp_path = Path(tmp)
        hook, out, work = (tmp_path / d for d in ("hook", "out", "work"))
        for d in (hook, out, work):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(
            f"{_HOOK}\n_install({str(out)!r})\ndel _install\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for label, argv in runs(work):
            done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, errors="replace")
            log(f"# ran {label}: exit {done.returncode}")
            if done.returncode != 0:
                # A run that stopped early leaves its later defs unreached:
                # show why, so they are not read as dead code.
                for line in done.stdout.splitlines()[-FAILED_RUN_TAIL:]:
                    log(f"#   {line}")
        seen: Set[Tuple[str, int]] = set()
        real: Dict[str, str] = {}
        for dump in out.iterdir():
            for row in dump.read_text().splitlines():
                name, _, line = row.rpartition("\t")
                if name not in real:
                    real[name] = os.path.realpath(os.path.join(root, name))
                seen.add((real[name], int(line)))
    return seen


def never_run(defs: Dict[str, Def], seen: Set[Tuple[str, int]],
              root: Path = ROOT) -> List[Def]:
    return [d for d in defs.values()
            if (os.path.realpath(root / d.path), d.first) not in seen]


def read_allowlist(path: Path = REACH_ALLOWLIST) -> List[Tuple[str, str]]:
    """``(key, reason)`` for each entry of an allowlist, in file order."""
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            entries.append((key, reason.strip()))
    return entries


def outermost(dead: List[Def]) -> List[Def]:
    """The never-run defs whose enclosing def (if any) runs."""
    keys = {(d.module, d.qualname) for d in dead}
    return [d for d in dead if d.outer is None or (d.module, d.outer) not in keys]


def _print_reach(defs: Dict[str, Def], dead: List[Def],
                 allowed: Dict[str, str]) -> None:
    by_module: Dict[str, List[Def]] = defaultdict(list)
    for d in dead:
        by_module[d.module].append(d)
    for module in sorted(by_module):
        print(module)
        for d in sorted(by_module[module], key=lambda d: d.first):
            reason = allowed.get(d.key, "NOT ALLOWLISTED")
            print(f"    {d.qualname}  {d.path}:{d.first}  {d.lines} lines  [{reason}]")
    unclaimed = [d for d in dead if d.key not in allowed]
    print(f"{len(defs)} defs in src/repro: {len(dead)} never run, "
          f"{sum(d.lines for d in outermost(dead))} lines (outermost defs only); "
          f"{len(unclaimed)} without an allowlist entry, "
          f"{sum(d.lines for d in outermost(unclaimed))} lines")


def reach_problems(defs: Dict[str, Def], dead: List[Def],
                   entries: List[Tuple[str, str]]) -> List[str]:
    allowed = dict(entries)
    dead_keys = {d.key for d in dead}
    problems = [f"never run, no allowlist entry: {d.key}"
                for d in dead if d.key not in allowed]
    problems += [f"allowlisted but gone: {key}" for key, _ in entries if key not in defs]
    problems += [f"allowlisted but now runs: {key}" for key, _ in entries
                 if key in defs and key not in dead_keys]
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("settable", help="where each *Config field is set")
    cmd.add_argument("--unset", action="store_true",
                     help="list only the fields no run code sets")
    cmd = sub.add_parser("reach", help="the defs of src/repro that no run executes")
    cmd.add_argument("--check", action="store_true",
                     help="fail on a never-run def without an allowlist entry, "
                          "or on a stale entry")
    args = parser.parse_args(argv)
    if args.command == "settable":
        _print_settable(settable(), args.unset)
    elif args.command == "reach":
        defs = src_defs()
        dead = never_run(defs, reached())
        entries = read_allowlist()
        _print_reach(defs, dead, dict(entries))
        if args.check:
            problems = reach_problems(defs, dead, entries)
            for problem in problems:
                print(problem)
            return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
