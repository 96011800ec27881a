"""The two censuses of ``tools/census.py`` as ratchets.

``settable``: a config field that no run code sets is a variant no run
takes: it either earns a recorded reason in
``tools/settable_allowlist.txt`` or becomes a constant.  The allowlist
cannot go stale either: an entry for a field that is gone, or that run
code now sets, fails here too.

``reach``: running the whole run set takes minutes, so the CI job
``reach-census`` runs ``reach --check``; here the allowlist is checked
statically (every entry names a def that exists, once, with a listed
reason) and the hook is driven over a toy tree.
"""

import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "settable_allowlist.txt"
REASON = re.compile(r"(ROADMAP \d+|TestLedgerSeam|frozen ledger)\b")

_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = sys.modules.setdefault("census", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(census)


def _allowlist():
    return [(tuple(key.split(".", 1)), reason)
            for key, reason in census.read_allowlist(ALLOWLIST)]


@pytest.fixture(scope="module")
def settable():
    return census.settable(ROOT)


class TestSettableRatchet:
    def test_every_field_without_a_run_setter_is_allowlisted(self, settable):
        allowed = dict(_allowlist())
        missing = [f"{c}.{f}" for (c, f), setters in sorted(settable.items())
                   if not census.run_setters(setters) and (c, f) not in allowed]
        assert missing == [], (
            "no run code sets these fields: make each a constant, or add it "
            "to tools/settable_allowlist.txt with its reason")

    def test_allowlist_names_only_live_fields_no_run_code_sets(self, settable):
        stale = [f"{c}.{f}" for (c, f), _ in _allowlist()
                 if (c, f) not in settable or census.run_setters(settable[(c, f)])]
        assert stale == []

    def test_every_entry_names_its_reason_once(self):
        entries = _allowlist()
        assert entries
        assert len({key for key, _ in entries}) == len(entries)
        assert [key for key, reason in entries if not REASON.match(reason)] == []


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


class TestSettableWalk:
    @pytest.fixture
    def tree(self, tmp_path):
        _write(tmp_path, "src/repro/config.py", """
            from dataclasses import dataclass, field

            @dataclass
            class InnerConfig:
                depth: int = 1
                width: int = 2
                by_helper: int = 3
                by_setattr: int = 4
                unset: int = 5

            @dataclass
            class OuterConfig:
                rate: float = 1.0
                inner: InnerConfig = field(default_factory=InnerConfig)
            """)
        _write(tmp_path, "src/repro/run.py", """
            from dataclasses import replace

            def build(config):
                outer = OuterConfig(2.0)
                outer.inner.depth = 3
                return replace(config.inner, width=4)

            class Scheduler:
                def __init__(self, mode):
                    self.width = mode       # not a config: not counted
            """)
        _write(tmp_path, "tests/test_x.py", """
            def _inner(**kw):
                return InnerConfig(**kw)

            def _session(seed=0, **serving):
                config = OuterConfig()
                for key, value in serving.items():
                    setattr(config.inner, key, value)
                return config

            def test_it():
                _inner(by_helper=1)
                _session(seed=3, by_setattr=2)
            """)
        for top in ("benchmarks", "examples"):
            (tmp_path / top).mkdir()
        return census.settable(tmp_path)

    def test_run_setters_by_kind(self, tree):
        assert [s.how for s in tree[("OuterConfig", "rate")]] == ["call"]
        assert [s.how for s in tree[("InnerConfig", "depth")]] == ["attribute"]
        assert [s.how for s in tree[("InnerConfig", "width")]] == ["replace"]
        assert all(not s.is_test for s in tree[("InnerConfig", "width")])

    def test_forwarded_kwargs_are_test_setters(self, tree):
        for field in ("by_helper", "by_setattr"):
            setters = tree[("InnerConfig", field)]
            assert [(s.how, s.is_test) for s in setters] == [("forwarded", True)]
            assert census.run_setters(setters) == []

    def test_unset_field_and_non_config_attribute(self, tree):
        assert tree[("InnerConfig", "unset")] == []
        assert tree[("OuterConfig", "inner")] == []
        assert ("InnerConfig", "seed") not in tree


class TestReachAllowlist:
    def test_every_entry_names_a_def_that_exists(self):
        defs = census.src_defs(ROOT)
        assert [key for key, _ in census.read_allowlist() if key not in defs] == []

    def test_every_entry_carries_a_listed_reason(self):
        entries = census.read_allowlist()
        assert entries
        assert [key for key, reason in entries
                if not re.match(census.REACH_REASON, reason)] == []

    def test_no_entry_is_duplicated(self):
        keys = [key for key, _ in census.read_allowlist()]
        assert len(set(keys)) == len(keys)


class TestDigestPins:
    """``tools/digest_pins.json``, checked statically: running the pinned
    scenarios takes minutes and gives host-specific bytes, so the CI job
    ``digest-pins`` runs ``digests --check`` on the pinned numpy."""

    def test_every_pin_names_a_known_scenario_with_every_field(self):
        pins = census.read_pins()
        assert pins
        for pin in pins:
            assert sorted(pin) == sorted(census.PIN_FIELDS), pin
            assert pin["scenario"] in census.DIGEST_SCENARIOS, pin
            assert re.fullmatch(r"[0-9a-f]{64}", pin["digest"]), pin
            assert all(pin[name] for name in ("numpy", "openblas", "kernel")), pin
            assert isinstance(pin["pr"], int), pin

    def test_each_scenario_is_pinned_once_per_kernel_and_every_one_is_pinned(self):
        keys = [(pin["scenario"], pin["kernel"]) for pin in census.read_pins()]
        assert len(set(keys)) == len(keys)
        assert {scenario for scenario, _ in keys} == set(census.DIGEST_SCENARIOS)

    def test_a_differing_run_names_what_differs(self):
        pin = census.read_pins()[0]
        assert census.pin_problems(pin, dict(pin)) == []
        other = dict(pin, numpy="1.26.4", digest="0" * 64)
        problems = census.pin_problems(pin, other)
        assert len(problems) == 2
        assert "numpy 1.26.4 here, pinned " + pin["numpy"] in problems[0]
        assert "digest" in problems[1]
        assert "run failed" in census.pin_problems(pin, {"error": "exit 1"})[0]


class TestReachHook:
    @pytest.fixture
    def tree(self, tmp_path):
        _write(tmp_path, "src/repro/__init__.py", "")
        _write(tmp_path, "src/repro/mod.py", """
            import functools


            def deco(func):
                @functools.wraps(func)
                def wrapper(*args):
                    return func(*args)
                return wrapper


            @deco
            def decorated():
                return 1


            def in_thread():
                return 2


            def in_child():
                return 3


            def never():
                return 4


            class K:
                def method(self):
                    def nested():
                        return 5
                    return nested()

                def unused(self):
                    return 6
            """)
        _write(tmp_path, "probe.py", """
            import os
            import threading

            from repro import mod

            mod.decorated()
            mod.K().method()
            thread = threading.Thread(target=mod.in_thread)
            thread.start()
            thread.join()
            if hasattr(os, "fork"):
                pid = os.fork()
                if pid == 0:
                    mod.in_child()
                    os._exit(0)
                os.waitpid(pid, 0)
            else:
                mod.in_child()
            """)
        return tmp_path

    def test_never_run_defs_of_a_toy_run(self, tree):
        seen = census.reached(tree, runs=lambda work: [("probe", [sys.executable, "probe.py"])],
                              log=lambda line: None)
        defs = census.src_defs(tree)
        dead = census.never_run(defs, seen, tree)
        assert sorted(d.qualname for d in dead) == ["K.unused", "never"]
        # A decorated def starts at its decorator, as its code object does.
        assert defs["repro.mod:decorated"].first == defs["repro.mod:deco"].last + 3
        assert defs["repro.mod:K.method.nested"].outer == "K.method"

    def test_a_failed_run_shows_its_last_output_lines(self, tree):
        _write(tree, "fails.py", """
            import sys

            print("setting up", flush=True)
            sys.exit("the bench assert stopped here")
            """)
        logged = []
        census.reached(tree, runs=lambda work: [("fails", [sys.executable, "fails.py"]),
                                                ("probe", [sys.executable, "probe.py"])],
                       log=logged.append)
        assert logged == ["# ran fails: exit 1", "#   setting up",
                          "#   the bench assert stopped here", "# ran probe: exit 0"]

    def test_problems_name_unclaimed_gone_and_running_entries(self, tree):
        defs = census.src_defs(tree)
        dead = [defs["repro.mod:never"], defs["repro.mod:K.unused"]]
        entries = [("repro.mod:never", "ROADMAP 4"), ("repro.mod:gone", "oracle"),
                   ("repro.mod:in_thread", "test tool")]
        assert census.reach_problems(defs, dead, entries) == [
            "never run, no allowlist entry: repro.mod:K.unused",
            "allowlisted but gone: repro.mod:gone",
            "allowlisted but now runs: repro.mod:in_thread",
        ]
        # Line counts add up outermost defs only: a nested def is inside.
        method, nested = defs["repro.mod:K.method"], defs["repro.mod:K.method.nested"]
        assert census.outermost([method, nested]) == [method]
