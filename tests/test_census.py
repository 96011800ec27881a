"""The settable-value census as a ratchet (``tools/census.py settable``).

A config field that no run code sets is a variant no run takes: it
either earns a recorded reason in ``tools/settable_allowlist.txt`` or
becomes a constant.  The allowlist cannot go stale either: an entry for
a field that is gone, or that run code now sets, fails here too.
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
    entries = []
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            cls, _, field = key.partition(".")
            entries.append(((cls, field), reason.strip()))
    return entries


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
