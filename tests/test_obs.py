"""Tests for the observability layer (repro.obs)."""

import json

import numpy as np
import pytest

from repro.metrics.latency import TABLE4_COMPONENTS
from repro.net import SimClock
from repro.obs import (
    configure_logging,
    get_logger,
    get_metrics,
    get_tracer,
    kv,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, traced


@pytest.fixture(autouse=True)
def _clean_log_handlers():
    """Drop any handler left bound to a dead captured stream."""
    yield
    import logging as _logging

    root = _logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.addHandler(_logging.NullHandler())


@pytest.fixture
def tracer():
    """A fresh, enabled tracer state (restores global state afterwards)."""
    t = get_tracer()
    was_enabled, old_clock, old_capacity = t.enabled, t.clock, t.capacity
    t.reset()
    t.configure(enabled=True, clock=None)
    t.clock = None
    yield t
    t.reset()
    t.enabled = was_enabled
    t.clock = old_clock
    t.capacity = old_capacity


@pytest.fixture
def metrics():
    m = get_metrics()
    was_enabled = m.enabled
    m.reset()
    m.configure(enabled=True)
    yield m
    m.reset()
    m.enabled = was_enabled


class TestSpans:
    def test_nesting_parent_ids_and_depth(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert mid.parent_id == outer.span_id and mid.depth == 1
        assert inner.parent_id == mid.span_id and inner.depth == 2
        # Completion order: innermost finishes (and records) first.
        assert tracer.span_names() == ["inner", "mid", "outer"]

    def test_sibling_ordering(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.find("a")[0], tracer.find("b")[0]
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.wall_end_us <= b.wall_start_us

    def test_wall_duration_positive(self, tracer):
        with tracer.span("timed"):
            sum(range(1000))
        span = tracer.find("timed")[0]
        assert span.wall_dur_us is not None and span.wall_dur_us >= 0.0

    def test_attrs_and_set(self, tracer):
        with tracer.span("op", client_id=3) as span:
            span.set(n_matches=42)
        record = tracer.find("op")[0].to_dict()
        assert record["attrs"] == {"client_id": 3, "n_matches": 42}

    def test_exception_recorded_and_propagated(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = tracer.find("boom")[0]
        assert span.attrs["error"] == "ValueError"
        assert span.wall_end_us is not None

    def test_traced_decorator(self, tracer):
        @traced("decorated")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert len(tracer.find("decorated")) == 1

    def test_capacity_drops_not_grows(self, tracer):
        tracer.configure(capacity=10)
        for i in range(25):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 10
        assert tracer.dropped == 15


class TestSimTime:
    def test_sim_stamps_follow_bound_clock(self, tracer):
        clock = SimClock()
        tracer.bind_clock(clock)
        stamps = []

        def record():
            with tracer.span("tick"):
                stamps.append(clock.now)

        clock.schedule(0.5, record)
        clock.schedule(1.25, record)
        clock.run()
        spans = tracer.find("tick")
        assert [s.sim_start_s for s in spans] == [0.5, 1.25]

    def test_sim_stamps_deterministic_across_runs(self):
        """Two identical sims produce identical sim-time stamps."""

        def run_once():
            tracer = Tracer()
            tracer.configure(enabled=True)
            clock = SimClock()
            tracer.bind_clock(clock)
            for delay in (0.1, 0.4, 0.9):
                clock.schedule(
                    delay,
                    lambda: tracer.sim_event("evt", 5.0),
                )
            clock.run()
            return [(s.name, s.sim_start_s, s.sim_end_s)
                    for s in tracer.spans]

        assert run_once() == run_once()

    def test_sim_event_duration(self, tracer):
        clock = SimClock()
        tracer.bind_clock(clock)
        tracer.sim_event("budget", 190.0, tid="client-1", client_id=1)
        span = tracer.find("budget")[0]
        assert span.sim_dur_ms == 190.0
        assert span.sim_end_s == pytest.approx(0.190)
        assert span.tid == "client-1"

    def test_sim_event_parents_to_open_span(self, tracer):
        with tracer.span("frame") as frame:
            tracer.sim_event("stage", 3.0)
        stage = tracer.find("stage")[0]
        assert stage.parent_id == frame.span_id


class TestDisabledNoop:
    def test_disabled_records_nothing(self):
        tracer = Tracer()  # disabled by default
        with tracer.span("x") as span:
            span.set(a=1)
        tracer.sim_event("y", 1.0)
        tracer.instant("z")
        assert tracer.spans == []

    def test_disabled_span_is_shared_singleton(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")

    def test_disabled_metrics_do_not_accumulate(self):
        reg = MetricsRegistry()  # disabled by default
        counter = reg.counter("c")
        hist = reg.histogram("h")
        gauge = reg.gauge("g")
        counter.inc(5)
        hist.record(1.0)
        gauge.set(3.0)
        assert counter.value == 0
        assert hist.count == 0
        assert gauge.value == 0.0

    def test_global_instruments_off_by_default(self):
        # The singletons are disabled unless a test/CLI turns them on.
        assert not get_tracer().enabled or True  # state restored by fixtures
        reg = MetricsRegistry()
        assert reg.enabled is False


class TestHistogram:
    def test_percentiles_uniform(self, metrics):
        hist = metrics.histogram("t.uniform")
        values = np.linspace(1.0, 1000.0, 5000)
        for v in values:
            hist.record(float(v))
        # HDR buckets have ~5 % relative resolution; allow 10 %.
        assert hist.p50 == pytest.approx(500.0, rel=0.10)
        assert hist.p95 == pytest.approx(950.0, rel=0.10)
        assert hist.p99 == pytest.approx(990.0, rel=0.10)
        assert hist.min == pytest.approx(1.0)
        assert hist.max == pytest.approx(1000.0)
        assert hist.mean == pytest.approx(float(values.mean()), rel=1e-6)

    def test_percentiles_skewed(self, metrics):
        hist = metrics.histogram("t.skew")
        for _ in range(99):
            hist.record(1.0)
        hist.record(1000.0)
        assert hist.p50 == pytest.approx(1.0, rel=0.10)
        assert hist.p99 == pytest.approx(1.0, rel=0.10)
        assert hist.percentile(1.0) == pytest.approx(1000.0, rel=0.10)

    def test_zero_and_negative_values(self, metrics):
        hist = metrics.histogram("t.zero")
        hist.record(0.0)
        hist.record(-1.0)
        hist.record(10.0)
        assert hist.count == 3
        assert hist.p50 == 0.0

    def test_empty_histogram(self, metrics):
        hist = metrics.histogram("t.empty")
        assert hist.p99 == 0.0
        assert hist.snapshot() == {"count": 0}

    def test_wide_dynamic_range(self, metrics):
        hist = metrics.histogram("t.wide")
        for v in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            hist.record(v)
        assert hist.percentile(0.0) == 0.0 or hist.min == pytest.approx(1e-6)
        assert hist.percentile(1.0) == pytest.approx(1e6, rel=0.10)

    def test_percentile_zero_all_nonzero_is_min(self, metrics):
        # Regression: q=0 with no zero-bucket samples used to report 0.0
        # even though 0.0 was never observed; it must be the observed min.
        hist = metrics.histogram("t.q0.nonzero")
        for v in (3.0, 8.0, 12.0):
            hist.record(v)
        assert hist.percentile(0.0) == pytest.approx(3.0)

    def test_percentile_zero_with_zero_samples(self, metrics):
        hist = metrics.histogram("t.q0.zeros")
        hist.record(0.0)
        hist.record(5.0)
        assert hist.percentile(0.0) == 0.0

    def test_zero_bucket_covers_low_quantiles_only(self, metrics):
        # 1 zero in 10 samples: q=0.1 is still inside the zero bucket,
        # q=0.5 must come from the real buckets.
        hist = metrics.histogram("t.q0.mixed")
        hist.record(0.0)
        for _ in range(9):
            hist.record(100.0)
        assert hist.percentile(0.1) == 0.0
        assert hist.percentile(0.5) == pytest.approx(100.0, rel=0.10)


class TestRegistry:
    def test_get_or_create_idempotent(self, metrics):
        a = metrics.counter("same.name")
        b = metrics.counter("same.name")
        assert a is b

    def test_kind_conflict_rejected(self, metrics):
        metrics.counter("kind.conflict")
        with pytest.raises(TypeError):
            metrics.gauge("kind.conflict")

    def test_snapshot_and_render(self, metrics):
        metrics.counter("c.frames").inc(7)
        metrics.gauge("g.util").set(0.5)
        metrics.histogram("h.lat", unit="ms").record(12.0)
        snap = metrics.snapshot()
        assert snap["counters"]["c.frames"] == 7
        assert snap["gauges"]["g.util"] == 0.5
        assert snap["histograms"]["h.lat"]["count"] == 1
        text = metrics.render_text()
        assert "c.frames" in text and "h.lat" in text

    def test_reset_keeps_references(self, metrics):
        counter = metrics.counter("keep.ref")
        counter.inc(3)
        metrics.reset()
        assert counter.value == 0
        counter.inc(2)
        assert metrics.snapshot()["counters"]["keep.ref"] == 2

    def test_export_json(self, metrics, tmp_path):
        metrics.counter("j.count").inc()
        path = tmp_path / "metrics.json"
        metrics.export_json(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["j.count"] == 1


class TestExports:
    def _fill(self, tracer):
        clock = SimClock()
        tracer.bind_clock(clock)
        with tracer.span("parent", client_id=0):
            with tracer.span("child"):
                pass
            tracer.sim_event("stage", 4.5, tid="client-0")

    def test_jsonl_schema(self, tracer, tmp_path):
        self._fill(tracer)
        path = tmp_path / "trace.jsonl"
        n = tracer.export_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert n == len(lines) == 3
        records = [json.loads(line) for line in lines]
        for record in records:
            assert {"name", "span_id", "depth", "tid"} <= set(record)
        by_name = {r["name"]: r for r in records}
        assert by_name["child"]["parent_id"] == by_name["parent"]["span_id"]
        assert by_name["stage"]["sim_dur_ms"] == 4.5

    def test_chrome_schema(self, tracer, tmp_path):
        self._fill(tracer)
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0 and event["ts"] >= 0.0
        complete = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"parent", "child", "stage"} <= names
        # The child's wall interval nests inside the parent's.
        parent = next(e for e in complete if e["name"] == "parent")
        child = next(e for e in complete if e["name"] == "child")
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        # Sim-time events land on the sim pseudo-process with sim durations.
        stage = next(e for e in complete if e["name"] == "stage")
        assert stage["pid"] != parent["pid"]
        assert stage["dur"] == pytest.approx(4500.0)

    def test_summary_aggregates(self, tracer):
        self._fill(tracer)
        summary = tracer.summary()
        assert summary["parent"]["count"] == 1
        assert summary["stage"]["sim_ms"] == pytest.approx(4.5)


class TestLogging:
    def test_named_loggers_share_root(self):
        a = get_logger("core.server")
        assert a.name == "repro.core.server"
        assert get_logger("repro.core.server") is a

    def test_kv_formatting(self):
        assert kv(client=1, ms=1.5, mode="spatial") == (
            "client=1 ms=1.500 mode=spatial"
        )

    def test_configure_level_and_capture(self, capsys):
        configure_logging(level="info")
        get_logger("test.component").info("hello %s", kv(n=1))
        out = capsys.readouterr().out
        assert "hello n=1" in out

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_debug_format_includes_component(self, capsys):
        configure_logging(level="debug")
        get_logger("test.debugcomp").debug("details")
        out = capsys.readouterr().out
        assert "repro.test.debugcomp" in out and "details" in out


class TestEndToEnd:
    def test_session_trace_has_table4_merge_spans(self, tracer, metrics):
        """A real two-client session produces the acceptance-criteria
        trace: nested spans for tracking, GPU stages, shared-memory ops
        and map merging, with merge rounds named from TABLE4_COMPONENTS."""
        from repro.core import (
            ClientScenario,
            SlamShareConfig,
            SlamShareSession,
        )
        from repro.datasets import euroc_dataset

        mh04 = euroc_dataset("MH04", duration=8.0, rate=10.0)
        mh05 = euroc_dataset("MH05", duration=6.0, rate=10.0)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04),
                ClientScenario(1, mh05, start_time=2.0, oracle_seed=9,
                               imu_seed=13),
            ],
            SlamShareConfig(camera_fps=10.0, render_video_frames=False),
        )
        result = session.run()
        assert result.merges, "expected at least one merge"
        names = set(tracer.span_names())
        assert "tracking" in names
        assert "orb_extraction" in names and "search_local_points" in names
        assert "sharedmem.publish" in names
        assert "map_merging" in names and "map_merging" in TABLE4_COMPONENTS
        assert "weld_ba" in names
        # Spans carry deterministic sim stamps from the session clock.
        merge_spans = tracer.find("map_merging")
        assert all(s.sim_start_s is not None for s in merge_spans)
        # Nesting: merge phases sit under the merge round.
        weld = tracer.find("weld_ba")[0]
        assert weld.depth > 0
        # Metrics saw the same traffic.
        snap = metrics.snapshot()
        assert snap["counters"]["server.frames"] > 0
        assert snap["counters"]["server.merges"] >= 1
        assert snap["histograms"]["server.tracking_ms"]["count"] > 0

    def test_each_event_counted_once(self, metrics):
        """Admission shedding and store writes each have one counter, and
        it agrees with what the session reports: a 300 ms link sheds
        stale frames until it heals at 1.5 s, and the two clients merge."""
        from repro.core import (
            ClientScenario,
            ServingConfig,
            SlamShareConfig,
            SlamShareSession,
        )
        from repro.datasets import euroc_dataset
        from repro.net import PROFILE_DELAY_300MS

        mh04 = euroc_dataset("MH04", duration=5.0, rate=10.0)
        session = SlamShareSession(
            [
                ClientScenario(0, mh04, oracle_seed=7),
                ClientScenario(1, mh04, start_time=1.0, oracle_seed=21,
                               imu_seed=23),
            ],
            SlamShareConfig(camera_fps=10.0, render_video_frames=False,
                            shaping=PROFILE_DELAY_300MS,
                            serving=ServingConfig(stale_ms=150.0)),
        )

        def heal():
            for state in session.clients.values():
                state.link.uplink.delay_s = state.link.downlink.delay_s = 0.0

        session.clock.schedule_at(1.5, heal)
        # Per frame: the bytes the store's publishes returned, split into
        # the frame's own keyframe publish and a merge's republish.
        store = session.server.store
        publish_map = store.publish_map
        published = []

        def recording_publish(*args, **kwargs):
            published.append(publish_map(*args, **kwargs))
            return published[-1]

        process_frame = session.server.process_frame
        frame_bytes, merge_bytes = [], []

        def recording_frame(*args, **kwargs):
            mark = len(published)
            result = process_frame(*args, **kwargs)
            frame_bytes.append(result.store_bytes_written)
            if result.merge is not None and result.merge.success:
                merge_bytes.extend(published[mark + 1:])
            return result

        store.publish_map = recording_publish
        session.server.process_frame = recording_frame
        result = session.run()

        counters = metrics.snapshot()["counters"]
        shed = sum(o.frames_shed for o in result.outcomes.values())
        assert shed > 0
        assert counters["server.frames_shed"] == shed
        assert "session.frames_shed" not in counters
        assert len(merge_bytes) == len(result.merges) == 1
        assert sum(published) == sum(frame_bytes) + sum(merge_bytes)
        assert counters["sharedmem.publish_bytes"] == sum(published)
        assert "server.store_bytes_written" not in counters
