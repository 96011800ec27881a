"""Tests for end-to-end frame-lifecycle tracing, the frame ledger, and
Prometheus exposition.

The tentpole invariant: one uploaded frame == one causally-linked span
tree whose ``trace_id`` survives the wire, ARQ retransmission,
admission, the GPU kernel, shard locking and the pose downlink.  These
tests pin that propagation at every boundary, plus the export formats
(Chrome/Perfetto JSON, streaming JSONL) and the derived views
(FrameLedger, Prometheus text with exemplars).
"""

import json
from collections import defaultdict

import pytest

from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
from repro.datasets import euroc_dataset
from repro.net import (
    ArqConfig,
    Link,
    ShapingProfile,
    SimClock,
    TRACE_CONTEXT_BYTES,
    connect,
)
from repro.net.link import DuplexLink
from repro.obs import (
    FrameLedger,
    TraceContext,
    get_metrics,
    get_tracer,
    load_jsonl,
    render_report_html,
)


@pytest.fixture
def tracer():
    """A fresh, enabled tracer (restores global state afterwards)."""
    t = get_tracer()
    was_enabled, old_clock, old_capacity = t.enabled, t.clock, t.capacity
    t.close_stream()
    t.reset()
    t.configure(enabled=True)
    t.clock = None
    yield t
    t.close_stream()
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


def _run_traced_session(duration=4.0, shaping=None):
    mh04 = euroc_dataset("MH04", duration=duration, rate=10.0)
    mh05 = euroc_dataset("MH05", duration=duration, rate=10.0)
    config = SlamShareConfig(camera_fps=10.0, render_video_frames=False)
    if shaping is not None:
        config.shaping = shaping
    session = SlamShareSession(
        [
            ClientScenario(0, mh04),
            ClientScenario(1, mh05, start_time=1.0, oracle_seed=9,
                           imu_seed=13),
        ],
        config,
    )
    return session.run()


class TestOneNameOneTimeBase:
    """A span name is a wall span or a sim event, never both: the
    server's wall spans are ``server.tracking`` and ``merge_maps``, and
    ``tracking`` / ``map_merging`` are the modelled sim events."""

    def test_each_span_name_carries_one_time_base(self, tracer):
        result = _run_traced_session()
        assert result.merges
        bases = defaultdict(set)
        for span in tracer.spans:
            bases[span.name].add("sim" if span.sim_dur_ms is not None else "wall")
        assert {name: b for name, b in bases.items() if len(b) > 1} == {}
        assert bases["tracking"] == bases["map_merging"] == {"sim"}
        assert bases["server.tracking"] == bases["merge_maps"] == {"wall"}

    def test_merge_stage_counts_the_merges(self, tracer):
        result = _run_traced_session()
        breakdown = FrameLedger.from_tracer(tracer).stage_breakdown()
        assert breakdown["merge"]["count"] == len(result.merges) >= 1

    def test_failed_merge_attempts_book_no_merge_stage(self, tracer):
        """V202 is another room: its client attempts merges every
        keyframe and never welds, so no frame carries a merge stage."""
        session = SlamShareSession(
            [
                ClientScenario(0, euroc_dataset("MH04", duration=4.0, rate=10.0)),
                ClientScenario(1, euroc_dataset("V202", duration=4.0, rate=10.0),
                               start_time=1.0, oracle_seed=9, imu_seed=13),
            ],
            SlamShareConfig(camera_fps=10.0, render_video_frames=False),
        )
        result = session.run()
        assert not result.merges
        assert tracer.find("merge_maps")       # attempts were made
        assert "merge" not in FrameLedger.from_tracer(tracer).stage_breakdown()


class TestTraceContextWire:
    def test_wire_bytes_accounting(self, tracer):
        clock = SimClock()
        link = DuplexLink(uplink=Link(clock), downlink=Link(clock))
        client, server = connect("c", "s", clock, link)
        plain = client.send("frame", 1000)
        traced = client.send("frame", 1000, trace=TraceContext(1, 2))
        assert traced.wire_bytes == plain.wire_bytes + TRACE_CONTEXT_BYTES


class TestTransportPropagation:
    def _lossy_pair(self, loss_rate, seed=0):
        clock = SimClock()
        link = DuplexLink(
            uplink=Link(clock, loss_rate=loss_rate, seed=seed),
            downlink=Link(clock, loss_rate=loss_rate, seed=seed + 1),
        )
        client, server = connect(
            "c", "s", clock, link,
            arq=ArqConfig(initial_timeout_s=0.05, max_retries=12),
        )
        return clock, client, server

    def test_trace_survives_retransmits(self, tracer):
        """Reliable sends over a 40% lossy link: every delivered message
        still carries its original trace context, and the retransmit
        instants recorded on the way tag the same trace_id."""
        clock, client, server = self._lossy_pair(0.4, seed=3)
        contexts = {}
        delivered = []
        for i in range(40):
            ctx = tracer.open_trace("frame.lifecycle", frame=i)
            contexts[ctx.trace_id] = ctx
            client.send("frame", 500, payload=i, reliable=True, trace=ctx,
                        on_delivered=delivered.append)
        clock.run()
        assert server.n_received == len(delivered)
        assert delivered, "lossy ARQ run delivered nothing"
        for message in delivered:
            assert message.trace is not None
            assert message.trace.trace_id in contexts
        retransmitted = [m for m in delivered if m.attempts > 1]
        assert retransmitted, "40% loss should force at least one retry"
        retrans_spans = tracer.find("net.retransmit.frame")
        assert retrans_spans
        assert all(s.trace_id in contexts for s in retrans_spans)
        for ctx in contexts.values():
            tracer.close_trace(ctx, status="complete")

    def test_delivery_span_records_attempts(self, tracer):
        clock, client, server = self._lossy_pair(0.4, seed=5)
        ctx = tracer.open_trace("frame.lifecycle", frame=0)
        for _ in range(30):  # one trace, many sends: some will retry
            client.send("frame", 400, reliable=True, trace=ctx)
        clock.run()
        tracer.close_trace(ctx, status="complete")
        uplinks = tracer.find("net.frame")
        assert uplinks
        assert all(s.trace_id == ctx.trace_id for s in uplinks)
        assert any(s.attrs.get("attempts", 1) > 1 for s in uplinks)
        # Drops on the best-effort path tag the trace too.
        clock2, client2, _ = self._lossy_pair(0.99, seed=7)
        ctx2 = tracer.open_trace("frame.lifecycle", frame=1)
        for _ in range(10):
            client2.send("frame", 400, trace=ctx2)
        clock2.run()
        tracer.close_trace(ctx2, status="uplink_dropped")
        drops = tracer.find("net.drop.frame")
        assert drops and drops[0].trace_id == ctx2.trace_id


class TestSessionEndToEnd:
    def test_every_frame_is_one_linked_tree(self, tracer):
        """The acceptance criterion, in miniature: a 2-client session
        where every completed frame yields exactly one causally-linked
        span tree covering uplink -> admission -> kernel -> downlink."""
        result = _run_traced_session()
        processed = sum(
            o.frames_processed for o in result.outcomes.values()
        )
        ledger = FrameLedger.from_tracer(tracer)
        complete = ledger.complete_frames()
        assert processed > 0
        assert len(complete) == processed
        for record in complete:
            assert record.linked, f"frame {record.frame_no} tree broken"
            for stage in ("uplink", "admission", "tracking", "downlink"):
                assert stage in record.stages, (
                    f"frame {record.frame_no} missing {stage}: "
                    f"{sorted(record.stages)}"
                )
            assert record.total_ms > 0
            assert record.n_spans >= 5
        # Every GPU kernel span carries its frame's trace id.
        kernels = tracer.find("gpu.kernel")
        assert kernels
        assert all(s.trace_id is not None for s in kernels)
        assert tracer.open_trace_count() == 0

    def test_sim_stages_add_up_to_the_frame(self, tracer):
        """On the ideal link a frame's life is uplink, its GPU kernel and
        the pose downlink, each counted once; the merge round charged to
        a frame runs off the pose path and is not part of the sum."""
        _run_traced_session()
        complete = FrameLedger.from_tracer(tracer).complete_frames()
        on_path = [f for f in complete if "merge" not in f.stages]
        assert len(on_path) >= len(complete) - 1 > 0
        for frame in on_path:
            # admission and lock waits are wall time inside a sim instant
            sim_ms = {stage: ms for stage, ms in frame.stages.items()
                      if stage not in ("admission", "lock_wait")}
            assert sorted(sim_ms) == ["downlink", "tracking", "uplink"]
            assert sum(sim_ms.values()) == pytest.approx(frame.total_ms,
                                                         abs=1e-5)

    def test_lossy_session_statuses_partition_frames(self, tracer):
        """Under loss, every opened trace still closes with a terminal
        status; dropped uplinks land in uplink_dropped, not limbo."""
        lossy = ShapingProfile("lossy wifi", loss_rate=0.15)
        _run_traced_session(shaping=lossy)
        ledger = FrameLedger.from_tracer(tracer)
        statuses = ledger.by_status()
        assert "open" not in statuses and "unfinished" not in statuses
        assert statuses.get("complete", 0) > 0
        lossy_terminal = (
            statuses.get("uplink_dropped", 0)
            + statuses.get("pose_dropped", 0)
        )
        assert lossy_terminal > 0
        assert tracer.open_trace_count() == 0

    def test_stage_breakdown_and_exemplars(self, tracer, metrics):
        _run_traced_session(duration=3.0)
        ledger = FrameLedger.from_tracer(tracer)
        breakdown = ledger.stage_breakdown()
        assert "total" in breakdown
        for stage in ("uplink", "tracking", "downlink"):
            stats = breakdown[stage]
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["max_ms"]
            assert stats["count"] > 0
        # The live pose-RTT histogram links its buckets to frame traces.
        text = metrics.render_prometheus()
        bucket_lines = [line for line in text.splitlines()
                        if line.startswith("repro_session_pose_rtt_ms_bucket")]
        assert any('trace_id="' in line for line in bucket_lines)
        summary = ledger.summary_text()
        assert "uplink" in summary and "tracking" in summary


class TestFrameLedgerUnit:
    def _root(self, trace_id, span_id=1, status="complete", **attrs):
        base = {"name": "frame.lifecycle", "span_id": span_id,
                "parent_id": None, "trace_id": trace_id, "tid": "client-0",
                "attrs": {"client_id": 0, "frame": 7, "status": status,
                          **attrs},
                "sim_start_s": 1.0, "sim_dur_ms": 40.0}
        return base

    def _stage(self, trace_id, name, span_id, parent_id, dur_ms, **attrs):
        return {"name": name, "span_id": span_id, "parent_id": parent_id,
                "trace_id": trace_id, "tid": "sim", "attrs": dict(attrs),
                "sim_start_s": 1.0, "sim_dur_ms": dur_ms}

    def test_stage_mapping_and_linkage(self):
        spans = [
            self._root(10, span_id=1),
            self._stage(10, "net.frame", 2, 1, 12.0, attempts=2),
            self._stage(10, "server.admission", 3, 1, 0.1),
            self._stage(10, "tracking", 6, 3, 9.0),
            self._stage(10, "gpu.kernel", 4, 3, 9.0),
            self._stage(10, "net.pose", 5, 1, 8.0),
        ]
        ledger = FrameLedger.from_spans(spans)
        (record,) = ledger.records()
        assert record.complete and record.linked
        assert record.stages["uplink"] == pytest.approx(12.0)
        # The GPU kernel is the tracking stage; the server's tracking
        # sim event covers the same window and is not counted again.
        assert record.stages["tracking"] == pytest.approx(9.0)
        assert record.attempts == 2

    def test_orphan_span_breaks_linkage(self):
        spans = [
            self._root(11, span_id=1),
            # Parent 99 never recorded: the causal chain is broken.
            self._stage(11, "gpu.kernel", 4, 99, 9.0),
        ]
        (record,) = FrameLedger.from_spans(spans).records()
        assert not record.linked

    def test_two_roots_break_linkage(self):
        spans = [self._root(12, span_id=1), self._root(12, span_id=2)]
        (record,) = FrameLedger.from_spans(spans).records()
        assert not record.linked

    def test_jsonl_round_trip_matches_live_ledger(self, tracer, tmp_path):
        _run_traced_session(duration=2.0)
        live = FrameLedger.from_tracer(tracer)
        path = tmp_path / "run.jsonl"
        tracer.export_jsonl(str(path))
        reloaded = FrameLedger.from_jsonl(str(path))
        assert len(reloaded.records()) == len(live.records())
        assert reloaded.by_status() == live.by_status()
        for a, b in zip(live.complete_frames(), reloaded.complete_frames()):
            assert a.trace_id == b.trace_id
            assert a.stages.keys() == b.stages.keys()
            assert a.total_ms == pytest.approx(b.total_ms)
            assert b.linked


class TestPrometheusExposition:
    def test_counter_and_histogram_rendering(self, metrics):
        counter = metrics.counter("frames.shed", "shed frames")
        counter.inc(3)
        hist = metrics.histogram("frame.wall_ms", "frame wall time")
        hist.record(5.0, trace_id=777)
        hist.record(50.0, trace_id=888)
        text = metrics.render_prometheus()
        assert "# TYPE repro_frames_shed_total counter" in text
        assert "repro_frames_shed_total 3" in text
        assert "# TYPE repro_frame_wall_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_frame_wall_ms_count 2" in text
        assert 'trace_id="777"' in text or 'trace_id="888"' in text
        # Exposition must end with a trailing newline for scrapers.
        assert text.endswith("\n")

    def test_export_to_file(self, metrics, tmp_path):
        metrics.counter("a.b", "c").inc()
        out = tmp_path / "metrics.prom"
        metrics.export_prometheus(str(out))
        assert "repro_a_b_total 1" in out.read_text()

    def test_exemplars_optional(self, metrics):
        hist = metrics.histogram("h", "h")
        hist.record(1.0, trace_id=42)
        assert 'trace_id="42"' not in metrics.render_prometheus(
            exemplars=False
        )


class TestExportRoundTrips:
    def test_chrome_export_is_valid_json_with_pid_split(self, tracer,
                                                        tmp_path):
        ctx = tracer.open_trace("frame.lifecycle", frame=0)
        with tracer.child_span(ctx, "server.frame"):
            pass
        tracer.sim_event("net.frame", 10.0, start_s=0.5, ctx=ctx)
        tracer.close_trace(ctx, status="complete")
        out = tmp_path / "trace.json"
        tracer.export_chrome(str(out))
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {1, 2}, "wall and sim pseudo-processes both present"
        names = {e["name"] for e in events if e.get("ph") == "M"}
        assert "process_name" in names
        lifecycle = [e for e in events
                     if e.get("name") == "frame.lifecycle"]
        assert any(e["args"].get("trace_id") == ctx.trace_id
                   for e in lifecycle)

    def test_jsonl_reload_equals_export(self, tracer, tmp_path):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        n = tracer.export_jsonl(str(path))
        rows = load_jsonl(str(path))
        assert len(rows) == n == len(tracer.spans)
        by_name = {r["name"]: r for r in rows}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert set(by_name) == set(tracer.span_names())

    def test_streaming_equals_batch_export(self, tracer, tmp_path):
        stream_path = tmp_path / "stream.jsonl"
        tracer.stream_to(str(stream_path))
        ctx = tracer.open_trace("frame.lifecycle", frame=1)
        with tracer.child_span(ctx, "stage"):
            pass
        tracer.close_trace(ctx, status="complete")
        n = tracer.close_stream()
        batch_path = tmp_path / "batch.jsonl"
        tracer.export_jsonl(str(batch_path))
        streamed = load_jsonl(str(stream_path))
        batch = load_jsonl(str(batch_path))
        assert n == len(streamed) == len(batch)
        assert streamed == batch

    def test_partial_stream_survives_missing_close(self, tracer, tmp_path):
        """Crash safety: spans already closed are on disk even when the
        run never reaches close_stream()."""
        stream_path = tmp_path / "partial.jsonl"
        tracer.stream_to(str(stream_path))
        with tracer.span("finished"):
            pass
        ctx = tracer.open_trace("frame.lifecycle", frame=0)  # never closed
        rows = load_jsonl(str(stream_path))
        assert [r["name"] for r in rows] == ["finished"]
        tracer.close_trace(ctx, status="complete")

    def test_capacity_cap_counts_drops(self, tracer, metrics):
        tracer.configure(enabled=True, capacity=3)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 5
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["trace.spans_dropped"] == 5

    def test_capacity_cap_still_streams(self, tracer, tmp_path):
        tracer.configure(enabled=True, capacity=2)
        stream_path = tmp_path / "capped.jsonl"
        tracer.stream_to(str(stream_path))
        for i in range(6):
            with tracer.span(f"s{i}"):
                pass
        tracer.close_stream()
        assert len(tracer.spans) == 2            # RAM stays bounded...
        assert len(load_jsonl(str(stream_path))) == 6  # ...disk has all


class TestReportAndCli:
    def test_report_html_renders_waterfalls(self, tracer, tmp_path):
        _run_traced_session(duration=2.0)
        ledger = FrameLedger.from_tracer(tracer)
        html = render_report_html(ledger, title="test run")
        assert "<html" in html and "test run" in html
        for stage in ("uplink", "tracking", "downlink"):
            assert stage in html

    def test_cli_report_subcommand(self, tracer, tmp_path, capsys):
        from repro.cli import main
        _run_traced_session(duration=2.0)
        jsonl = tmp_path / "run.jsonl"
        tracer.export_jsonl(str(jsonl))
        html = tmp_path / "report.html"
        rc = main(["report", str(jsonl), "--html", str(html)])
        assert rc in (0, None)
        out = capsys.readouterr().out
        assert "causally linked frame trees" in out
        assert html.exists() and "uplink" in html.read_text()

    def test_cli_report_empty_trace_fails(self, tmp_path):
        from repro.cli import main
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1
