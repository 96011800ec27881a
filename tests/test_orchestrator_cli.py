"""Tests for the CLI (the serving orchestrator's are in test_shm_multiproc)."""

import pytest

from repro.cli import build_parser, main
from repro.obs import get_metrics, get_tracer


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["session", "--traces", "MH04", "MH05"])
        assert args.command == "session"
        assert args.traces == ["MH04", "MH05"]
        args = parser.parse_args(["baseline", "--hold-down-frames", "30"])
        assert args.hold_down_frames == 30

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "MH04" in out and "KITTI-00" in out
        assert "Mbit/s" in out

    def test_session_command_small(self, capsys):
        code = main([
            "session", "--traces", "MH04", "MH05",
            "--duration", "6", "--join-gap", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "client 0" in out and "client 1" in out
        assert "ATE" in out

    def test_baseline_command_small(self, capsys):
        code = main([
            "baseline", "--traces", "MH04",
            "--duration", "6", "--hold-down-frames", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "sync rounds" in out

    def test_session_with_shaping(self, capsys):
        code = main([
            "session", "--traces", "MH04", "--duration", "4",
            "--shaping", "300 ms added delay",
        ])
        assert code == 0

    def test_unknown_trace_fails(self):
        with pytest.raises(ValueError):
            main(["session", "--traces", "MH99", "--duration", "2"])


@pytest.fixture
def restore_obs():
    """``stats`` switches the global tracer and metrics on; put them back."""
    tracer, metrics = get_tracer(), get_metrics()
    tracer_state = (tracer.enabled, tracer.clock, tracer.capacity)
    metrics_enabled = metrics.enabled
    yield
    tracer.reset()
    tracer.enabled, tracer.clock, tracer.capacity = tracer_state
    tracer.output_path = None
    metrics.reset()
    metrics.enabled = metrics_enabled
    metrics.output_path = None


class TestMapAndStatsCommands:
    # The ``repro`` logger does not propagate to the root logger, so its
    # records reach capsys (stdout), not caplog.
    def test_stats_logs_frame_lifecycle(self, capsys, restore_obs):
        assert main(["stats", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "frame-lifecycle breakdown" in out
        assert "uplink" in out and "tracking" in out

    def test_snapshot_then_restore_relocalizes(self, capsys, tmp_path):
        from repro.sharedmem import load_snapshot

        snap = str(tmp_path / "map.snap")
        assert main(["snapshot", "--duration", "6", "--max-keyframes", "6",
                     "--out", snap]) == 0
        out = capsys.readouterr().out
        assert f"to {snap}" in out
        assert 0 < load_snapshot(snap).info.n_keyframes <= 6
        code = main(["restore", snap, "--traces", "MH05", "--duration", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relocalized into the restored map" in out
