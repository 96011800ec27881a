"""The four workloads of the perf ledger.

Importing this module imports ``repro``; the repeat process does it
inside the timed set-up, so nothing else in the package imports it at
module level.

Every workload is closed-loop and driven from one process: the next
frame is issued only after the previous one completed.  ``seed`` offsets
every oracle / IMU / render / worker seed (0 = the seeds the legacy
benches used); the world geometry itself is fixed, so the amount of work
does not depend on the seed and runs with different seeds are
comparable.  ``seconds`` sizes the timed region: it is the deadline of
the two frame loops and the simulated (or, for serving, the calibrated)
length of the two fixed-size runs.
"""

from __future__ import annotations

import gc
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
from repro.core import orchestrator as orchestrator_mod
from repro.core.client import SlamShareClient
from repro.core.orchestrator import ServingOrchestrator, ServingWorkloadConfig
from repro.core.server import SlamShareServer
from repro.datasets import euroc_dataset
from repro.geometry import SE3
from repro.geometry import alignment as alignment_mod
from repro.gpu.scheduler import GpuScheduler
from repro.imu import GRAVITY_W, ImuBuffer, synthesize_imu
from repro.imu import preintegration as preintegration_mod
from repro.net.simclock import SimClock
from repro.net.transport import Endpoint
from repro.sharedmem import ShmShardedMapStore
from repro.slam import bundle_adjustment as ba_mod
from repro.slam import place_recognition as place_mod
from repro.slam import pnp as pnp_mod
from repro.slam.local_mapping import LocalMapper
from repro.slam.merging import MapMerger
from repro.slam.tracking import Tracker
from repro.video import H264LikeCodec
from repro.video.codec import psnr
from repro.vision import brief as brief_mod
from repro.vision import fast as fast_mod
from repro.vision import matching as matching_mod
from repro.vision import render as render_mod
from repro.vision.camera import PinholeCamera
from repro.vision.orb import OrbExtractor
from repro.vision.render import FeatureOracle

from .repeat import percentile
from .tracing import SpanRecorder

RATE_HZ = 10.0
#: ``--seconds`` at which the size-dependent checks (merges, ATE) hold;
#: shorter runs (``--smoke``) only check what holds at any size.
FULL_SECONDS = 8.0

Metric = Tuple[float, str]
Check = Tuple[str, bool, str]


@dataclass
class Measurement:
    """What one timed region produced."""

    frames: int                    # frames completed inside the timed wall
    wall_s: float
    frame_ms: List[float]          # per-frame wall samples
    attempted: int
    failed: int
    #: Work the timed call did outside the timed wall (process spawn,
    #: join, teardown); the runner books it under ``setup_s`` so it
    #: cannot leave the ledger.
    outside_s: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)


def _self_rows(rec: SpanRecorder, rows: Dict[str, dict],
               frames: int) -> Dict[str, Metric]:
    """``<span name>.self_ms_per_frame`` per wrapped name, and their whole.

    Every name the recorder wraps gets a row, so the rows add up to
    ``perf.trace.frame_wall_ms``, the wall of the root spans over the same
    frames; the root's own row is the explicit residual.
    """
    out = {"perf.trace.frame_wall_ms":
           (rec.root_seconds() * 1e3 / frames, "ms")}
    for name in rec.names:
        self_s = rows[name]["self_s"] if name in rows else 0.0
        out[f"{name}.self_ms_per_frame"] = (self_s * 1e3 / frames, "ms")
    return out


def _calls(rows: Dict[str, dict], name: str) -> int:
    return rows[name]["calls"] if name in rows else 0


def _durations_ms(rows: Dict[str, dict], name: str) -> List[float]:
    return [d * 1e3 for d in rows[name]["durations_s"]] if name in rows else []


class Workload:
    """Set-up, one timed region, output checks and layer wrappers."""

    name = ""
    rss_children = False

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.full = seconds >= FULL_SECONDS

    def setup(self) -> None:
        """Generate inputs, construct the system, run the warm-up pass."""
        raise NotImplementedError

    @staticmethod
    def _root(rec: Optional[SpanRecorder], name: str,
              fn: Callable) -> Callable:
        """``fn`` as the root span of a traced repeat.

        The root's self time is what no wrapped layer covers: the
        workload's explicit residual.
        """
        return fn if rec is None else rec.wrap(name, fn)

    def install_trace(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def run(self, rec: Optional[SpanRecorder] = None) -> Measurement:
        raise NotImplementedError

    def check(self, m: Measurement) -> List[Check]:
        raise NotImplementedError

    def layer_metrics(self, rec: SpanRecorder,
                      m: Measurement) -> Dict[str, Metric]:
        raise NotImplementedError


# --------------------------------------------------------------- session_4c
class Session4c(Workload):
    """Four-client seeded session: the whole server path, video off."""

    name = "session_4c"
    #: trace, join time as a share of the run, oracle seed, IMU seed
    #: (the BENCH_PR2 scenario; V202's scene never overlaps the others).
    CLIENTS = (("MH04", 0.0, 7, 11), ("MH05", 1 / 12, 9, 13),
               ("MH04", 2 / 12, 21, 23), ("V202", 3 / 12, 33, 37))

    def _session(self, clients, duration: float) -> SlamShareSession:
        scenarios = [
            ClientScenario(
                cid,
                euroc_dataset(trace, duration=duration, rate=RATE_HZ),
                start_time=join * duration,
                oracle_seed=oracle_seed + self.seed,
                imu_seed=imu_seed + self.seed,
            )
            for cid, (trace, join, oracle_seed, imu_seed) in enumerate(clients)
        ]
        return SlamShareSession(
            scenarios, SlamShareConfig(render_video_frames=False))

    def setup(self) -> None:
        # Warm up first and drop it: a session allocates its shard arenas
        # up front, and two alive at once would double the peak RSS.
        self._session(self.CLIENTS[:1], min(2.0, self.seconds)).run()
        gc.collect()
        self.session = self._session(self.CLIENTS, self.seconds)

    def install_trace(self, rec: SpanRecorder) -> None:
        frame_ids: Dict[Tuple[int, float], int] = {}

        def on_capture(client, timestamp, *_a, **_k):
            frame_ids[(client.client_id, timestamp)] = len(frame_ids)
            rec.tag_frame(len(frame_ids) - 1)

        def on_server_frame(_server, client_id, timestamp, *_a, **_k):
            rec.tag_frame(frame_ids.get((client_id, timestamp), -1))

        def on_publish(n_bytes):
            rec.counts["publish_bytes"] += n_bytes

        def on_merge(result):
            rec.counts["merge_success"] += bool(result.success)

        rec.hook_method(SimClock, "step", lambda _clock: rec.next_event())
        rec.wrap_method(SlamShareServer, "process_frame",
                        "core.server.process_frame", before=on_server_frame)
        rec.wrap_method(SlamShareClient, "capture_frame",
                        "core.client.capture_frame", before=on_capture)
        rec.wrap_function(preintegration_mod, "preintegrate",
                          "imu.preintegrate")
        rec.wrap_method(FeatureOracle, "observe", "vision.render.observe")
        rec.wrap_method(Endpoint, "send", "net.endpoint.send")
        rec.wrap_method(GpuScheduler, "submit", "gpu.scheduler.submit")
        rec.wrap_method(Tracker, "track", "slam.tracking.track")
        rec.wrap_function(matching_mod, "search_by_projection_vectorized",
                          "vision.matching.search_by_projection")
        rec.wrap_function(pnp_mod, "solve_pnp", "slam.pnp.solve_pnp")
        rec.wrap_method(LocalMapper, "insert_keyframe",
                        "slam.local_mapping.insert_keyframe")
        rec.wrap_function(ba_mod, "local_bundle_adjustment",
                          "slam.bundle_adjustment.local_ba")
        rec.wrap_method(type(self.session.server.store), "publish_map",
                        "sharedmem.store.publish_map", after=on_publish)
        rec.wrap_method(MapMerger, "merge_maps", "slam.merging.merge_maps",
                        after=on_merge)
        rec.wrap_function(place_mod, "detect_common_region",
                          "slam.place_recognition.detect_common_region")
        rec.wrap_function(alignment_mod, "ransac_umeyama",
                          "geometry.alignment.ransac_umeyama")

    def run(self, rec: Optional[SpanRecorder] = None) -> Measurement:
        server = self.session.server
        frame_ms: List[float] = []
        process_frame = server.process_frame

        def timed_process_frame(*args, **kwargs):
            start = perf_counter()
            try:
                return process_frame(*args, **kwargs)
            finally:
                frame_ms.append((perf_counter() - start) * 1e3)

        # The one wrapper an untraced repeat carries: the per-frame wall
        # of the server is not observable from outside without it.
        server.process_frame = timed_process_frame
        run = self._root(rec, "core.session.residual", self.session.run)
        start = perf_counter()
        self.result = run()
        wall_s = perf_counter() - start
        outcomes = self.result.outcomes.values()
        captured = sum(o.frames_captured for o in outcomes)
        processed = sum(o.frames_processed for o in outcomes)
        lost = sum(o.frames_lost for o in outcomes)
        return Measurement(
            frames=processed, wall_s=wall_s, frame_ms=frame_ms,
            attempted=captured, failed=captured - processed + lost,
            info={"merges": len(self.result.merges),
                  "sim_s": round(self.result.duration, 3)},
        )

    def check(self, m: Measurement) -> List[Check]:
        checks: List[Check] = []
        for cid, o in self.result.outcomes.items():
            accounted = (o.frames_processed + o.frames_superseded
                         + o.frames_offline + o.frames_shed)
            checks.append((
                f"client{cid}.frame_accounting",
                o.frames_captured == accounted,
                f"captured {o.frames_captured} accounted {accounted}"))
            checks.append((f"client{cid}.frames_lost", o.frames_lost == 0,
                           f"{o.frames_lost} lost"))
        if self.full:
            checks.append(("merges", len(self.result.merges) >= 2,
                           f"{len(self.result.merges)} successful merges"))
            for cid in self.result.outcomes:
                rmse = self.result.client_ate(cid).rmse
                checks.append((f"client{cid}.ate_rmse", rmse <= 0.10,
                               f"{rmse:.4f} m"))
        return checks

    def layer_metrics(self, rec: SpanRecorder,
                      m: Measurement) -> Dict[str, Metric]:
        frames = m.frames
        rows = rec.summary()
        out = _self_rows(rec, rows, frames)
        lock_wait_ns = sum(r["read_wait_ns"] + r["write_wait_ns"]
                           for r in self.session.server.store.shard_stats())
        merge_calls = _calls(rows, "slam.merging.merge_maps")
        merge_ms = _durations_ms(rows, "slam.merging.merge_maps")
        out.update({
            "net.simclock.events_per_frame": (rec.event / frames, "count"),
            "slam.pnp.solve_pnp.calls_per_frame":
                (_calls(rows, "slam.pnp.solve_pnp") / frames, "count"),
            "slam.local_mapping.insert_keyframe.calls":
                (_calls(rows, "slam.local_mapping.insert_keyframe"), "count"),
            "slam.bundle_adjustment.local_ba.calls":
                (_calls(rows, "slam.bundle_adjustment.local_ba"), "count"),
            "sharedmem.store.publish_map.bytes_per_frame":
                (rec.counts["publish_bytes"] / frames, "B"),
            "sharedmem.store.lock_wait_ms_per_frame":
                (lock_wait_ns / 1e6 / frames, "ms"),
            "slam.merging.merge_maps.calls": (merge_calls, "count"),
            "slam.merging.merge_maps.ms_per_call_p50":
                (median(merge_ms) if merge_ms else 0.0, "ms"),
            # Successes over attempts: the rest is wasted work.
            "slam.merging.merge_maps.success_ratio":
                (rec.counts["merge_success"] / merge_calls
                 if merge_calls else 0.0, "ratio"),
            "geometry.alignment.ransac_umeyama.calls":
                (_calls(rows, "geometry.alignment.ransac_umeyama"), "count"),
            # The structural tail (keyframe and failed-merge frames) as
            # the traced run saw it; the untraced percentiles are in the
            # suite ledger.
            "core.server.process_frame.ms_p95":
                (percentile(m.frame_ms, 95), "ms"),
            "core.server.process_frame.ms_p99":
                (percentile(m.frame_ms, 99), "ms"),
        })
        return out


# ---------------------------------------------------------- frontend_pixels
class FrontendPixels(Workload):
    """Real FAST/rBRIEF extraction and matching on rendered frames."""

    name = "frontend_pixels"
    #: A frame below either floor counts as failed.  Only the rendered
    #: landmark patches describe repeatably, so about a tenth of ~400
    #: features match between neighbours (24 to 59 over the clip); the
    #: floor sits where a broken descriptor or matcher lands, and the
    #: median is held to 30 by the check.
    MIN_FEATURES = 100
    MIN_MATCHES = 10

    def setup(self) -> None:
        n_images = 48 if self.full else 8
        dataset = euroc_dataset("MH04", duration=n_images / RATE_HZ,
                                rate=RATE_HZ)
        self.images = [
            render_mod.render_frame(
                dataset.world.positions, dataset.world.ids, dataset.camera,
                dataset.pose_cw(i),
                rng=np.random.default_rng(1000 + i + 100_003 * self.seed),
            )
            for i in range(n_images)
        ]
        # Forward then backward through the clip, so that consecutive
        # frames always overlap (a plain wrap-around would pair the last
        # view with the first and match nothing).
        self.order = (list(range(n_images))
                      + list(range(n_images - 2, 0, -1)))
        self.extractor = OrbExtractor()
        self.previous = None
        for index in (4, 3, 2, 1):
            self._frame(self.images[index])

    def _frame(self, image) -> Tuple[int, int]:
        current = self.extractor.extract(image)
        n_matches = 0
        if self.previous is not None:
            n_matches = len(matching_mod.match_descriptors(
                current.descriptors, self.previous.descriptors))
        self.previous = current
        return len(current), n_matches

    def install_trace(self, rec: SpanRecorder) -> None:
        rec.wrap_method(OrbExtractor, "extract", "vision.orb.extract")
        rec.wrap_function(fast_mod, "detect_fast_vectorized",
                          "vision.fast.detect")
        for attr in ("intensity_centroid_angle", "compute_descriptor"):
            rec.wrap_function(brief_mod, attr, "vision.brief.describe")
        rec.wrap_function(matching_mod, "match_descriptors",
                          "vision.matching.match_descriptors")

    def _loop(self, rec: Optional[SpanRecorder]) -> Measurement:
        frame_ms: List[float] = []
        features: List[int] = []
        matches: List[int] = []
        order, images = self.order, self.images
        start = perf_counter()
        deadline = start + self.seconds
        while True:
            if rec is not None:
                rec.next_event()
                rec.tag_frame(len(frame_ms))
            t0 = perf_counter()
            n_features, n_matches = self._frame(
                images[order[len(frame_ms) % len(order)]])
            t1 = perf_counter()
            frame_ms.append((t1 - t0) * 1e3)
            features.append(n_features)
            matches.append(n_matches)
            if t1 >= deadline:
                break
        wall_s = perf_counter() - start
        failed = sum(1 for f, k in zip(features, matches)
                     if f < self.MIN_FEATURES or k < self.MIN_MATCHES)
        return Measurement(
            frames=len(frame_ms), wall_s=wall_s, frame_ms=frame_ms,
            attempted=len(frame_ms), failed=failed,
            info={"features_p50": median(features),
                  "matches_p50": median(matches),
                  "features_sum": sum(features), "matches_sum": sum(matches),
                  "frame_ms_p95": round(percentile(frame_ms, 95), 3)},
        )

    def run(self, rec: Optional[SpanRecorder] = None) -> Measurement:
        return self._root(rec, "perf.loop.residual", self._loop)(rec)

    def check(self, m: Measurement) -> List[Check]:
        return [
            ("features_p50", m.info["features_p50"] >= 300,
             f"{m.info['features_p50']} features on the median frame"),
            ("matches_p50", m.info["matches_p50"] >= 30,
             f"{m.info['matches_p50']} frame-to-frame matches (median)"),
        ]

    def layer_metrics(self, rec: SpanRecorder,
                      m: Measurement) -> Dict[str, Metric]:
        frames = m.frames
        rows = rec.summary()
        out = _self_rows(rec, rows, frames)
        out.update({
            "vision.fast.detect.calls_per_frame":
                (_calls(rows, "vision.fast.detect") / frames, "count"),
            "vision.brief.describe.calls_per_frame":
                (_calls(rows, "vision.brief.describe") / frames, "count"),
            "vision.orb.features_per_frame":
                (m.info["features_sum"] / frames, "count"),
            "vision.matching.match_ratio":
                (m.info["matches_sum"] / max(m.info["features_sum"], 1),
                 "ratio"),
        })
        return out


# ------------------------------------------------------------- video_uplink
class VideoUplink(Workload):
    """The device half: render, IMU advance and H.264-like encode."""

    name = "video_uplink"
    BLOCK = 30      # frames per stream before switching: one GOP

    def _client(self, config, dataset) -> SlamShareClient:
        gravity_map = dataset.pose_cw(0).rotation @ GRAVITY_W
        return SlamShareClient(0, config, SE3.identity(), gravity_map)

    def _pixels(self, dataset, index: int) -> np.ndarray:
        return render_mod.render_frame(
            dataset.world.positions, dataset.world.ids, dataset.camera,
            dataset.pose_cw(index),
            rng=np.random.default_rng(1000 + index + 100_003 * self.seed),
        ).pixels

    def setup(self) -> None:
        config = SlamShareConfig()
        # Each stream is provisioned for three times the frames this host
        # captures before the deadline; a loop that exhausts both ends
        # early and still reports frames over wall.
        stream_s = max(3.0 * self.seconds, 2 * self.BLOCK / RATE_HZ)
        self.streams = []
        for trace in ("MH04", "V202"):
            dataset = euroc_dataset(trace, duration=stream_s, rate=RATE_HZ)
            imu = ImuBuffer(synthesize_imu(
                dataset.ground_truth, rate_hz=config.imu_rate_hz,
                seed=11 + self.seed))
            self.streams.append({
                "dataset": dataset, "imu": imu, "next": 0, "prev_ts": None,
                "client": self._client(config, dataset),
            })
        self.codec_args = dict(gop=config.video_gop,
                               quantization=config.video_quantization)
        dataset = self.streams[0]["dataset"]
        self.sample_pixels = [self._pixels(dataset, i) for i in range(4)]
        warm = {"dataset": dataset, "imu": self.streams[0]["imu"],
                "next": 0, "prev_ts": None,
                "client": self._client(config, dataset)}
        for _ in range(4):
            self._frame(warm)

    def _frame(self, stream) -> int:
        dataset, index = stream["dataset"], stream["next"]
        timestamp = dataset.ground_truth[index].timestamp
        pixels = self._pixels(dataset, index)
        delta = None
        if stream["prev_ts"] is not None:
            delta = preintegration_mod.preintegrate(
                stream["imu"], stream["prev_ts"], timestamp)
        upload = stream["client"].capture_frame(timestamp, delta,
                                                pixels=pixels)
        stream["prev_ts"] = timestamp
        stream["next"] = index + 1
        return upload.video_bytes

    def install_trace(self, rec: SpanRecorder) -> None:
        self.encoded_types: List[str] = []
        rec.wrap_function(render_mod, "render_frame",
                          "vision.render.render_frame")
        rec.wrap_method(
            H264LikeCodec, "encode", "video.codec.encode",
            after=lambda encoded: self.encoded_types.append(
                encoded.frame_type))
        rec.wrap_method(SlamShareClient, "capture_frame",
                        "core.client.capture_frame")
        rec.wrap_function(preintegration_mod, "preintegrate",
                          "imu.preintegrate")

    def _capture_order(self):
        """One GOP of MH04, one of V202, and so on until both are spent."""
        while True:
            live = [s for s in self.streams
                    if s["next"] < s["dataset"].n_frames]
            if not live:
                return
            for stream in live:
                left = stream["dataset"].n_frames - stream["next"]
                for _ in range(min(self.BLOCK, left)):
                    yield stream

    def _loop(self, rec: Optional[SpanRecorder]) -> Measurement:
        frame_ms: List[float] = []
        n_bytes: List[int] = []
        first_error = ""
        start = perf_counter()
        deadline = start + self.seconds
        for stream in self._capture_order():
            if rec is not None:
                rec.next_event()
                rec.tag_frame(len(frame_ms))
            t0 = perf_counter()
            try:
                encoded_bytes = self._frame(stream)
            except Exception:  # a failed frame is counted, not fatal
                encoded_bytes = 0
                first_error = first_error or traceback.format_exc()
                stream["next"] += 1
            t1 = perf_counter()
            frame_ms.append((t1 - t0) * 1e3)
            n_bytes.append(encoded_bytes)
            if t1 >= deadline:
                break
        failed = sum(1 for n in n_bytes if n == 0)
        wall_s = perf_counter() - start
        return Measurement(
            frames=len(frame_ms), wall_s=wall_s, frame_ms=frame_ms,
            attempted=len(frame_ms), failed=failed,
            info={"bytes_per_frame": sum(n_bytes) / len(n_bytes),
                  "first_error": first_error,
                  "frame_ms_p95": round(percentile(frame_ms, 95), 3)},
        )

    def run(self, rec: Optional[SpanRecorder] = None) -> Measurement:
        return self._root(rec, "perf.loop.residual", self._loop)(rec)

    def check(self, m: Measurement) -> List[Check]:
        codec = H264LikeCodec(**self.codec_args)
        quality = min(
            psnr(pixels, codec.decode(codec.encode(pixels)))
            for pixels in self.sample_pixels[:3]
        )
        raw = self.sample_pixels[0].size
        return [
            ("roundtrip_psnr", quality >= 30.0,
             f"{quality:.1f} dB over an I+P+P round trip"),
            ("compression", m.info["bytes_per_frame"] < raw / 5,
             f"{m.info['bytes_per_frame']:.0f} B/frame vs raw {raw} B"),
            ("no_exception", not m.info["first_error"],
             m.info["first_error"].strip().splitlines()[-1]
             if m.info["first_error"] else "none"),
        ]

    def layer_metrics(self, rec: SpanRecorder,
                      m: Measurement) -> Dict[str, Metric]:
        rows = rec.summary()
        out = _self_rows(rec, rows, m.frames)
        by_type: Dict[str, List[float]] = {"I": [], "P": []}
        for frame_type, encode_ms in zip(
                self.encoded_types, _durations_ms(rows, "video.codec.encode")):
            by_type[frame_type].append(encode_ms)
        out.update({
            "video.codec.iframe_ms_p50":
                (median(by_type["I"]) if by_type["I"] else 0.0, "ms"),
            "video.codec.pframe_ms_p50":
                (median(by_type["P"]) if by_type["P"] else 0.0, "ms"),
            "video.codec.bytes_per_frame": (m.info["bytes_per_frame"], "B"),
        })
        return out


# --------------------------------------------------------------- serving_2w
class Serving2w(Workload):
    """Two worker processes tracking against one OS shared-memory map."""

    name = "serving_2w"
    rss_children = True
    WORKERS = 2
    #: Frames per worker and second of ``--seconds``; two workers at this
    #: rate keep the barrier window near 3/4 of ``--seconds`` on the
    #: 2-core reference host.
    FRAMES_PER_S = 500
    WARM_FRAMES = 150

    def _config(self, n_frames: int) -> ServingWorkloadConfig:
        return ServingWorkloadConfig(n_frames=n_frames, seed=7 + self.seed)

    def _serve(self, n_frames: int, workers: int = WORKERS,
               mode: str = "process"):
        return ServingOrchestrator(workers, self._config(n_frames),
                                   mode=mode).run()

    def setup(self) -> None:
        self.n_frames = max(int(self.FRAMES_PER_S * self.seconds), 60)
        self._serve(self.WARM_FRAMES)

    def install_trace(self, rec: SpanRecorder) -> None:
        rec.wrap_function(orchestrator_mod, "run_tracking_worker",
                          "core.orchestrator.run_tracking_worker")
        rec.wrap_method(PinholeCamera, "project_world",
                        "vision.camera.project_world")
        rec.wrap_function(matching_mod, "search_by_projection_vectorized",
                          "vision.matching.search_by_projection")
        rec.wrap_function(matching_mod, "match_descriptors",
                          "vision.matching.match_descriptors")
        rec.wrap_method(ShmShardedMapStore, "publish_map",
                        "sharedmem.shm.publish_map")
        rec.wrap_context_method(ShmShardedMapStore, "write_transaction",
                                "sharedmem.shm.write_transaction")

    def run(self, rec: Optional[SpanRecorder] = None) -> Measurement:
        start = perf_counter()
        report = self._serve(self.n_frames)
        total_s = perf_counter() - start
        self.report = report
        attempted = self.WORKERS * self.n_frames
        return Measurement(
            frames=report.frames, wall_s=report.wall_s,
            # The workers expose no per-frame samples: one value per
            # worker, its loop wall over its frames.
            frame_ms=[w["loop_wall_s"] * 1e3 / w["frames"]
                      for w in report.per_worker],
            attempted=attempted, failed=attempted - report.frames,
            outside_s=total_s - report.wall_s,
            info={"publishes": report.publishes, "merges": report.merges,
                  "lock_wait_ms": report.lock_wait_ms},
        )

    def check(self, m: Measurement) -> List[Check]:
        n, w = self.n_frames, self.WORKERS
        counters = ("matches", "reloc_matches", "publishes", "merges")
        by_mode = {
            mode: self._serve(self.WARM_FRAMES, mode=mode)
            for mode in ("thread", "process")
        }
        same = all(getattr(by_mode["thread"], c) == getattr(by_mode["process"], c)
                   for c in counters)
        return [
            ("thread_process_identical", same,
             ", ".join(f"{c} {getattr(by_mode['process'], c)}"
                       for c in counters)),
            ("frames", m.frames == w * n, f"{m.frames} of {w * n}"),
            ("publishes", m.info["publishes"] == w * (n // 10),
             f"{m.info['publishes']} of {w * (n // 10)}"),
            ("merges", m.info["merges"] == w * (n // 60),
             f"{m.info['merges']} of {w * (n // 60)}"),
        ]

    def layer_metrics(self, rec: SpanRecorder,
                      m: Measurement) -> Dict[str, Metric]:
        """Layer numbers of the timed process-mode run, plus two passes.

        Worker processes are spawned from a fresh import and cannot carry
        wrappers, so the span rows come from one single-worker
        thread-mode pass in this process (the same loop, the same store
        class), a quarter of the timed length.  The single-worker
        process-mode pass of that length is the scaling baseline.
        """
        report = self.report
        frames = report.frames
        kernel_ms = sum(w["kernel_ms"] for w in report.per_worker)
        baseline_frames = max(self.n_frames // 4, 60)
        baseline = self._serve(baseline_frames, workers=1)
        traced = self._serve(baseline_frames, workers=1, mode="thread")
        rows = rec.summary()
        out = _self_rows(rec, rows, traced.frames)
        for name in ("sharedmem.shm.publish_map",
                     "sharedmem.shm.write_transaction"):
            call_ms = _durations_ms(rows, name)
            out[f"{name}.ms_per_call"] = (
                sum(call_ms) / len(call_ms) if call_ms else 0.0, "ms")
        out.update({
            "core.orchestrator.spawn_join_s": (m.outside_s, "s"),
            "core.orchestrator.kernel_busy_frac":
                (kernel_ms / (report.n_workers * report.wall_s * 1e3),
                 "ratio"),
            "core.orchestrator.scaling_eff":
                (report.throughput_fps
                 / (report.n_workers * baseline.throughput_fps), "ratio"),
        })
        for kind, wait_ms in report.lock_wait_ms.items():
            out[f"sharedmem.shm.lock_wait_ms_per_frame.{kind}"] = (
                wait_ms / frames, "ms")
        return out


WORKLOADS: Dict[str, Callable[[int, float], Workload]] = {
    cls.name: cls
    for cls in (Session4c, FrontendPixels, VideoUplink, Serving2w)
}
