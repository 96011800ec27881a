"""Table 3: video uplink vs per-image transfer.

Paper: image transfer needs 81 (mono) / 131 (stereo) Mbit/s at 30 FPS
while the H.264 stream needs 1.1 / 1.93 Mbit/s; encode < 3 ms, both
decode ~1 ms; ATE is unchanged by the codec.  We measure our real
codecs on rendered frames; the absolute gap is smaller (our entropy
stage is DEFLATE, not CABAC+DCT — see EXPERIMENTS.md) but the ordering
and ATE-neutrality reproduce.
"""

import numpy as np
import pytest

from repro.datasets import euroc_dataset, kitti_dataset
from repro.video import H264LikeCodec, PngLikeCodec, encode_stream, psnr
from repro.vision import OrbExtractor, OrbExtractorConfig, render_frame

N_FRAMES = 25


def _frames(ds, n=N_FRAMES, stride=1):
    return [
        render_frame(
            ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(i * stride),
            rng=np.random.default_rng(100 + i),
        ).pixels
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "trace,stereo_factor", [("KITTI-00", 2), ("MH05", 1)]
)
def test_table3_video_vs_image(trace, stereo_factor, benchmark):
    ds = (
        kitti_dataset("KITTI-00", duration=5.0, rate=10.0)
        if trace.startswith("KITTI")
        else euroc_dataset("MH05", duration=5.0, rate=10.0)
    )
    frames = _frames(ds)

    def both_streams():
        video = encode_stream(
            H264LikeCodec(gop=30, quantization=8), frames, decode=True
        )
        images = encode_stream(PngLikeCodec(), frames, decode=True)
        return video, images

    video, images = benchmark.pedantic(both_streams, rounds=1, iterations=1)
    v_mbps = stereo_factor * video.bitrate_bps(30) / 1e6
    i_mbps = stereo_factor * images.bitrate_bps(30) / 1e6
    mode = "stereo" if stereo_factor == 2 else "mono"
    print(f"\nTable 3 — {trace} ({mode}), 30 FPS equivalent")
    print(f"  image transfer : {i_mbps:8.2f} Mbit/s  "
          f"(enc n/a, dec {images.mean_decode_ms:.2f} ms)")
    print(f"  SLAM-Share     : {v_mbps:8.2f} Mbit/s  "
          f"(enc {video.mean_encode_ms:.2f} ms, dec {video.mean_decode_ms:.2f} ms)")
    print(f"  bandwidth ratio: {i_mbps / v_mbps:.1f}x")

    assert v_mbps < i_mbps / 4          # video ≪ images (paper: ~70x)
    assert video.mean_encode_ms < 40.0  # pure-Python; paper: <3 ms native


def test_table3_codec_preserves_features(benchmark):
    """The 'same ATE' row: features extracted from decoded video frames
    match those from pristine frames to sub-pixel accuracy."""
    ds = euroc_dataset("MH05", duration=3.0, rate=10.0)
    frames = _frames(ds, n=8)
    codec = H264LikeCodec(gop=30, quantization=8)
    extractor = OrbExtractor(OrbExtractorConfig(n_features=120, n_levels=2))

    def roundtrip_features():
        pairs = []
        for frame in frames:
            decoded = codec.decode(codec.encode(frame))
            from repro.vision import Image

            pristine = extractor.extract(Image(frame))
            lossy = extractor.extract(Image(decoded))
            pairs.append((frame, decoded, pristine, lossy))
        return pairs

    pairs = benchmark.pedantic(roundtrip_features, rounds=1, iterations=1)
    displacements = []
    quality = []
    for frame, decoded, pristine, lossy in pairs:
        quality.append(psnr(frame, decoded))
        if len(pristine) == 0 or len(lossy) == 0:
            continue
        # Nearest-keypoint displacement between the two feature sets.
        for kp_uv in pristine.uv:
            d = np.min(np.linalg.norm(lossy.uv - kp_uv, axis=1))
            displacements.append(d)
    match_rate = float(np.mean([d < 1.0 for d in displacements]))
    print(f"\nTable 3 ATE row — decoded-frame feature stability: "
          f"PSNR {np.mean(quality):.1f} dB, {100 * match_rate:.1f}% of "
          f"keypoints within 1 px")
    assert np.mean(quality) > 35.0
    assert match_rate > 0.85
