"""Tests for the PNG-like and H.264-like codecs."""

import dataclasses
import functools
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.datasets import euroc_dataset, kitti_dataset
from repro.video import (
    H264LikeCodec,
    PngLikeCodec,
    StreamStats,
    encode_stream,
    psnr,
)
from repro.video.h264_like import _HEAD_CRC, _candidate_offsets, estimate_global_shift
from repro.vision import render_frame
from tests import oracles


def _synthetic_frames(n=12, seed=0):
    """Slowly panning view of a landmark field: realistic temporal redundancy."""
    ds = euroc_dataset("MH04", duration=max(n / 10.0, 1.0), rate=10.0)
    frames = []
    for i in range(min(n, ds.n_frames)):
        img = render_frame(
            ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(i),
            rng=np.random.default_rng(seed + i),
        )
        frames.append(img.pixels)
    return frames


class TestPngLikeCodec:
    def test_lossless_roundtrip(self):
        codec = PngLikeCodec()
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(60, 80), dtype=np.uint8)
        encoded = codec.encode(frame)
        assert np.array_equal(codec.decode(encoded), frame)

    def test_compresses_smooth_content(self):
        codec = PngLikeCodec()
        frame = np.tile(np.arange(80, dtype=np.uint8), (60, 1))
        encoded = codec.encode(frame)
        assert encoded.n_bytes < frame.nbytes / 5

    def test_all_frames_are_intra(self):
        codec = PngLikeCodec()
        for frame in _synthetic_frames(3):
            assert codec.encode(frame).frame_type == "I"

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_property_lossless(self, seed):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, size=(24, 32), dtype=np.uint8)
        codec = PngLikeCodec()
        assert np.array_equal(codec.decode(codec.encode(frame)), frame)


class TestH264LikeCodec:
    def test_gop_structure(self):
        codec = H264LikeCodec(gop=4)
        frames = _synthetic_frames(8)
        types = [codec.encode(f).frame_type for f in frames]
        assert types == ["I", "P", "P", "P", "I", "P", "P", "P"]

    def test_reconstruction_quality(self):
        codec = H264LikeCodec(gop=10, quantization=8)
        for frame in _synthetic_frames(6):
            encoded = codec.encode(frame)
            decoded = codec.decode(encoded)
            assert psnr(frame, decoded) > 30.0

    def test_closed_loop_no_drift(self):
        # P-frame chains must not accumulate error: encoder predicts from
        # the *decoded* reference.
        codec = H264LikeCodec(gop=100, quantization=8)
        frames = _synthetic_frames(12)
        quality = [psnr(f, codec.decode(codec.encode(f))) for f in frames]
        assert min(quality[1:]) > min(quality[0], 30.0) - 3.0

    def test_p_frames_much_smaller_than_intra(self):
        frames = _synthetic_frames(10)
        inter = H264LikeCodec(gop=30, quantization=8)
        intra = PngLikeCodec()
        inter_stats = encode_stream(inter, frames, decode=False)
        intra_stats = encode_stream(intra, frames, decode=False)
        # Drop the I-frame from the comparison: steady-state P frames.
        p_bytes = np.mean(inter_stats.frame_bytes[1:])
        i_bytes = np.mean(intra_stats.frame_bytes)
        assert p_bytes < i_bytes / 5

    def test_p_frame_before_i_frame_rejected(self):
        codec = H264LikeCodec(gop=2)
        frames = _synthetic_frames(2)
        codec.encode(frames[0])
        p = codec.encode(frames[1])
        fresh = H264LikeCodec(gop=2)
        with pytest.raises(ValueError):
            fresh.decode(p)

    def test_reset_forces_intra(self):
        codec = H264LikeCodec(gop=100)
        frames = _synthetic_frames(3)
        codec.encode(frames[0])
        assert codec.encode(frames[1]).frame_type == "P"
        codec.reset()
        assert codec.encode(frames[2]).frame_type == "I"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            H264LikeCodec(gop=0)
        with pytest.raises(ValueError):
            H264LikeCodec(quantization=0)

    def test_resolution_change_mid_gop_opens_a_new_gop(self):
        codec = H264LikeCodec(gop=4)
        rng = np.random.default_rng(0)
        large = rng.integers(0, 256, size=(240, 320), dtype=np.uint8)
        small = rng.integers(0, 256, size=(120, 160), dtype=np.uint8)
        types = []
        for frame in (large, large, small, small, small, small, small, large):
            encoded = codec.encode(frame)
            types.append(encoded.frame_type)
            decoded = codec.decode(encoded)
            assert decoded.shape == frame.shape
            assert np.array_equal(decoded, codec._reference)
        # The new resolution starts a full GOP of its own.
        assert types == ["I", "P", "I", "P", "P", "P", "I", "I"]

    def test_p_frame_of_another_shape_than_the_reference_rejected(self):
        codec = H264LikeCodec(gop=4)
        rng = np.random.default_rng(1)
        codec.encode(rng.integers(0, 256, size=(120, 160), dtype=np.uint8))
        p = codec.encode(rng.integers(0, 256, size=(120, 160), dtype=np.uint8))
        decoder = H264LikeCodec(gop=4)
        decoder.decode(H264LikeCodec(gop=4).encode(
            rng.integers(0, 256, size=(240, 320), dtype=np.uint8)))
        with pytest.raises(ValueError, match=r"\(120, 160\).*\(240, 320\)"):
            decoder.decode(p)

    @pytest.mark.parametrize("intra", [False, True])
    def test_quantizer_is_float_rounding_for_every_step(self, intra):
        # Every inter residual and every intra pixel value, every step
        # 1-32 (intra steps are quantization // 4): round(v / q), halves
        # to even, as the float64 quantizer computed it.
        values = (np.arange(256, dtype=np.uint8) if intra
                  else np.arange(-255, 256, dtype=np.int16))
        for quantization in range(1, 33):
            codec = H264LikeCodec(quantization=quantization)
            q = codec.intra_quantization if intra else quantization
            want = np.round(values.astype(np.int16) / q).astype(np.int16)
            got = codec._quantize(values, intra=intra)
            assert got.dtype == np.int16
            assert np.array_equal(got, want), q

    @pytest.mark.parametrize("shape", [(8, 8), (16, 16), (20, 40)])
    def test_frames_smaller_than_the_motion_search_round_trip(self, shape):
        # Too small for the global search window (and, at 8 x 8, for one
        # block): the P-frames fall back to zero global motion and still
        # decode to the encoder's own reconstruction.
        codec = H264LikeCodec(gop=4, quantization=4)
        base = np.random.default_rng(0).integers(0, 256, size=shape, dtype=np.uint8)
        types = []
        for i in range(5):
            frame = np.roll(base, i, axis=1)
            encoded = codec.encode(frame)
            decoded = codec.decode(encoded)
            types.append(encoded.frame_type)
            assert decoded.shape == shape
            assert np.array_equal(decoded, codec._reference)
            assert psnr(frame, decoded) > 40.0
        assert types == ["I", "P", "P", "P", "I"]


#: SHA-256 of 35 rendered MH04 frames, of their encoded stream and of the
#: decoded frames, computed on 2240608 — the commit before the codec
#: searched one padded reference and landmark patches were drawn once.
#: The stream hash was re-pinned when planes became 8-bit under Z_RLE
#: (it was a25b0887…), and again when every payload gained its 4-byte
#: header CRC (it was 0374ff3e…, which the stream still hashes to with
#: those 4 bytes cut from each frame); the pixel and decoded hashes did
#: not move.
GOLDEN_PIXELS = "83e920dae2313948421bd75256d37771afb8ea968d5898f2c7de67ac8de86b57"
GOLDEN_STREAM = "49c53c23b4251eadfc16a86618a31d922e28159b6138d46eed2689369acce0c3"
GOLDEN_DECODED = "c41da27c03a8a8b65e70815e76b0acd3819a0670b399575bb68b39f8cfb8f82c"


class TestDeviceHalfIsBitExact:
    def test_golden_stream_hashes(self):
        ds = euroc_dataset("MH04", duration=4.0, rate=10.0)
        codec = H264LikeCodec(gop=30, quantization=8)
        pixels, stream, decoded = (hashlib.sha256() for _ in range(3))
        types = ""
        for i in range(35):
            frame = render_frame(
                ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(i),
                rng=np.random.default_rng(1000 + i),
            ).pixels
            encoded = codec.encode(frame)
            types += encoded.frame_type
            pixels.update(frame.tobytes())
            stream.update(encoded.frame_type.encode() + encoded.data)
            decoded.update(codec.decode(encoded).tobytes())
        assert types == "I" + "P" * 29 + "I" + "P" * 4
        assert pixels.hexdigest() == GOLDEN_PIXELS
        assert stream.hexdigest() == GOLDEN_STREAM
        assert decoded.hexdigest() == GOLDEN_DECODED

    @given(
        seed=st.integers(0, 2**32 - 1),
        long_side=st.integers(8, 700), short_side=st.integers(8, 90),
        tall=st.booleans(),
        search_range=st.integers(1, 16), downsample=st.integers(1, 3),
        content=st.sampled_from(["uniform", "levels", "flat", "zeros", "full"]),
        dy=st.integers(-20, 20), dx=st.integers(-20, 20),
    )
    @settings(max_examples=80, deadline=None)
    # Columns of 580 level differences sum to about 2**16, so a uint16
    # column sum would wrap in some windows and not others.
    @example(seed=1, long_side=588, short_side=40, tall=True, search_range=4,
             downsample=1, content="levels", dy=3, dx=-2)
    # 20 rows leave no core to search at a +-16 window.
    @example(seed=2, long_side=700, short_side=20, tall=False, search_range=16,
             downsample=1, content="levels", dy=0, dx=0)
    def test_global_search_matches_the_window_loop(
            self, seed, long_side, short_side, tall, search_range, downsample,
            content, dy, dx):
        # Tall frames at downsample 1 put 255 * rows past uint16; small
        # ones leave no core to search.  Few grey levels, flat frames and
        # constant 0 / 255 pairs tie many windows at equal SAD, so the
        # first-minimum rule decides.
        h, w = (long_side, short_side) if tall else (short_side, long_side)
        rng = np.random.default_rng(seed)
        if content == "uniform":
            reference = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        elif content == "levels":
            reference = (rng.integers(0, 3, size=(h, w)) * 127).astype(np.uint8)
        elif content == "flat":
            reference = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
        else:
            reference = np.full((h, w), 0 if content == "zeros" else 255,
                                dtype=np.uint8)
        frame = np.roll(reference, (dy, dx), axis=(0, 1))
        if content == "zeros":
            frame = 255 - frame     # all 0 against all 255: every SAD maximal
        elif seed % 2:
            frame = (rng.integers(0, 3, size=(h, w)) * 127).astype(np.uint8)
        got = estimate_global_shift(reference, frame, search_range, downsample)
        want = oracles.estimate_global_shift_reference(
            reference, frame, search_range, downsample)
        assert got == want
        assert all(type(v) is int for v in got)

    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(48, 130), w=st.integers(64, 170),
        dy=st.integers(-20, 20), dx=st.integers(-20, 20),
        # One grey level per pixel, or 8 x 8 cells of four levels whose
        # flat interiors tie many candidates at equal SAD.
        cell=st.sampled_from([1, 8]), noise=st.sampled_from([0, 6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_search_and_prediction_match_the_shifted_copy_predictor(
            self, seed, h, w, dy, dx, cell, noise):
        assume(h % 16 and w % 16)
        rng = np.random.default_rng(seed)
        if cell == 1:
            reference = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        else:
            coarse = rng.integers(0, 4, size=(h // cell + 1, w // cell + 1)) * 85
            reference = np.kron(coarse, np.ones((cell, cell), dtype=int))[:h, :w]
            reference = reference.astype(np.uint8)
        frame = oracles.shift_image(reference, dy, dx).astype(np.int16)
        frame += rng.integers(-noise, noise + 1, size=(h, w), dtype=np.int16)
        frame = np.clip(frame, 0, 255).astype(np.uint8)
        # Shifts beyond +-12 pin the global vector at its extreme, so the
        # +-8 ring of ``_candidate_offsets`` reaches +-20.
        global_shift = estimate_global_shift(reference, frame, 12)
        codec = H264LikeCodec()
        want, want_mv = oracles.predict_from_mvs(
            reference, global_shift, None, frame=frame)
        got, got_mv = codec._predict(reference, global_shift, frame=frame)
        assert got_mv.dtype == want_mv.dtype
        assert np.array_equal(got_mv, want_mv)
        assert np.array_equal(got, want)
        decoder_side, _ = codec._predict(reference, global_shift, want_mv)
        assert np.array_equal(
            decoder_side,
            oracles.predict_from_mvs(reference, global_shift, want_mv)[0],
        )


def _split(encoded, block=16, crc=_HEAD_CRC.size):
    """``(header + motion vectors, compressed plane)`` of one payload,
    without the ``crc`` bytes between them (none in the reference's)."""
    h, w = encoded.original_shape
    n_mv = 0 if encoded.frame_type == "I" else (h // block) * (w // block)
    return encoded.data[: 4 + n_mv], encoded.data[4 + n_mv + crc :]


def _seal(head, plane):
    """A payload from its parts with a matching header CRC."""
    return bytes(head) + _HEAD_CRC.pack(zlib.crc32(bytes(head))) + plane


def _clip(content, seed, h, w, n):
    """``n`` frames: a noisy pan over one texture, independent noise, or
    all-0 / all-255 frames in turn (every residual at +-255)."""
    rng = np.random.default_rng(seed)
    if content == "extremes":
        return [np.full((h, w), 255 * (i % 2), dtype=np.uint8) for i in range(n)]
    if content == "noise":
        return [rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(n)]
    base = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    frames = []
    for i in range(n):
        moved = np.roll(base, (i, 2 * i), axis=(0, 1)).astype(np.int16)
        moved += rng.integers(-3, 4, size=(h, w), dtype=np.int16)
        frames.append(np.clip(moved, 0, 255).astype(np.uint8))
    return frames


@functools.lru_cache(maxsize=None)
def _rendered(trace, n=12):
    ds = (kitti_dataset(trace, duration=2.0, rate=10.0) if trace.startswith("KITTI")
          else euroc_dataset(trace, duration=2.0, rate=10.0))
    return tuple(
        render_frame(ds.world.positions, ds.world.ids, ds.camera, ds.pose_cw(i),
                     rng=np.random.default_rng(500 + i)).pixels
        for i in range(n)
    )


class TestPlaneWidth:
    """Each plane is entropy-coded at the width its quantizer guarantees:
    I planes as uint8, P planes as int8 from q = 3 and as int16 below,
    and every frame decodes to what the int16 stream decoded to."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(8, 72), w=st.integers(8, 96),
        gop=st.integers(1, 6), q=st.integers(1, 16), n=st.integers(2, 7),
        content=st.sampled_from(["pan", "noise", "extremes"]),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=0, h=32, w=48, gop=8, q=3, n=4, content="extremes")
    @example(seed=0, h=32, w=48, gop=8, q=2, n=4, content="extremes")
    def test_same_frames_as_the_int16_stream(self, seed, h, w, gop, q, n, content):
        live = H264LikeCodec(gop=gop, quantization=q)
        reference = oracles.H264LikeCodecReference(gop=gop, quantization=q)
        for frame in _clip(content, seed, h, w, n):
            got, want = live.encode(frame), reference.encode(frame)
            assert got.frame_type == want.frame_type
            assert np.array_equal(live.decode(got), reference.decode(want))
            got_head, got_plane = _split(got)
            want_head, want_plane = _split(want, crc=0)
            assert got_head == want_head
            intra = got.frame_type == "I"
            width = np.uint8 if intra else (np.int8 if q >= 3 else "<i2")
            values = np.frombuffer(zlib.decompress(got_plane), dtype=width)
            assert values.size == h * w
            assert np.array_equal(
                values, np.frombuffer(zlib.decompress(want_plane), dtype="<i2"))
            if not intra and q <= 2:
                assert got.data == _seal(want_head, want_plane)

    @pytest.mark.parametrize("trace", ["MH04", "V202", "KITTI-00"])
    def test_no_frame_type_grows_on_rendered_clips(self, trace):
        frames = _rendered(trace)
        for q in (2, 4, 8):
            sizes = {}
            for codec, crc in (
                    (H264LikeCodec(gop=6, quantization=q), _HEAD_CRC.size),
                    (oracles.H264LikeCodecReference(gop=6, quantization=q), 0)):
                # The entropy stage is compared; the header CRC the live
                # codec adds is a fixed 4 bytes the reference lacks.
                for encoded in map(codec.encode, frames):
                    sizes.setdefault((type(codec), encoded.frame_type), []).append(
                        encoded.n_bytes - crc)
            for frame_type in "IP":
                got = np.mean(sizes[H264LikeCodec, frame_type])
                want = np.mean(sizes[oracles.H264LikeCodecReference, frame_type])
                assert got <= want, (q, frame_type, got, want)


def _i_and_p(shape=(48, 64)):
    """A decoder that has decoded one I-frame, plus that I-frame and the
    P-frame that follows it."""
    frames = _clip("pan", 3, *shape, 2)
    encoder, decoder = H264LikeCodec(gop=4), H264LikeCodec(gop=4)
    i_frame, p_frame = encoder.encode(frames[0]), encoder.encode(frames[1])
    decoder.decode(i_frame)
    return decoder, i_frame, p_frame


class TestDamagedPayload:
    def test_every_prefix_is_rejected(self):
        decoder, i_frame, p_frame = _i_and_p()
        assert p_frame.frame_type == "P"
        for encoded in (i_frame, p_frame):
            for n in range(len(encoded.data)):
                with pytest.raises(ValueError):
                    decoder.decode(dataclasses.replace(encoded, data=encoded.data[:n]))
        # A rejected payload leaves the decoder's reference alone.
        decoder.decode(p_frame)

    @pytest.mark.parametrize("damage", ["mv_negative", "mv_past_the_list",
                                        "plane_short", "plane_long"])
    def test_out_of_range_payload_is_rejected(self, damage):
        decoder, _, p_frame = _i_and_p()
        head, plane = _split(p_frame)
        head = bytearray(head)
        if damage == "mv_negative":
            head[4] = 0xFF
        elif damage == "mv_past_the_list":
            head[4] = len(_candidate_offsets(struct.unpack("<hh", head[:4])))
        else:
            values = zlib.decompress(plane)
            values = values[:-1] if damage == "plane_short" else values + b"\0"
            plane = zlib.compress(values)
        with pytest.raises(ValueError, match="corrupt video payload"):
            decoder.decode(dataclasses.replace(p_frame, data=_seal(head, plane)))

    def test_every_bit_flip_in_the_header_is_rejected(self):
        # Without the CRC, 32 flips of the shift header and 68 of the
        # vectors of this P-frame decoded silently to a wrong picture.
        decoder, _, p_frame = _i_and_p()
        head, _ = _split(p_frame)
        checked = len(head) + _HEAD_CRC.size
        for byte in range(checked):
            for bit in range(8):
                damaged = bytearray(p_frame.data)
                damaged[byte] ^= 1 << bit
                with pytest.raises(ValueError, match="checksum mismatch"):
                    decoder.decode(dataclasses.replace(p_frame, data=bytes(damaged)))
        # A rejected payload leaves the decoder's reference alone.
        decoder.decode(p_frame)

    def test_header_crc_costs_four_bytes_a_frame(self):
        for encoded in _i_and_p()[1:]:
            head, plane = _split(encoded)
            assert len(encoded.data) == len(head) + 4 + len(plane)


class TestStreamStats:
    def test_bitrate_computation(self):
        stats = StreamStats()
        codec = H264LikeCodec()
        for frame in _synthetic_frames(5):
            stats.record(codec.encode(frame))
        assert stats.n_frames == 5
        # bitrate = mean bytes * 8 * fps
        assert stats.bitrate_bps(30.0) == pytest.approx(
            stats.total_bytes / stats.n_frames * 8 * 30.0
        )

    def test_video_vs_image_bandwidth_gap(self):
        # The Table 3 effect: inter coding cuts bandwidth several-fold on
        # a panning sequence even with our simple entropy stage (real
        # H.264 adds transform + arithmetic coding for a ~70x total gap).
        frames = _synthetic_frames(15)
        video = encode_stream(H264LikeCodec(gop=30, quantization=8), frames,
                              decode=False)
        images = encode_stream(PngLikeCodec(), frames, decode=False)
        assert video.bitrate_bps(30) < images.bitrate_bps(30) / 4

    def test_psnr_identical_is_inf(self):
        frame = np.zeros((8, 8), dtype=np.uint8)
        assert psnr(frame, frame) == float("inf")
