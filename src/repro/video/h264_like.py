"""Inter-frame video codec ("H.264-like").

Captures the two properties of H.264 that matter for SLAM-Share's
uplink (§4.2.3): *temporal prediction* (consecutive frames are nearly
identical) and *motion compensation* (a panning camera shifts content
coherently, so predicting from a motion-shifted reference leaves tiny
residuals).  The pipeline per P-frame is

    global motion search (SAD over a +-search_range pixel window,
    evaluated on a downsampled pair)  ->  per-block motion search
    around it  ->  motion-compensated residual  ->  dead-zone
    quantization  ->  DEFLATE entropy coding of the plane at the width
    the quantizer guarantees (bytes under run-length DEFLATE from q = 3)

with an intra (I) frame opening every GOP, and at any change of frame
size.  Each stage runs as a few whole-array passes: the global search
scores every ``dy`` of one ``dx`` in one uint8 pass over a strided stack
of row windows; block search and prediction share one edge-padded copy
of the reference, so every candidate vector is a slice of it, its block
SADs land in reused buffers, and the predicted frame is one gather of
block windows; the quantizer rounds in integers.  Quantization makes it
mildly lossy like real H.264; tests pin the reconstruction PSNR high
above feature-detection noise, so ATE is unaffected (Table 3).

A payload is the ``(dy, dx)`` shift header, a P-frame's per-block
motion-vector indices, a CRC-32 of those bytes and the DEFLATE stream,
whose own Adler-32 covers the plane: :meth:`H264LikeCodec.decode`
refuses a damaged header or vector instead of predicting from it.
"""

from __future__ import annotations

import struct
import time
import zlib
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .codec import EncodedFrame, VideoCodec

_SHIFT_HEADER = struct.Struct("<hh")
# CRC-32 of everything before the DEFLATE stream (shift header and, on a
# P-frame, the motion vectors); the stream carries its own Adler-32.
_HEAD_CRC = struct.Struct("<I")


def estimate_global_shift(
    reference: np.ndarray, frame: np.ndarray, search_range: int = 8,
    downsample: int = 2,
) -> Tuple[int, int]:
    """Integer (dy, dx) minimizing SAD between frame and shifted reference.

    The search runs on a decimated pair (cheap) and the result is scaled
    back up — the classic coarse motion-search shortcut.  Ties go to the
    first window in (dy, dx) row-major order.

    One pass per ``dx``: the reference columns that ``dx`` lines up with
    the core are copied once into a contiguous buffer, and its ``dy`` row
    windows are one zero-copy strided stack over that buffer, so each
    pass is one uint8 ``|core - window|`` over every ``dy`` and one
    rows-first reduction.
    """
    ref = reference[::downsample, ::downsample]
    cur = frame[::downsample, ::downsample]
    r = max(search_range // downsample, 1)
    h, w = cur.shape
    core = np.ascontiguousarray(cur[r : h - r, r : w - r])
    if core.size == 0:   # frame too small to search: no global motion
        return 0, 0
    n = 2 * r + 1
    rows, cols = core.shape
    # Content that moved down by dy sits at ref[y - dy]; evaluating
    # ref[y - dy] against cur[y] makes the winning (dy, dx) the amount the
    # reference moves down/right in ``_predict``.  Window k is ``dy = k - r``
    # and starts at buffer row ``2r - k``, hence the negative stride.
    shifted = np.empty((h, cols), dtype=np.uint8)
    windows = as_strided(
        shifted[2 * r :], shape=(n, rows, cols),
        strides=(-shifted.strides[0],) + shifted.strides, writeable=False,
    )
    diff = np.empty((n, rows, cols), dtype=np.uint8)
    low = np.empty_like(diff)
    # A column of |differences| sums to <= 255 * rows.
    column_dtype = np.uint16 if 255 * rows <= np.iinfo(np.uint16).max else np.uint32
    column_sad = np.empty((n, cols), dtype=column_dtype)
    sad = np.empty((n, n), dtype=np.int64)    # [dy, dx], the scan order
    for j, dx in enumerate(range(-r, r + 1)):
        np.copyto(shifted, ref[:, r - dx : w - r - dx])
        np.maximum(core, windows, out=diff)
        np.minimum(core, windows, out=low)
        np.subtract(diff, low, out=diff)
        np.add.reduce(diff, axis=1, dtype=column_dtype, out=column_sad)
        np.add.reduce(column_sad, axis=1, dtype=np.int64, out=sad[:, j])
    # argmin keeps the first minimum of the row-major grid.
    dy, dx = divmod(int(sad.argmin()), n)
    return (dy - r) * downsample, (dx - r) * downsample


def _candidate_offsets(global_shift: Tuple[int, int]) -> list:
    """Per-block motion candidates: zero, global, and a ring around it."""
    gy, gx = global_shift
    # Dense +-3 box around the global vector (parallax is 2-D), plus a
    # sparse far ring for fast-moving near content.
    ring = [(dy, dx) for dy in range(-3, 4) for dx in range(-3, 4)]
    ring += [
        (5, 0), (-5, 0), (0, 5), (0, -5), (5, 5), (-5, -5), (5, -5), (-5, 5),
        (8, 0), (-8, 0), (0, 8), (0, -8),
    ]
    candidates = [(0, 0)] + [(gy + dy, gx + dx) for dy, dx in ring]
    # Deduplicate preserving order.
    return list(dict.fromkeys(candidates))


class H264LikeCodec(VideoCodec):
    """GOP-structured, motion-compensated delta codec."""

    def __init__(
        self,
        gop: int = 30,
        quantization: int = 4,
        compression_level: int = 6,
        search_range: int = 12,
        block: int = 16,
    ) -> None:
        if gop < 1:
            raise ValueError("GOP length must be >= 1")
        if quantization < 1:
            raise ValueError("quantization step must be >= 1")
        self.gop = gop
        self.quantization = quantization
        self.compression_level = compression_level
        self.search_range = search_range
        self.block = block
        self._reference: Optional[np.ndarray] = None   # encoder state
        self._decoded_reference: Optional[np.ndarray] = None
        self._frame_index = 0

    def reset(self) -> None:
        self._reference = None
        self._decoded_reference = None
        self._frame_index = 0

    @property
    def intra_quantization(self) -> int:
        """I-frames quantize finer: a coarse intra plateau would leave a
        DC offset that every P-frame in the GOP pays for again."""
        return max(self.quantization // 4, 1)

    def _quantize(self, values: np.ndarray, intra: bool = False) -> np.ndarray:
        """``round(values / q)``, halves to even, in integer arithmetic.

        With ``values = q * floor + rem`` and ``0 <= rem < q``, the quotient
        rounds up when ``rem > q - rem``, and on the tie ``rem == q - rem``
        only when ``floor`` is odd — exactly what ``np.round`` does to the
        float quotient.
        """
        q = self.intra_quantization if intra else self.quantization
        values = values.astype(np.int16 if q <= np.iinfo(np.int16).max else np.int64)
        floor = values // q
        rem = values - floor * q   # exact even where floor * q wraps
        floor += (rem + (floor & 1)) > q - rem
        return floor.astype(np.int16, copy=False)

    def _dequantize(self, values: np.ndarray, intra: bool = False) -> np.ndarray:
        q = self.intra_quantization if intra else self.quantization
        return values.astype(np.int16) * q

    def _plane_dtype(self, intra: bool) -> np.dtype:
        """The narrowest dtype that holds every quantized value of a plane.

        Both sides derive it from the shared step, so the stream carries no
        width flag.  An I plane quantizes ``uint8`` pixels by a step >= 1,
        so it stays in 0..255.  A P residual lies in -255..255, so its
        quantized values lie within +-round(255 / q): ``int8`` from q = 3.
        """
        if intra:
            return np.dtype(np.uint8)
        return np.dtype(np.int8 if round(255 / self.quantization) <= 127 else "<i2")

    def _deflate(self, plane: np.ndarray) -> bytes:
        """DEFLATE one plane; byte planes use the run-length strategy.

        Z_RLE finds the zero runs of a byte plane at a fraction of the
        default strategy's cost and in fewer bytes; on 16-bit planes it
        does worse, so they keep the default.
        """
        if plane.dtype.itemsize == 1:
            packer = zlib.compressobj(
                self.compression_level, zlib.DEFLATED, 15, 8, zlib.Z_RLE
            )
            return packer.compress(plane) + packer.flush()
        return zlib.compress(plane, self.compression_level)

    def encode(self, frame: np.ndarray) -> EncodedFrame:
        frame = np.ascontiguousarray(frame, dtype=np.uint8)
        start = time.perf_counter()
        if self._reference is not None and frame.shape != self._reference.shape:
            self._frame_index = 0   # a new resolution opens a new GOP
        intra = self._reference is None or self._frame_index % self.gop == 0
        if intra:
            quantized = self._quantize(frame, intra=True)
            reconstructed = np.clip(
                self._dequantize(quantized, intra=True), 0, 255
            ).astype(np.uint8)
            header = _SHIFT_HEADER.pack(0, 0)
            frame_type = "I"
        else:
            global_shift = estimate_global_shift(
                self._reference, frame, self.search_range
            )
            predicted, mv_idx = self._predict(self._reference, global_shift, frame=frame)
            residual = frame.astype(np.int16) - predicted.astype(np.int16)
            quantized = self._quantize(residual)
            reconstructed = np.clip(
                predicted.astype(np.int16) + self._dequantize(quantized), 0, 255
            ).astype(np.uint8)
            header = _SHIFT_HEADER.pack(*global_shift) + mv_idx.tobytes()
            frame_type = "P"
        data = header + _HEAD_CRC.pack(zlib.crc32(header)) + self._deflate(
            quantized.astype(self._plane_dtype(intra), copy=False)
        )
        # Closed-loop prediction: reference is the *decoded* frame, so the
        # encoder and decoder never drift apart.
        self._reference = reconstructed
        self._frame_index += 1
        return EncodedFrame(
            data=data,
            frame_type=frame_type,
            encode_time_s=time.perf_counter() - start,
            original_shape=frame.shape,
        )

    def _predict(self, reference: np.ndarray, global_shift,
                 mv_idx=None, frame=None) -> tuple:
        """Build the motion-compensated prediction.

        With ``mv_idx=None`` (encoder) the best per-block candidate is
        searched against ``frame``; otherwise (decoder) the transmitted
        indices select the candidates directly — both sides share the
        same candidate list derived from the global shift.

        The reference is edge-padded once by the largest offset; moved by
        ``(dy, dx)`` it is the view
        ``padded[pad - dy : pad - dy + h, pad - dx : pad - dx + w]``, so the
        search copies nothing and the prediction is one gather of windows.
        """
        h, w = reference.shape
        block = self.block
        bh, bw = h // block, w // block
        crop_h, crop_w = bh * block, bw * block
        offsets = np.array(_candidate_offsets(tuple(global_shift)))
        pad = int(np.abs(offsets).max())
        padded = np.pad(reference, pad, mode="edge")
        if mv_idx is None:
            cur = frame[:crop_h, :crop_w]
            # Block SAD, rows first so the strided reduction runs on the
            # short axis: a block column sums to <= 255 * block and a
            # block to <= 255 * block**2, which fits uint16 at 16 x 16.
            n = len(offsets)
            columns = np.empty((n, bh, crop_w), dtype=np.uint16)
            diff = np.empty((crop_h, crop_w), dtype=np.uint8)
            low = np.empty_like(diff)
            diff_rows = diff.reshape(bh, block, crop_w)
            for idx, (dy, dx) in enumerate(offsets.tolist()):
                moved = padded[pad - dy : pad - dy + crop_h,
                               pad - dx : pad - dx + crop_w]
                np.maximum(cur, moved, out=diff)
                np.minimum(cur, moved, out=low)
                np.subtract(diff, low, out=diff)
                np.add.reduce(diff_rows, axis=1, dtype=np.uint16, out=columns[idx])
            block_dtype = np.uint16 if 255 * block**2 <= np.iinfo(np.uint16).max else np.uint32
            sad = np.add.reduce(columns.reshape(n, bh, bw, block), axis=3,
                                dtype=block_dtype)
            # argmin keeps the first minimum: earlier candidates win ties.
            mv_idx = sad.argmin(axis=0).astype(np.int8)
        # The global shift covers the right/bottom remainder outside the
        # block grid; each block is then the block-sized window of the
        # padded reference that starts at its corner minus its vector.
        gy, gx = global_shift
        predicted = padded[pad - gy : pad - gy + h, pad - gx : pad - gx + w].copy()
        if mv_idx.size:
            dy, dx = offsets[mv_idx].transpose(2, 0, 1)
            tiles = sliding_window_view(padded, (block, block))[
                np.arange(pad, pad + crop_h, block)[:, None] - dy,
                np.arange(pad, pad + crop_w, block) - dx,
            ]
            predicted[:crop_h, :crop_w] = tiles.transpose(0, 2, 1, 3).reshape(crop_h, crop_w)
        return predicted, mv_idx

    def _mv_bytes(self, shape) -> int:
        h, w = shape
        return (h // self.block) * (w // self.block)

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Decode one frame; a damaged payload raises ``ValueError``."""
        if encoded.frame_type not in ("I", "P"):
            raise ValueError(f"unknown frame type {encoded.frame_type!r}")
        data = encoded.data
        shape = encoded.original_shape
        intra = encoded.frame_type == "I"
        n_mv = 0 if intra else self._mv_bytes(shape)
        offset = _SHIFT_HEADER.size + n_mv
        if len(data) < offset + _HEAD_CRC.size:
            raise ValueError("corrupt video payload: truncated header")
        if _HEAD_CRC.unpack_from(data, offset)[0] != zlib.crc32(data[:offset]):
            raise ValueError("corrupt video payload: header checksum mismatch")
        dy, dx = _SHIFT_HEADER.unpack_from(data, 0)
        if not intra:
            mv_idx = np.frombuffer(
                data, dtype=np.int8, count=n_mv, offset=_SHIFT_HEADER.size
            ).reshape(shape[0] // self.block, shape[1] // self.block)
            n_candidates = len(_candidate_offsets((dy, dx)))
            if mv_idx.size and (mv_idx.min() < 0 or mv_idx.max() >= n_candidates):
                raise ValueError("corrupt video payload: motion vector out of range")
        offset += _HEAD_CRC.size
        dtype = self._plane_dtype(intra)
        try:
            plane = zlib.decompress(data[offset:])
        except zlib.error as err:
            raise ValueError("corrupt video payload") from err
        if len(plane) != shape[0] * shape[1] * dtype.itemsize:
            raise ValueError("corrupt video payload: wrong plane size")
        quantized = np.frombuffer(plane, dtype=dtype).reshape(shape)
        if intra:
            frame = np.clip(self._dequantize(quantized, intra=True), 0, 255).astype(
                np.uint8
            )
        else:
            if self._decoded_reference is None:
                raise ValueError("P-frame received before any I-frame")
            if self._decoded_reference.shape != encoded.original_shape:
                raise ValueError(
                    f"P-frame of shape {encoded.original_shape} does not match "
                    f"the decoded reference of shape {self._decoded_reference.shape}"
                )
            predicted, _ = self._predict(self._decoded_reference, (dy, dx), mv_idx)
            frame = np.clip(
                predicted.astype(np.int16) + self._dequantize(quantized), 0, 255
            ).astype(np.uint8)
        self._decoded_reference = frame
        return frame
