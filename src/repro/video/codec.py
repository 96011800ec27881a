"""Codec interface and stream accounting.

SLAM-Share uploads camera frames as an H.264 stream (~1-2 Mbit/s)
instead of individual PNG images (~80-130 Mbit/s), §4.2.3 / Table 3.
We implement both codec families for real — an intra-only filtered
entropy codec ("PNG-like") and an inter-frame delta codec ("H.264-like")
— so the bitrates in the Table 3 reproduction are measured, not
assumed.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class EncodedFrame:
    """One compressed frame plus bookkeeping."""

    data: bytes
    frame_type: str          # "I" (intra) or "P" (predicted)
    encode_time_s: float
    original_shape: Tuple[int, int]

    @property
    def n_bytes(self) -> int:
        return len(self.data)


class VideoCodec(ABC):
    """Stateful encoder/decoder pair for a grayscale stream."""

    @abstractmethod
    def encode(self, frame: np.ndarray) -> EncodedFrame:
        """Compress one frame (uint8 grayscale)."""

    @abstractmethod
    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Reconstruct the frame (decoder state must mirror encoder)."""

    @abstractmethod
    def reset(self) -> None:
        """Drop temporal state (new stream / after loss)."""


@dataclass
class StreamStats:
    """Aggregate statistics of an encoded stream."""

    n_frames: int = 0
    total_bytes: int = 0
    total_encode_s: float = 0.0
    total_decode_s: float = 0.0
    frame_bytes: List[int] = field(default_factory=list)

    def record(self, encoded: EncodedFrame, decode_time_s: float = 0.0) -> None:
        self.n_frames += 1
        self.total_bytes += encoded.n_bytes
        self.total_encode_s += encoded.encode_time_s
        self.total_decode_s += decode_time_s
        self.frame_bytes.append(encoded.n_bytes)

    def bitrate_bps(self, fps: float) -> float:
        """Mean stream bitrate at a target frame rate."""
        if self.n_frames == 0:
            return 0.0
        return 8.0 * self.total_bytes / self.n_frames * fps

    @property
    def mean_encode_ms(self) -> float:
        return 1e3 * self.total_encode_s / max(self.n_frames, 1)

    @property
    def mean_decode_ms(self) -> float:
        return 1e3 * self.total_decode_s / max(self.n_frames, 1)


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio (dB) of a reconstruction."""
    mse = float(
        np.mean(
            (original.astype(np.float64) - reconstructed.astype(np.float64)) ** 2
        )
    )
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)


def encode_stream(
    codec: VideoCodec,
    frames,
    decode: bool = True,
    stats: Optional[StreamStats] = None,
) -> StreamStats:
    """Push frames through a codec, collecting stream statistics."""
    stats = stats or StreamStats()
    for frame in frames:
        encoded = codec.encode(frame)
        decode_time = 0.0
        if decode:
            start = time.perf_counter()
            codec.decode(encoded)
            decode_time = time.perf_counter() - start
        stats.record(encoded, decode_time)
    return stats
