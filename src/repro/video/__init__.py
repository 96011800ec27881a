"""Video substrate: intra (PNG-like) and inter (H.264-like) codecs.

The inter codec's motion search and prediction read one edge-padded
reference through views (see :mod:`repro.video.h264_like`).
"""

from .codec import EncodedFrame, StreamStats, VideoCodec, encode_stream, psnr
from .h264_like import H264LikeCodec
from .png_like import PngLikeCodec

__all__ = [
    "EncodedFrame",
    "H264LikeCodec",
    "PngLikeCodec",
    "StreamStats",
    "VideoCodec",
    "encode_stream",
    "psnr",
]
