"""Binary map serialization (the baseline's transfer format).

The Edge-SLAM-style baseline must *serialize* a client's local map,
ship it over the network, and *deserialize* it into the merge process
(paper §5.1, Table 4 rows 2/5).  SLAM-Share's shared-memory design
exists precisely to avoid this; implementing it for real lets the
benchmarks measure the contrast rather than assume it.

Format: little-endian tag-length-value with a magic header.  Numpy
arrays are written raw (dtype-tagged); maps round-trip exactly.
"""

from __future__ import annotations

import struct

import numpy as np

from ..geometry import SE3
from ..slam.keyframe import KeyFrame
from ..slam.map import SlamMap
from ..slam.mappoint import MapPoint

MAGIC = b"SSHM"
VERSION = 1

#: Wire cost of a trace context rider: two u64s (trace_id, span_id).
TRACE_CONTEXT_BYTES = 16

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_TRACE_CTX = struct.Struct("<QQ")


class _Writer:
    def __init__(self) -> None:
        self.chunks = []

    def u32(self, value: int) -> None:
        self.chunks.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.chunks.append(_U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    def f64(self, value: float) -> None:
        self.chunks.append(_F64.pack(value))

    def array(self, arr: np.ndarray) -> None:
        data = np.ascontiguousarray(arr)
        dtype = data.dtype.str.encode()
        self.u32(len(dtype))
        self.chunks.append(dtype)
        self.u32(data.ndim)
        for dim in data.shape:
            self.u32(dim)
        raw = data.tobytes()
        self.u64(len(raw))
        self.chunks.append(raw)

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def raw(self, n: int) -> bytes:
        chunk = self.data[self.offset : self.offset + n]
        if len(chunk) != n:
            raise ValueError("truncated map payload")
        self.offset += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.raw(4))[0]

    def u64(self) -> int:
        value = _U64.unpack(self.raw(8))[0]
        # Recover negative ids (two's complement round trip).
        if value >= 1 << 63:
            value -= 1 << 64
        return value

    def f64(self) -> float:
        return _F64.unpack(self.raw(8))[0]

    def array(self) -> np.ndarray:
        name = self.raw(self.u32()).decode()
        try:
            dtype = np.dtype(name)
        except TypeError:
            raise ValueError("corrupt map payload") from None
        ndim = self.u32()
        shape = tuple(self.u32() for _ in range(ndim))
        n = self.u64()
        return np.frombuffer(self.raw(n), dtype=dtype).reshape(shape).copy()


def _write_keyframe(w: _Writer, kf: KeyFrame) -> None:
    w.u64(kf.keyframe_id)
    w.u64(kf.client_id)
    w.f64(kf.timestamp)
    w.array(kf.pose_cw.rotation)
    w.array(kf.pose_cw.translation)
    w.array(kf.uv)
    w.array(kf.descriptors)
    w.array(kf.depths)
    w.array(kf.point_ids)
    w.u32(len(kf.bow_vector))
    for word, weight in kf.bow_vector.items():
        w.u32(word)
        w.f64(weight)


def _read_keyframe(r: _Reader) -> KeyFrame:
    kf_id = r.u64()
    client_id = r.u64()
    timestamp = r.f64()
    rotation = r.array()
    translation = r.array()
    uv = r.array()
    descriptors = r.array()
    depths = r.array()
    point_ids = r.array()
    bow = {}
    for _ in range(r.u32()):
        word = r.u32()
        bow[word] = r.f64()
    return KeyFrame(
        keyframe_id=kf_id,
        timestamp=timestamp,
        pose_cw=SE3(rotation, translation),
        uv=uv,
        descriptors=descriptors,
        depths=depths,
        point_ids=point_ids,
        client_id=client_id,
        bow_vector=bow,
    )


def _write_mappoint(w: _Writer, point: MapPoint) -> None:
    w.u64(point.point_id)
    w.u64(point.client_id)
    w.array(point.position)
    w.array(point.descriptor)
    w.u32(point.times_visible)
    w.u32(point.times_found)
    w.u32(len(point.observations))
    for kf_id, feat_idx in point.observations.items():
        w.u64(kf_id)
        w.u32(feat_idx)


def _read_mappoint(r: _Reader) -> MapPoint:
    point_id = r.u64()
    client_id = r.u64()
    position = r.array()
    descriptor = r.array()
    times_visible = r.u32()
    times_found = r.u32()
    observations = {}
    for _ in range(r.u32()):
        kf_id = r.u64()
        observations[kf_id] = r.u32()
    point = MapPoint(
        point_id=point_id,
        position=position,
        descriptor=descriptor,
        client_id=client_id,
        observations=observations,
        times_visible=times_visible,
        times_found=times_found,
    )
    return point


def serialize_map(slam_map: SlamMap) -> bytes:
    """Flatten a map into one transmittable buffer."""
    w = _Writer()
    w.chunks.append(MAGIC)
    w.u32(VERSION)
    w.u64(slam_map.map_id)
    w.u32(slam_map.n_keyframes)
    for kf in sorted(slam_map.keyframes.values(), key=lambda k: k.keyframe_id):
        _write_keyframe(w, kf)
    w.u32(slam_map.n_mappoints)
    for point in sorted(slam_map.mappoints.values(), key=lambda p: p.point_id):
        _write_mappoint(w, point)
    return w.getvalue()


def deserialize_map(data: bytes) -> SlamMap:
    """Rebuild a map (including covisibility) from a serialized buffer."""
    r = _Reader(data)
    if r.raw(4) != MAGIC:
        raise ValueError("not a serialized SLAM map (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise ValueError(f"unsupported map version {version}")
    slam_map = SlamMap(map_id=r.u64())
    keyframes = [_read_keyframe(r) for _ in range(r.u32())]
    for _ in range(r.u32()):
        slam_map.add_mappoint(_read_mappoint(r))
    for kf in keyframes:
        slam_map.add_keyframe(kf)
    return slam_map


def map_payload_size(slam_map: SlamMap) -> int:
    """Bytes on the wire for this map (serialized size)."""
    return len(serialize_map(slam_map))


def serialize_trace_context(ctx) -> bytes:
    """Pack a trace context rider (``TRACE_CONTEXT_BYTES`` on the wire).

    Accepts anything exposing ``trace_id``/``span_id`` (normally an
    :class:`repro.obs.TraceContext`); the frame header grows by exactly
    this much when a message carries a trace.
    """
    return _TRACE_CTX.pack(ctx.trace_id, ctx.span_id)


def deserialize_trace_context(data: bytes):
    """Unpack a trace context rider into a live ``TraceContext``."""
    from ..obs.trace import TraceContext

    trace_id, span_id = _TRACE_CTX.unpack_from(data, 0)
    return TraceContext(trace_id, span_id)


def serialize_pose(pose: SE3) -> bytes:
    """The tiny per-frame pose message SLAM-Share returns (a 4x4 matrix)."""
    return pose.matrix().astype("<f8").tobytes()


def deserialize_pose(data: bytes) -> SE3:
    matrix = np.frombuffer(data, dtype="<f8").reshape(4, 4)
    return SE3.from_matrix(matrix)
