"""Packed record layouts for keyframes and map points.

A record is written once into a shard log of the map arena
(:mod:`repro.sharedmem.arena`) and read back as numpy *views* over the
same bytes — the zero-copy access pattern §4.3.2 relies on ("once a
data structure is initialized in shared memory, it can be accessed by
all cooperating client processes").

Layouts (little-endian, 8-byte aligned):

KeyFrame record::

    u64 keyframe_id | u64 client_id | f64 timestamp | u32 n_features |
    u32 n_bow | f64[12] pose (R row-major, t) | f32[n,2] uv |
    u8[n,32] descriptors | f32[n] depths | i64[n] point_ids |
    (u32 word, f64 weight)[n_bow]

MapPoint record::

    u64 point_id | u64 client_id | u32 n_obs | u32 pad |
    f64[3] position | u8[32] descriptor | u32 visible | u32 found |
    (u64 kf_id, u32 feat_idx, u32 pad)[n_obs]

Where records are stored back to back (every store's shard logs,
snapshot shard files) each is preceded by a :data:`RECORD_FRAME`::

    u32 kind | u32 flags | u64 entity_id | u64 size
"""

from __future__ import annotations

import struct

import numpy as np

from ..geometry import SE3
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from ..vision.brief import DESCRIPTOR_BYTES

RECORD_FRAME = struct.Struct("<IIQQ")  # kind, flags, entity_id, size
KIND_KEYFRAME = 1
KIND_MAPPOINT = 2

_KF_HEADER = struct.Struct("<QQdII")
_MP_HEADER = struct.Struct("<QQII")
_BOW_ENTRY = struct.Struct("<Id")
_OBS_ENTRY = struct.Struct("<QII4x")


def keyframe_record_size(n_features: int, n_bow: int) -> int:
    return (
        _KF_HEADER.size
        + 12 * 8                       # pose
        + n_features * (2 * 4)         # uv
        + n_features * DESCRIPTOR_BYTES
        + n_features * 4               # depths
        + n_features * 8               # point ids
        + n_bow * _BOW_ENTRY.size
    )


def write_keyframe_record(view: memoryview, kf: KeyFrame) -> int:
    """Pack a keyframe into ``view``; returns bytes written."""
    n = len(kf)
    n_bow = len(kf.bow_vector)
    offset = 0
    _KF_HEADER.pack_into(view, offset, kf.keyframe_id, kf.client_id,
                         kf.timestamp, n, n_bow)
    offset += _KF_HEADER.size
    pose = np.empty(12)
    pose[:9] = kf.pose_cw.rotation.reshape(-1)
    pose[9:] = kf.pose_cw.translation
    view[offset : offset + 96] = pose.astype("<f8").tobytes()
    offset += 96
    for arr, dtype in (
        (kf.uv, "<f4"),
        (kf.descriptors, "u1"),
        (kf.depths, "<f4"),
        (kf.point_ids, "<i8"),
    ):
        raw = np.ascontiguousarray(arr).astype(dtype).tobytes()
        view[offset : offset + len(raw)] = raw
        offset += len(raw)
    for word, weight in kf.bow_vector.items():
        _BOW_ENTRY.pack_into(view, offset, word, weight)
        offset += _BOW_ENTRY.size
    return offset


def read_keyframe_record(view: memoryview) -> KeyFrame:
    """Unpack a keyframe; array fields are views where dtypes allow."""
    kf_id, client_id, timestamp, n, n_bow = _KF_HEADER.unpack_from(view, 0)
    offset = _KF_HEADER.size
    pose = np.frombuffer(view, dtype="<f8", count=12, offset=offset)
    offset += 96
    uv = np.frombuffer(view, dtype="<f4", count=n * 2, offset=offset).reshape(n, 2)
    offset += n * 8
    descriptors = np.frombuffer(
        view, dtype="u1", count=n * DESCRIPTOR_BYTES, offset=offset
    ).reshape(n, DESCRIPTOR_BYTES)
    offset += n * DESCRIPTOR_BYTES
    depths = np.frombuffer(view, dtype="<f4", count=n, offset=offset)
    offset += n * 4
    point_ids = np.frombuffer(view, dtype="<i8", count=n, offset=offset)
    offset += n * 8
    bow = {}
    for _ in range(n_bow):
        word, weight = _BOW_ENTRY.unpack_from(view, offset)
        bow[word] = weight
        offset += _BOW_ENTRY.size
    return KeyFrame(
        keyframe_id=kf_id,
        timestamp=timestamp,
        pose_cw=SE3(pose[:9].reshape(3, 3).copy(), pose[9:].copy()),
        uv=uv.astype(float),
        descriptors=descriptors.copy(),
        depths=depths.astype(float),
        point_ids=point_ids.copy(),
        client_id=client_id,
        bow_vector=bow,
    )


def mappoint_record_size(n_obs: int) -> int:
    return (
        _MP_HEADER.size
        + 3 * 8
        + DESCRIPTOR_BYTES
        + 8  # visible/found
        + n_obs * _OBS_ENTRY.size
    )


def write_mappoint_record(view: memoryview, point: MapPoint) -> int:
    n_obs = len(point.observations)
    offset = 0
    _MP_HEADER.pack_into(view, offset, point.point_id, point.client_id, n_obs, 0)
    offset += _MP_HEADER.size
    view[offset : offset + 24] = point.position.astype("<f8").tobytes()
    offset += 24
    view[offset : offset + DESCRIPTOR_BYTES] = point.descriptor.tobytes()
    offset += DESCRIPTOR_BYTES
    struct.pack_into("<II", view, offset, point.times_visible, point.times_found)
    offset += 8
    for kf_id, feat_idx in point.observations.items():
        _OBS_ENTRY.pack_into(view, offset, kf_id, feat_idx, 0)
        offset += _OBS_ENTRY.size
    return offset


def read_mappoint_record(view: memoryview) -> MapPoint:
    point_id, client_id, n_obs, _pad = _MP_HEADER.unpack_from(view, 0)
    offset = _MP_HEADER.size
    position = np.frombuffer(view, dtype="<f8", count=3, offset=offset).copy()
    offset += 24
    descriptor = np.frombuffer(
        view, dtype="u1", count=DESCRIPTOR_BYTES, offset=offset
    ).copy()
    offset += DESCRIPTOR_BYTES
    visible, found = struct.unpack_from("<II", view, offset)
    offset += 8
    observations = {}
    for _ in range(n_obs):
        kf_id, feat_idx, _ = _OBS_ENTRY.unpack_from(view, offset)
        observations[kf_id] = feat_idx
        offset += _OBS_ENTRY.size
    return MapPoint(
        point_id=point_id,
        position=position,
        descriptor=descriptor,
        client_id=client_id,
        observations=observations,
        times_visible=visible,
        times_found=found,
    )
