"""The map's one byte format: packed keyframe and map-point records.

A record is written once into a shard log of the map arena
(:mod:`repro.sharedmem.arena`) and read back from the same bytes — the
zero-copy access pattern §4.3.2 relies on ("once a data structure is
initialized in shared memory, it can be accessed by all cooperating
client processes").  The same records, framed back to back, are what a
snapshot shard file holds and what the Edge-SLAM baseline ships over
the network, so this module is the only one that knows how a map is
laid out in bytes.

Every field is stored at the width the in-memory entity holds it
(``uv``, ``depths``, pose, position and BoW weights as float64), so a
record reads back bit for bit as the entity that was written.

Layouts (little-endian; a keyframe record's arrays start 8-aligned):

KeyFrame record::

    u64 keyframe_id | u64 client_id | f64 timestamp | u32 n_features |
    u32 n_bow | f64[12] pose (R row-major, t) | f64[n,2] uv |
    u8[n,32] descriptors | f64[n] depths | i64[n] point_ids |
    (u32 word, f64 weight)[n_bow]

MapPoint record::

    u64 point_id | u64 client_id | u32 n_obs | u32 pad |
    f64[3] position | u8[32] descriptor | u32 visible | u32 found |
    (u64 kf_id, u32 feat_idx, u32 pad)[n_obs]

A *framed stream* (:func:`frame_records` / :func:`walk_records`) is
records back to back, each preceded by a :data:`RECORD_FRAME`, with no
padding::

    u32 kind | u32 flags | u64 entity_id | u64 size

Snapshot shard files are framed streams.  The map wire payload
(:func:`serialize_map`) is a short header followed by one::

    b"SSHM" | u32 version | i64 map_id | u64 stream bytes | stream

The store's shard logs frame the same records but pad each to 8 bytes
and append tombstones (:mod:`repro.sharedmem.arena`).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..geometry import SE3
from ..slam.keyframe import KeyFrame
from ..slam.map import SlamMap
from ..slam.mappoint import MapPoint
from ..vision.brief import DESCRIPTOR_BYTES

RECORD_FRAME = struct.Struct("<IIQQ")  # kind, flags, entity_id, size
KIND_KEYFRAME = 1
KIND_MAPPOINT = 2

MAGIC = b"SSHM"
VERSION = 2
_WIRE_HEADER = struct.Struct("<4sIqQ")  # magic, version, map_id, stream bytes

_KF_HEADER = struct.Struct("<QQdII")
_MP_HEADER = struct.Struct("<QQII")
_BOW_ENTRY = struct.Struct("<Id")
_OBS_ENTRY = struct.Struct("<QII4x")


def keyframe_record_size(n_features: int, n_bow: int) -> int:
    return (
        _KF_HEADER.size
        + 12 * 8                       # pose
        + n_features * (2 * 8)         # uv
        + n_features * DESCRIPTOR_BYTES
        + n_features * 8               # depths
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
        (kf.uv, "<f8"),
        (kf.descriptors, "u1"),
        (kf.depths, "<f8"),
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
    """Unpack a keyframe that fills ``view`` exactly (else ``ValueError``);
    every array is a copy, so nothing aliases the record's bytes."""
    if len(view) < _KF_HEADER.size:
        raise ValueError("keyframe record cut inside its header")
    kf_id, client_id, timestamp, n, n_bow = _KF_HEADER.unpack_from(view, 0)
    if keyframe_record_size(n, n_bow) != len(view):
        raise ValueError(
            f"keyframe {kf_id}: record of {n} features and {n_bow} words "
            f"does not fill its {len(view)} bytes"
        )
    offset = _KF_HEADER.size
    pose = np.frombuffer(view, dtype="<f8", count=12, offset=offset)
    offset += 96
    uv = np.frombuffer(view, dtype="<f8", count=n * 2, offset=offset).reshape(n, 2)
    offset += n * 16
    descriptors = np.frombuffer(
        view, dtype="u1", count=n * DESCRIPTOR_BYTES, offset=offset
    ).reshape(n, DESCRIPTOR_BYTES)
    offset += n * DESCRIPTOR_BYTES
    depths = np.frombuffer(view, dtype="<f8", count=n, offset=offset)
    offset += n * 8
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
        uv=uv.copy(),
        descriptors=descriptors.copy(),
        depths=depths.copy(),
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
    """Unpack a map point that fills ``view`` exactly (else ``ValueError``)."""
    if len(view) < _MP_HEADER.size:
        raise ValueError("map-point record cut inside its header")
    point_id, client_id, n_obs, _pad = _MP_HEADER.unpack_from(view, 0)
    if mappoint_record_size(n_obs) != len(view):
        raise ValueError(
            f"map point {point_id}: record of {n_obs} observations does "
            f"not fill its {len(view)} bytes"
        )
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


# ------------------------------------------------------------ framed stream
def frame_records(keyframes: Iterable[KeyFrame],
                  mappoints: Iterable[MapPoint]) -> bytes:
    """The framed stream of ``keyframes`` then ``mappoints``, in order."""
    entries = [
        (KIND_KEYFRAME, kf.keyframe_id,
         keyframe_record_size(len(kf), len(kf.bow_vector)),
         write_keyframe_record, kf)
        for kf in keyframes
    ] + [
        (KIND_MAPPOINT, point.point_id,
         mappoint_record_size(len(point.observations)),
         write_mappoint_record, point)
        for point in mappoints
    ]
    buf = bytearray(sum(RECORD_FRAME.size + size for _, _, size, _, _ in entries))
    view = memoryview(buf)
    cursor = 0
    for kind, entity_id, size, write, entity in entries:
        RECORD_FRAME.pack_into(buf, cursor, kind, 0, entity_id, size)
        cursor += RECORD_FRAME.size
        write(view[cursor : cursor + size], entity)
        cursor += size
    return bytes(buf)


def walk_records(data) -> Tuple[List[KeyFrame], List[MapPoint]]:
    """Read a framed stream back into ``(keyframes, mappoints)``.

    Every frame is bounds-checked before it is read: a frame cut short,
    a ``size`` that runs past the buffer, an unknown kind, a frame whose
    id is not its record's, or a record that does not fill its frame
    raises ``ValueError``.
    """
    view = memoryview(data)
    end = len(view)
    keyframes: List[KeyFrame] = []
    mappoints: List[MapPoint] = []
    cursor = 0
    while cursor < end:
        if cursor + RECORD_FRAME.size > end:
            raise ValueError(f"record frame cut at byte {cursor} of {end}")
        kind, _flags, entity_id, size = RECORD_FRAME.unpack_from(view, cursor)
        payload = cursor + RECORD_FRAME.size
        if size > end - payload:
            raise ValueError(
                f"record at byte {cursor} claims {size} bytes, "
                f"{end - payload} remain"
            )
        record = view[payload : payload + size]
        if kind == KIND_KEYFRAME:
            entity = read_keyframe_record(record)
            keyframes.append(entity)
            own_id = entity.keyframe_id
        elif kind == KIND_MAPPOINT:
            entity = read_mappoint_record(record)
            mappoints.append(entity)
            own_id = entity.point_id
        else:
            raise ValueError(f"unknown record kind {kind} at byte {cursor}")
        if own_id != entity_id:
            raise ValueError(
                f"frame at byte {cursor} names id {entity_id}, "
                f"its record {own_id}"
            )
        cursor = payload + size
    return keyframes, mappoints


def restore_map(keyframes: Iterable[KeyFrame], mappoints: Iterable[MapPoint],
                slam_map: Optional[SlamMap] = None,
                database=None) -> SlamMap:
    """Rebuild a :class:`SlamMap` (and a BoW database) from records.

    The points go in first, so adding each keyframe grows the
    covisibility graph from the observations the records carry;
    adding the keyframes' stored BoW vectors to ``database`` re-arms
    place recognition — the path a later session's fresh client
    relocalizes through.  Fills ``slam_map`` (a new one if ``None``)
    and returns it.
    """
    slam_map = SlamMap() if slam_map is None else slam_map
    keyframes = list(keyframes)
    for point in mappoints:
        slam_map.add_mappoint(point)
    for kf in keyframes:
        slam_map.add_keyframe(kf)
    if database is not None:
        for kf in keyframes:
            database.add(kf.keyframe_id, kf.bow_vector)
    return slam_map


# -------------------------------------------------------- map wire payload
def serialize_map(slam_map: SlamMap) -> bytes:
    """Flatten a map into one transmittable buffer (the baseline's
    transfer format): the wire header, then keyframes and map points
    framed in id order."""
    stream = frame_records(
        [slam_map.keyframes[i] for i in sorted(slam_map.keyframes)],
        [slam_map.mappoints[i] for i in sorted(slam_map.mappoints)],
    )
    return _WIRE_HEADER.pack(MAGIC, VERSION, slam_map.map_id, len(stream)) + stream


def deserialize_map(data: bytes) -> SlamMap:
    """Rebuild a map (including covisibility) from a serialized buffer;
    a damaged buffer raises ``ValueError``."""
    if len(data) < _WIRE_HEADER.size:
        raise ValueError("truncated map payload")
    magic, version, map_id, n_bytes = _WIRE_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValueError("not a serialized SLAM map (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported map version {version}")
    if n_bytes != len(data) - _WIRE_HEADER.size:
        raise ValueError(
            f"truncated map payload: header says {n_bytes} stream bytes, "
            f"{len(data) - _WIRE_HEADER.size} follow"
        )
    keyframes, mappoints = walk_records(memoryview(data)[_WIRE_HEADER.size:])
    return restore_map(keyframes, mappoints, SlamMap(map_id=map_id))


def map_payload_size(slam_map: SlamMap) -> int:
    """Bytes on the wire for this map (serialized size)."""
    return len(serialize_map(slam_map))
