"""Disk snapshots of the shared map store (long-lived maps).

A snapshot makes the global map durable across server restarts: the
multi-user payoff is a client joining hours later relocalizing into the
persisted map through the ordinary place-recognition path instead of
mapping from scratch.

On-disk layout — a directory, so per-shard files can be written (and
later read) independently::

    <path>/
        MANIFEST.json       version, counts, per-shard byte sizes + CRCs
        shard-0000.bin      framed records, same packing as the shm log
        shard-0001.bin
        ...

Each shard file is one framed stream of
:mod:`repro.sharedmem.records` (:func:`~repro.sharedmem.records.frame_records`):
``(kind u32 | flags u32 | entity_id u64 | size u64)`` frames, each
followed by its packed keyframe / map-point record.  The records are
those of the store's shard logs, but the files hold only live records
(no tombstones, no superseded versions) and do not pad a record to 8
bytes as the logs do.

Writes are atomic at the directory level: everything lands in
``<path>.tmp`` first, the manifest is written last (a directory without
a readable manifest is not a snapshot), and a final ``os.replace``
publishes the snapshot under its real name.  A crash leaves either the
previous snapshot or a ``.tmp`` leftover, never a half-readable one.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .records import frame_records, walk_records

SNAPSHOT_MAGIC = "slam-share-map-snapshot"
# 2: keyframe records carry uv / depths as <f8 (v1 wrote <f4).
SNAPSHOT_VERSION = 2
MANIFEST_NAME = "MANIFEST.json"


class SnapshotError(RuntimeError):
    """A snapshot directory is missing, corrupt or from another version."""


@dataclass(frozen=True)
class SnapshotInfo:
    """What a save wrote (or a load found)."""

    path: str
    n_keyframes: int
    n_mappoints: int
    n_shards: int
    bytes_written: int


@dataclass
class LoadedSnapshot:
    """A snapshot parsed back into map entities."""

    manifest: Dict
    keyframes: List[KeyFrame]
    mappoints: List[MapPoint]

    @property
    def info(self) -> SnapshotInfo:
        return SnapshotInfo(
            path=self.manifest.get("path", ""),
            n_keyframes=len(self.keyframes),
            n_mappoints=len(self.mappoints),
            n_shards=self.manifest["n_shards"],
            bytes_written=sum(s["bytes"] for s in self.manifest["shards"]),
        )


def save_snapshot(
    store,
    path: str,
    keyframe_ids: Optional[Iterable[int]] = None,
    mappoint_ids: Optional[Iterable[int]] = None,
) -> SnapshotInfo:
    """Write the store's live records to ``path`` (a directory).

    ``keyframe_ids`` / ``mappoint_ids`` filter what is persisted — the
    server passes the global map's entity sets so records published by
    not-yet-merged clients (whose geometry is still in a private frame)
    stay out of the durable map.
    """
    n_shards = store.n_shards
    kf_filter = None if keyframe_ids is None else {int(i) for i in keyframe_ids}
    mp_filter = None if mappoint_ids is None else {int(i) for i in mappoint_ids}
    per_shard = {i: ([], []) for i in range(n_shards)}
    n_kf = n_mp = 0
    for kf_id in store.keyframe_ids():
        if kf_filter is not None and int(kf_id) not in kf_filter:
            continue
        kf = store.get_keyframe(kf_id)
        if kf is None:
            continue
        per_shard[store.shard_of_keyframe(kf)][0].append(kf)
        n_kf += 1
    for pid in store.mappoint_ids():
        if mp_filter is not None and int(pid) not in mp_filter:
            continue
        point = store.get_mappoint(pid)
        if point is None:
            continue
        per_shard[store.shard_of_mappoint(point)][1].append(point)
        n_mp += 1

    tmp = path.rstrip(os.sep) + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    shards_meta = []
    total = 0
    for index in range(n_shards):
        data = frame_records(*per_shard[index])
        name = f"shard-{index:04d}.bin"
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(data)
        shards_meta.append({
            "shard": index,
            "file": name,
            "bytes": len(data),
            "crc32": zlib.crc32(data),
        })
        total += len(data)
    manifest = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "n_shards": n_shards,
        "n_keyframes": n_kf,
        "n_mappoints": n_mp,
        "shards": shards_meta,
    }
    # Manifest last: its presence is the commit record for the tmp dir.
    with open(os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if os.path.exists(path):
        shutil.rmtree(path)
    os.replace(tmp, path)
    return SnapshotInfo(
        path=path, n_keyframes=n_kf, n_mappoints=n_mp,
        n_shards=n_shards, bytes_written=total,
    )


def load_snapshot(path: str) -> LoadedSnapshot:
    """Read and verify a snapshot directory back into entities."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise SnapshotError(f"no snapshot manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a map snapshot")
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {manifest.get('version')} unsupported "
            f"(code reads v{SNAPSHOT_VERSION})"
        )
    manifest["path"] = path
    keyframes: List[KeyFrame] = []
    mappoints: List[MapPoint] = []
    for meta in manifest["shards"]:
        file_path = os.path.join(path, meta["file"])
        with open(file_path, "rb") as fh:
            data = fh.read()
        if len(data) != meta["bytes"] or zlib.crc32(data) != meta["crc32"]:
            raise SnapshotError(f"corrupt snapshot shard {meta['file']}")
        try:
            shard_kfs, shard_points = walk_records(data)
        except ValueError as err:
            raise SnapshotError(
                f"corrupt snapshot shard {meta['file']}: {err}"
            ) from err
        keyframes += shard_kfs
        mappoints += shard_points
    return LoadedSnapshot(manifest=manifest, keyframes=keyframes,
                          mappoints=mappoints)


def restore_into_store(snapshot: LoadedSnapshot, store) -> int:
    """Publish every snapshot entity into a (fresh) store; returns bytes."""
    return store.publish_map(snapshot.keyframes, snapshot.mappoints)
