"""Named synthetic datasets matched to the paper's evaluation traces.

Each factory returns a :class:`SyntheticDataset` whose world and
trajectory mirror the paper's usage:

* ``MH04`` / ``MH05`` — drones lapping the *same* machine-hall world on
  overlapping ellipses (68 s / 2032 frames and 75 s / 2273 frames in
  the paper); their spatial overlap is what makes their maps mergeable.
* ``V202`` — a smaller Vicon-room trace.
* ``KITTI-00`` / ``KITTI-05`` — vehicles driving a street circuit
  (151 s / 4541 frames and 92 s / 2762 frames).  ``KITTI-05`` supports
  a 3-way split via ``start_arclength`` offsets (paper Fig. 10c).

``duration``/``rate`` can be scaled down everywhere: experiments in
this repo default to shortened runs (documented in EXPERIMENTS.md) to
keep pure-Python runtimes reasonable while preserving geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..geometry import SE3, Trajectory
from ..vision import DescriptorBank, FeatureOracle, FeatureSet, PinholeCamera
from ..vision.render import DESCRIPTOR_SEED
from .trajectory_gen import (
    drone_ellipse_trajectory,
    path_trajectory,
    rounded_rectangle_polyline,
)
from .world import World, drone_room_world, street_world

PAPER_TRACES = {
    # name: (duration_s, n_frames) from §5.1 of the paper
    "MH04": (68.0, 2032),
    "MH05": (75.0, 2273),
    "V202": (35.0, 1050),
    "KITTI-00": (151.0, 4541),
    "KITTI-05": (92.0, 2762),
}

EUROC_WORLD_SEED = 1042
KITTI_WORLD_SEED = 2043

#: The world each trace's landmarks belong to.  World ``k``'s descriptor
#: bank is seeded ``DESCRIPTOR_SEED + k * 2**32``; landmark ids stay far
#: below ``2**32``, so no two worlds share a descriptor, and the machine
#: hall (world 0) keeps the rows every trace drew before worlds had
#: their own.  KITTI-00 and KITTI-05 are different street circuits.
TRACE_WORLDS = {"MH04": 0, "MH05": 0, "V202": 1, "KITTI-00": 2, "KITTI-05": 3}


@dataclass
class SyntheticDataset:
    """A world + ground-truth trajectory + camera, with an oracle."""

    name: str
    world: World
    ground_truth: Trajectory
    camera: PinholeCamera
    rate: float = 30.0

    @property
    def n_frames(self) -> int:
        return len(self.ground_truth)

    @property
    def duration(self) -> float:
        return self.ground_truth.duration()

    def pose_cw(self, index: int) -> SE3:
        """Ground-truth world->camera pose of frame ``index``."""
        return self.ground_truth[index].pose_bw()

    def descriptor_bank(self) -> DescriptorBank:
        """The appearance of this dataset's world (see ``TRACE_WORLDS``)."""
        return DescriptorBank(DESCRIPTOR_SEED + (TRACE_WORLDS[self.name] << 32))

    def make_oracle(self, seed: int = 7, **kwargs) -> FeatureOracle:
        kwargs.setdefault("descriptor_bank", self.descriptor_bank())
        return FeatureOracle(self.camera, seed=seed, **kwargs)

    def frames(
        self,
        oracle: Optional[FeatureOracle] = None,
        stride: int = 1,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[float, FeatureSet]]:
        """Yield ``(timestamp, features)`` for each (strided) frame."""
        oracle = oracle or self.make_oracle()
        count = 0
        for index in range(0, self.n_frames, stride):
            if limit is not None and count >= limit:
                return
            point = self.ground_truth[index]
            obs = oracle.observe(
                self.world.positions, self.world.ids, point.pose_bw()
            )
            count += 1
            yield point.timestamp, obs


def _euroc_camera() -> PinholeCamera:
    return PinholeCamera.ideal(320, 240, fov_deg=80.0)


def _kitti_camera() -> PinholeCamera:
    return PinholeCamera.ideal(320, 96, fov_deg=90.0)


def euroc_dataset(
    name: str = "MH04",
    duration: Optional[float] = None,
    rate: float = 30.0,
    n_landmarks: int = 1600,
) -> SyntheticDataset:
    """EuRoC-like drone dataset; MH04/MH05/V202 share per-hall worlds."""
    if name not in ("MH04", "MH05", "V202"):
        raise ValueError(f"unknown EuRoC trace {name!r}")
    duration = duration if duration is not None else PAPER_TRACES[name][0]
    if name == "V202":
        world = drone_room_world(
            seed=EUROC_WORLD_SEED + 1, size=(8.0, 6.0, 4.0),
            n_landmarks=n_landmarks,
        )
        trajectory = drone_ellipse_trajectory(
            duration=duration, rate=rate, semi_axes=(2.5, 1.8),
            base_height=1.2, height_amplitude=0.4, lap_period=20.0,
        )
    else:
        world = drone_room_world(seed=EUROC_WORLD_SEED, n_landmarks=n_landmarks)
        if name == "MH04":
            trajectory = drone_ellipse_trajectory(
                duration=duration, rate=rate, semi_axes=(7.0, 5.0),
                phase=0.0, lap_period=40.0,
            )
        else:  # MH05: same hall, different ellipse and phase -> overlap
            trajectory = drone_ellipse_trajectory(
                duration=duration, rate=rate, semi_axes=(6.0, 5.5),
                phase=np.pi / 3, lap_period=36.0,
            )
    camera = _euroc_camera()
    return SyntheticDataset(
        name=name,
        world=world,
        ground_truth=trajectory,
        camera=camera,
        rate=rate,
    )


def kitti_dataset(
    name: str = "KITTI-05",
    duration: Optional[float] = None,
    rate: float = 30.0,
    speed: float = 8.0,
    start_arclength: float = 0.0,
) -> SyntheticDataset:
    """KITTI-like vehicle dataset on a shared street circuit."""
    if name not in ("KITTI-00", "KITTI-05"):
        raise ValueError(f"unknown KITTI trace {name!r}")
    duration = duration if duration is not None else PAPER_TRACES[name][0]
    circuit = (240.0, 160.0) if name == "KITTI-00" else (180.0, 120.0)
    world = street_world(seed=KITTI_WORLD_SEED, circuit=circuit)
    polyline = rounded_rectangle_polyline(*circuit)
    trajectory = path_trajectory(
        polyline, speed=speed, duration=duration, rate=rate,
        start_arclength=start_arclength,
    )
    camera = _kitti_camera()
    return SyntheticDataset(
        name=name,
        world=world,
        ground_truth=trajectory,
        camera=camera,
        rate=rate,
    )


def make_dataset(name: str, **kwargs) -> SyntheticDataset:
    """Factory by paper trace name."""
    if name.startswith("KITTI"):
        return kitti_dataset(name, **kwargs)
    return euroc_dataset(name, **kwargs)
