"""Holograms: virtual objects anchored in the shared map (Fig. 11).

A user places a hologram at a position expressed in their *current*
coordinate frame; the only thing ever shared between users is that
coordinate triple.  With SLAM-Share every client's frame IS the global
frame (after merging), so all users perceive the hologram at the same
real-world spot.  Without map sharing each client interprets the same
coordinates in its own private frame, scattering the perceived
positions — the paper measures a 6.94 m error for client C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..geometry import Sim3


@dataclass
class Hologram:
    """A virtual object: id plus anchor coordinates (shared verbatim)."""

    hologram_id: int
    anchor: np.ndarray           # coordinates as *published* by the placer
    placed_by: int
    placed_at: float

    def __post_init__(self) -> None:
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(3)


class HologramRegistry:
    """The session's hologram table (kept on the edge server)."""

    def __init__(self) -> None:
        self._holograms: Dict[int, Hologram] = {}
        self._next_id = 0

    def place(self, position: np.ndarray, client_id: int,
              timestamp: float) -> Hologram:
        hologram = Hologram(self._next_id, position, client_id, timestamp)
        self._holograms[hologram.hologram_id] = hologram
        self._next_id += 1
        return hologram

    def get(self, hologram_id: int) -> Optional[Hologram]:
        return self._holograms.get(hologram_id)


def perceived_position(
    hologram: Hologram, frame_of_viewer: Sim3
) -> np.ndarray:
    """Where a viewer believes the hologram sits, in the true world frame.

    ``frame_of_viewer`` maps the viewer's coordinate frame into the true
    world frame.  A viewer interprets the hologram's published anchor in
    its own frame, so the real-world spot it renders at is the anchor
    pushed through that mapping.  When all viewers share one (global)
    frame the perceived positions coincide; when each has a private
    frame they scatter.
    """
    return frame_of_viewer.apply(hologram.anchor)


def placement_error(
    hologram: Hologram,
    frame_of_placer: Sim3,
    frame_of_viewer: Sim3,
) -> float:
    """Distance between placer-intended and viewer-perceived positions."""
    intended = perceived_position(hologram, frame_of_placer)
    seen = perceived_position(hologram, frame_of_viewer)
    return float(np.linalg.norm(intended - seen))
