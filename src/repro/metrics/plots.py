"""Terminal plotting: an ASCII top-down rendering of trajectories.

The paper's figures are matplotlib plots; a dependency-light release
still wants *some* way to eyeball a trajectory from a terminal, so the
Fig. 10a bench prints its client tracks with :func:`ascii_xy_plot`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def ascii_xy_plot(
    tracks: Dict[str, np.ndarray],
    width: int = 60,
    height: int = 22,
    markers: str = "*o+x#@",
) -> str:
    """Top-down (x, y) plot of one or more point tracks.

    ``tracks`` maps a label to an ``(n, >=2)`` array; each label gets its
    own marker, later tracks draw over earlier ones.
    """
    points = [np.asarray(t, dtype=float) for t in tracks.values() if len(t)]
    if not points:
        return "(no data)"
    all_pts = np.vstack([p[:, :2] for p in points])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    grid = [[" "] * width for _ in range(height)]
    for k, (label, track) in enumerate(tracks.items()):
        marker = markers[k % len(markers)]
        for row in np.asarray(track, dtype=float):
            x = int((row[0] - lo[0]) / span[0] * (width - 1))
            y = int((row[1] - lo[1]) / span[1] * (height - 1))
            grid[height - 1 - y][x] = marker
    legend = "   ".join(
        f"{markers[k % len(markers)]} {label}" for k, label in enumerate(tracks)
    )
    frame = ["+" + "-" * width + "+"]
    frame += ["|" + "".join(row) + "|" for row in grid]
    frame += ["+" + "-" * width + "+", legend]
    return "\n".join(frame)

