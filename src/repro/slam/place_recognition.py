"""DetectCommonRegion: find where a keyframe overlaps the global map.

This is line 7 of the paper's merge algorithm (Alg. 2): a Bag-of-Words
query over the global map's keyframe database returns the closest
keyframes ("LW"), which seed the 3-D alignment.  The caller passes the
ids of keyframes the querying client itself contributed to be excluded —
a client trivially matches its own history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from .bow import KeyframeDatabase, QueryResult
from .keyframe import KeyFrame
from .map import SlamMap


@dataclass
class CommonRegion:
    """BoW candidates for one query keyframe."""

    query_keyframe_id: int
    candidates: List[QueryResult]

    def __bool__(self) -> bool:
        return bool(self.candidates)

    @property
    def best(self) -> Optional[QueryResult]:
        return self.candidates[0] if self.candidates else None


def detect_common_region(
    keyframe: KeyFrame,
    global_map: SlamMap,
    database: KeyframeDatabase,
    min_score: float = 0.08,
    max_results: int = 5,
    exclude: Optional[Set[int]] = None,
) -> CommonRegion:
    """Query the global database for keyframes seeing the same place.

    ``exclude`` holds the keyframe ids to leave out — the querying
    client's own; a caller querying many keyframes builds it once.
    """
    results = database.query(
        keyframe.bow_vector,
        min_score=min_score,
        max_results=max_results,
        exclude=exclude,
    )
    # Keep only keyframes that still exist in the map.
    results = [r for r in results if r.keyframe_id in global_map.keyframes]
    return CommonRegion(keyframe.keyframe_id, results)
