"""Bag-of-binary-words place recognition (DBoW-style, from scratch).

A vocabulary is a k-ary tree built by k-medoids clustering of binary
descriptors under Hamming distance, held as one flat node table and
descended one level at a time for a whole descriptor stack.  Leaves are
*words*; an image's BoW vector is the tf weight of each word among its
descriptors.  A keyframe database keeps an inverted index word ->
keyframes, so querying touches only keyframes sharing words with the
query — this is the ``DetectCommonRegion`` substrate of merge Alg. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..vision.brief import (
    DESCRIPTOR_BYTES,
    descriptor_words,
    hamming_distance_matrix,
    hamming_distance_pairs,
)


def _bitwise_medoid(descriptors: np.ndarray) -> np.ndarray:
    """Majority vote per bit: the binary 'mean' of a descriptor cluster."""
    bits = np.unpackbits(descriptors, axis=1)
    majority = (bits.sum(axis=0) * 2 >= len(descriptors)).astype(np.uint8)
    return np.packbits(majority)


class Vocabulary:
    """k-ary Hamming k-medoids tree over binary descriptors.

    The tree is one flat node table: node ``i`` has the center
    ``_centers[i]``, its children are the ``_n_children[i]`` consecutive
    nodes from ``_first_child[i]`` (in cluster order), and a leaf
    (``_n_children[i] == 0``) carries the word id ``_word[i]``.  Node 0
    is the root.
    """

    def __init__(self, branching: int = 8, depth: int = 3) -> None:
        if branching < 2 or depth < 1:
            raise ValueError("need branching >= 2 and depth >= 1")
        self.branching = branching
        self.depth = depth
        self._centers: Optional[np.ndarray] = None
        self._first_child = np.zeros(0, dtype=np.intp)
        self._n_children = np.zeros(0, dtype=np.intp)
        self._word = np.zeros(0, dtype=np.int64)
        self.n_words = 0

    def train(self, descriptors: np.ndarray, rng: np.random.Generator,
              kmeans_iterations: int = 4) -> None:
        """Build the tree from a training descriptor set."""
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if len(descriptors) < self.branching:
            raise ValueError("not enough training descriptors")
        # Node columns, grown while splitting: center, first child,
        # child count, word id.
        table: List[list] = [[_bitwise_medoid(descriptors)], [0], [0], [-1]]
        self.n_words = 0
        self._split(table, 0, descriptors, level=0, rng=rng,
                    kmeans_iterations=kmeans_iterations)
        centers, first, count, word = table
        self._centers = np.array(centers, dtype=np.uint8)
        self._first_child = np.array(first, dtype=np.intp)
        self._n_children = np.array(count, dtype=np.intp)
        self._word = np.array(word, dtype=np.int64)

    def _split(self, table: List[list], node: int, descriptors: np.ndarray,
               level: int, rng: np.random.Generator,
               kmeans_iterations: int) -> None:
        centers_col, first_col, count_col, word_col = table
        if level >= self.depth or len(descriptors) <= self.branching:
            word_col[node] = self.n_words
            self.n_words += 1
            return
        # k-medoids under Hamming distance.
        seed_idx = rng.choice(len(descriptors), size=self.branching, replace=False)
        centers = descriptors[seed_idx].copy()
        assignment = np.zeros(len(descriptors), dtype=int)
        for _ in range(kmeans_iterations):
            dists = hamming_distance_matrix(descriptors, centers)
            assignment = dists.argmin(axis=1)
            for c in range(self.branching):
                members = descriptors[assignment == c]
                if len(members):
                    centers[c] = _bitwise_medoid(members)
        # Empty clusters make no child; a node's children are added
        # together, so they are consecutive rows, and then split depth
        # first in cluster order (the order words are numbered in).
        groups = [(centers[c].copy(), descriptors[assignment == c])
                  for c in range(self.branching)]
        groups = [(center, members) for center, members in groups if len(members)]
        first_col[node] = len(centers_col)
        count_col[node] = len(groups)
        for center, _ in groups:
            centers_col.append(center)
            first_col.append(0)
            count_col.append(0)
            word_col.append(-1)
        for i, (_, members) in enumerate(groups):
            self._split(table, first_col[node] + i, members, level + 1, rng,
                        kmeans_iterations)

    def words_of(self, descriptors: np.ndarray) -> np.ndarray:
        """Quantize a descriptor stack to word ids.

        The descent goes one tree level at a time: every descriptor still
        at an inner node is scored against that node's children in one
        pair-sparse Hamming pass, and the first child at the smallest
        distance wins, as in the per-node ``argmin``.
        """
        if self._centers is None:
            raise RuntimeError("vocabulary is not trained")
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.uint8))
        desc_words = descriptor_words(descriptors)
        center_words = descriptor_words(self._centers)
        slots = np.arange(self.branching)
        node = np.zeros(len(descriptors), dtype=np.intp)
        live = np.flatnonzero(self._n_children[node])
        while len(live):
            at = node[live]
            count = self._n_children[at]
            # Slots past a node's child count repeat its last child and
            # are masked out of the argmin.
            child = self._first_child[at][:, None] + np.minimum(
                slots, count[:, None] - 1)
            dist = hamming_distance_pairs(
                descriptors, self._centers, np.repeat(live, self.branching),
                child.ravel(), desc_words, center_words,
            ).reshape(len(live), self.branching)
            dist[slots >= count[:, None]] = np.iinfo(np.int32).max
            node[live] = child[np.arange(len(live)), dist.argmin(axis=1)]
            live = live[self._n_children[node[live]] > 0]
        return self._word[node]

    def transform(self, descriptors: np.ndarray) -> Dict[int, float]:
        """BoW vector (word -> normalized tf weight) of a descriptor set."""
        if len(descriptors) == 0:
            return {}
        words, counts = np.unique(self.words_of(descriptors), return_counts=True)
        total = float(counts.sum())
        return {int(w): float(c) / total for w, c in zip(words, counts)}

    @staticmethod
    def score(vec_a: Dict[int, float], vec_b: Dict[int, float]) -> float:
        """L1 similarity in [0, 1] as in DBoW2."""
        if not vec_a or not vec_b:
            return 0.0
        common = set(vec_a) & set(vec_b)
        s = sum(abs(vec_a[w]) + abs(vec_b[w]) - abs(vec_a[w] - vec_b[w]) for w in common)
        return 0.5 * s


def default_vocabulary(seed: int = 1234, n_training: int = 4000,
                       branching: int = 8, depth: int = 3) -> Vocabulary:
    """The offline-trained vocabulary stand-in used across all clients.

    ORB-SLAM3 ships a vocabulary learned from a large image corpus; all
    processes load the same file.  Here every process deterministically
    regenerates the same tree from a seeded descriptor sample.
    """
    rng = np.random.default_rng(seed)
    training = rng.integers(0, 256, size=(n_training, DESCRIPTOR_BYTES), dtype=np.uint8)
    vocab = Vocabulary(branching=branching, depth=depth)
    vocab.train(training, rng)
    return vocab


@dataclass
class QueryResult:
    keyframe_id: int
    score: float


class KeyframeDatabase:
    """Inverted index word -> keyframe ids, with BoW query scoring."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        self._inverted: Dict[int, set] = {}
        self._vectors: Dict[int, Dict[int, float]] = {}

    def add(self, keyframe_id: int, bow_vector: Dict[int, float]) -> None:
        self._vectors[keyframe_id] = bow_vector
        for word in bow_vector:
            self._inverted.setdefault(word, set()).add(keyframe_id)

    def remove(self, keyframe_id: int) -> None:
        vec = self._vectors.pop(keyframe_id, None)
        if vec is None:
            return
        for word in vec:
            self._inverted.get(word, set()).discard(keyframe_id)

    def __len__(self) -> int:
        return len(self._vectors)

    def query(
        self,
        bow_vector: Dict[int, float],
        min_score: float = 0.05,
        max_results: int = 5,
        exclude: Optional[set] = None,
    ) -> List[QueryResult]:
        """Best-scoring keyframes sharing at least one word with the query."""
        exclude = exclude or set()
        candidates = set()
        for word in bow_vector:
            candidates |= self._inverted.get(word, set())
        candidates -= exclude
        results = [
            QueryResult(kf_id, Vocabulary.score(bow_vector, self._vectors[kf_id]))
            for kf_id in candidates
        ]
        results = [r for r in results if r.score >= min_score]
        results.sort(key=lambda r: -r.score)
        return results[:max_results]
