"""Bag-of-binary-words place recognition (DBoW-style, from scratch).

A vocabulary is a k-ary tree built by k-medoids clustering of binary
descriptors under Hamming distance.  Leaves are *words*; an image's BoW
vector is the tf weight of each word among its descriptors.  A keyframe
database keeps an inverted index word -> keyframes, so querying touches
only keyframes sharing words with the query — this is the
``DetectCommonRegion`` substrate of merge Alg. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..vision.brief import DESCRIPTOR_BYTES, hamming_distance_matrix


def _bitwise_medoid(descriptors: np.ndarray) -> np.ndarray:
    """Majority vote per bit: the binary 'mean' of a descriptor cluster."""
    bits = np.unpackbits(descriptors, axis=1)
    majority = (bits.sum(axis=0) * 2 >= len(descriptors)).astype(np.uint8)
    return np.packbits(majority)


class _Node:
    __slots__ = ("center", "children", "word_id")

    def __init__(self, center: np.ndarray) -> None:
        self.center = center
        self.children: List["_Node"] = []
        self.word_id: int = -1


class Vocabulary:
    """k-ary Hamming k-medoids tree over binary descriptors."""

    def __init__(self, branching: int = 8, depth: int = 3) -> None:
        if branching < 2 or depth < 1:
            raise ValueError("need branching >= 2 and depth >= 1")
        self.branching = branching
        self.depth = depth
        self._root: Optional[_Node] = None
        self.n_words = 0

    def train(self, descriptors: np.ndarray, rng: np.random.Generator,
              kmeans_iterations: int = 4) -> None:
        """Build the tree from a training descriptor set."""
        descriptors = np.asarray(descriptors, dtype=np.uint8)
        if len(descriptors) < self.branching:
            raise ValueError("not enough training descriptors")
        self._root = _Node(_bitwise_medoid(descriptors))
        self.n_words = 0
        self._split(self._root, descriptors, level=0, rng=rng,
                    kmeans_iterations=kmeans_iterations)

    def _split(self, node: _Node, descriptors: np.ndarray, level: int,
               rng: np.random.Generator, kmeans_iterations: int) -> None:
        if level >= self.depth or len(descriptors) <= self.branching:
            node.word_id = self.n_words
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
        for c in range(self.branching):
            members = descriptors[assignment == c]
            if len(members) == 0:
                continue
            child = _Node(centers[c].copy())
            node.children.append(child)
            self._split(child, members, level + 1, rng, kmeans_iterations)

    def words_of(self, descriptors: np.ndarray) -> np.ndarray:
        """Quantize a descriptor stack to word ids (batched tree descent)."""
        if self._root is None:
            raise RuntimeError("vocabulary is not trained")
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.uint8))
        words = np.empty(len(descriptors), dtype=np.int64)

        def descend(node: _Node, idx: np.ndarray) -> None:
            if not node.children:
                words[idx] = node.word_id
                return
            centers = np.stack([c.center for c in node.children])
            choice = hamming_distance_matrix(descriptors[idx], centers).argmin(axis=1)
            for c, child in enumerate(node.children):
                sub = idx[choice == c]
                if len(sub):
                    descend(child, sub)

        descend(self._root, np.arange(len(descriptors)))
        return words

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
