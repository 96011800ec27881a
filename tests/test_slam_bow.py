"""Tests for the bag-of-words vocabulary and keyframe database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slam.bow import KeyframeDatabase, Vocabulary, default_vocabulary
from repro.vision.brief import DESCRIPTOR_BYTES, perturb_descriptor
from tests import oracles


def _descriptors(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, DESCRIPTOR_BYTES), dtype=np.uint8)


class TestVocabulary:
    def test_training_produces_words(self):
        vocab = Vocabulary(branching=4, depth=2)
        vocab.train(_descriptors(500), np.random.default_rng(0))
        assert vocab.n_words > 4

    def test_words_of_matches_word_of(self):
        vocab = default_vocabulary()
        descs = _descriptors(50, seed=2)
        batch = vocab.words_of(descs)
        assert list(batch) == [oracles.word_of_reference(vocab, d) for d in descs]

    def test_default_vocabulary_reproducible(self):
        # All processes must regenerate the identical tree (stands in for
        # every process loading the same ORB vocabulary file).
        v1 = default_vocabulary()
        v2 = default_vocabulary()
        descs = _descriptors(100, seed=3)
        assert np.array_equal(v1.words_of(descs), v2.words_of(descs))

    def test_similar_descriptors_share_words(self):
        vocab = default_vocabulary()
        rng = np.random.default_rng(4)
        base = _descriptors(100, seed=5)
        noisy = np.stack([perturb_descriptor(d, rng, 4) for d in base])
        same = (vocab.words_of(base) == vocab.words_of(noisy)).mean()
        # Quantization is noisy near cell boundaries; what matters for
        # place recognition is that agreement vastly exceeds the random
        # baseline (1/n_words ~ 0.2%).
        assert same > 0.4

    def test_transform_normalized(self):
        vocab = default_vocabulary()
        vector = vocab.transform(_descriptors(64, seed=6))
        assert sum(vector.values()) == pytest.approx(1.0)

    def test_transform_empty(self):
        assert default_vocabulary().transform(np.zeros((0, 32), np.uint8)) == {}

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            Vocabulary().words_of(_descriptors(1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Vocabulary(branching=1)
        with pytest.raises(ValueError):
            Vocabulary(depth=0)
        with pytest.raises(ValueError):
            Vocabulary(branching=8).train(_descriptors(4), np.random.default_rng(0))

    def test_score_self_is_one(self):
        vocab = default_vocabulary()
        vec = vocab.transform(_descriptors(40, seed=7))
        assert Vocabulary.score(vec, vec) == pytest.approx(1.0)

    def test_score_disjoint_is_zero(self):
        assert Vocabulary.score({1: 1.0}, {2: 1.0}) == 0.0
        assert Vocabulary.score({}, {1: 1.0}) == 0.0

    def test_score_same_place_beats_different_place(self):
        vocab = default_vocabulary()
        rng = np.random.default_rng(8)
        place_a = _descriptors(80, seed=9)
        # Same place seen again: each feature redetected with bit noise.
        place_a_again = np.stack([perturb_descriptor(d, rng, 6) for d in place_a])
        place_b = _descriptors(80, seed=10)
        va = vocab.transform(place_a)
        va2 = vocab.transform(place_a_again)
        vb = vocab.transform(place_b)
        assert Vocabulary.score(va, va2) > Vocabulary.score(va, vb)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_property_score_symmetric(self, seed):
        vocab = default_vocabulary()
        a = vocab.transform(_descriptors(30, seed=seed))
        b = vocab.transform(_descriptors(30, seed=seed + 1))
        assert Vocabulary.score(a, b) == pytest.approx(Vocabulary.score(b, a))


class TestKeyframeDatabase:
    def _db_with_places(self, n_places=5, seed=0):
        vocab = default_vocabulary()
        db = KeyframeDatabase(vocab)
        vectors = {}
        for place in range(n_places):
            vec = vocab.transform(_descriptors(60, seed=seed + place))
            db.add(place, vec)
            vectors[place] = vec
        return vocab, db, vectors

    def test_query_finds_same_place(self):
        vocab, db, vectors = self._db_with_places()
        rng = np.random.default_rng(1)
        base = _descriptors(60, seed=2)  # same as place 2
        revisit = np.stack([perturb_descriptor(d, rng, 6) for d in base])
        results = db.query(vocab.transform(revisit), min_score=0.0)
        assert results[0].keyframe_id == 2

    def test_exclusion(self):
        vocab, db, vectors = self._db_with_places()
        results = db.query(vectors[2], min_score=0.0, exclude={2})
        assert all(r.keyframe_id != 2 for r in results)

    def test_min_score_filters(self):
        vocab, db, vectors = self._db_with_places()
        results = db.query(vectors[0], min_score=0.99)
        assert [r.keyframe_id for r in results] == [0]

    def test_remove(self):
        vocab, db, vectors = self._db_with_places()
        db.remove(3)
        assert len(db) == 4
        results = db.query(vectors[3], min_score=0.0)
        assert all(r.keyframe_id != 3 for r in results)

    def test_max_results(self):
        vocab, db, vectors = self._db_with_places(n_places=8)
        results = db.query(vectors[0], min_score=0.0, max_results=3)
        assert len(results) <= 3

    def test_results_sorted_by_score(self):
        vocab, db, vectors = self._db_with_places()
        results = db.query(vectors[1], min_score=0.0)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
