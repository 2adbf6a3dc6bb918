import json

import numpy as np
import pytest

from attnalign.data import CONCEPT_SCALE, LABEL_SCALE, DataSpec, \
    generate_dataset, read_meta, read_samples, write_meta, write_samples
from attnalign.errors import GenerationError

from oracles import blind_majority_token, classifier_accuracy, roi_oracle_predict


def planted(sample, spec) -> dict:
    """(concept, label) of each planted segment of a sample generated at
    ``feature_noise`` 0, read from its features: every patch of a segment
    holds exactly CONCEPT_SCALE in its concept's channel and LABEL_SCALE in
    its label's, and every other value is 0."""
    out, expected = {}, np.zeros_like(sample.features)
    for seg in sample.segments:
        (concept,) = np.flatnonzero(sample.features[seg[0], :spec.n_concepts])
        (label,) = np.flatnonzero(sample.features[seg[0], spec.n_concepts:])
        expected[list(seg), concept] = CONCEPT_SCALE
        expected[list(seg), spec.n_concepts + label] = LABEL_SCALE
        out[seg] = int(concept), int(label)
    assert np.array_equal(sample.features, expected)
    return out


class TestGeneration:
    def test_deterministic_files(self, tmp_path):
        spec = DataSpec(n_train=20, n_test=5, seed=42)
        for name in ("a", "b"):
            train, test, meta = generate_dataset(spec)
            write_samples(tmp_path / f"train_{name}.jsonl", train)
            write_samples(tmp_path / f"test_{name}.jsonl", test)
            write_meta(tmp_path / f"meta_{name}.json", meta)
        assert (tmp_path / "train_a.jsonl").read_bytes() \
            == (tmp_path / "train_b.jsonl").read_bytes()
        assert (tmp_path / "test_a.jsonl").read_bytes() \
            == (tmp_path / "test_b.jsonl").read_bytes()
        assert (tmp_path / "meta_a.json").read_bytes() \
            == (tmp_path / "meta_b.json").read_bytes()

    def test_single_concept_rejected(self):
        with pytest.raises(GenerationError):
            generate_dataset(DataSpec(n_concepts=1, n_segments=1))

    def test_packing_bound_rejected(self):
        with pytest.raises(GenerationError):
            generate_dataset(DataSpec(grid=4, n_segments=3, seg_side_min=2,
                                      seg_side_max=2, n_concepts=4))

    def test_segments_disjoint_and_queried_once(self):
        train, test, meta = generate_dataset(DataSpec(n_train=50, n_test=5,
                                                      seed=3, feature_noise=0))
        for s in train + test:
            seen = set()
            for seg in s.segments:
                assert not seen.intersection(seg)
                seen.update(seg)
            assert s.segments.count(s.roi) == 1
            concepts, labels = zip(*planted(s, meta).values())
            assert len(set(concepts)) == len(concepts)
            assert len(set(labels)) == len(labels)

    def test_answer_is_queried_segment_label(self):
        train, _, meta = generate_dataset(DataSpec(n_train=30, n_test=1, seed=9,
                                                   feature_noise=0))
        for s in train:
            concept, label = planted(s, meta)[s.roi]
            assert s.prompt == (meta.ask_token, meta.concept_token(concept))
            assert s.answer == (meta.label_token(label),)


class TestReferenceClassifiers:
    def test_roi_oracle_perfect(self):
        train, _, meta = generate_dataset(DataSpec(n_train=1000, n_test=1,
                                                   seed=13))
        acc = classifier_accuracy(
            train, lambda s: roi_oracle_predict(s, meta))
        assert acc == 1.0

    def test_blind_majority_bounded_by_chance(self):
        train, _, meta = generate_dataset(DataSpec(n_train=1000, n_test=1,
                                                   seed=13))
        majority = blind_majority_token(train)
        acc = classifier_accuracy(train, lambda s: majority)
        assert acc <= 1.0 / meta.n_labels + 0.05


class TestRoundTrip:
    def test_samples_round_trip(self, tmp_path):
        train, _, _ = generate_dataset(DataSpec(n_train=10, n_test=1, seed=2))
        path = tmp_path / "d.jsonl"
        write_samples(path, train)
        loaded = read_samples(path)
        assert len(loaded) == len(train)
        for a, b in zip(train, loaded):
            assert a.id == b.id and a.prompt == b.prompt \
                and a.answer == b.answer and a.roi == b.roi
            assert np.array_equal(a.features, b.features)
            assert a.segments == b.segments

    def test_meta_round_trip(self, tmp_path):
        _, _, meta = generate_dataset(DataSpec(n_train=2, n_test=1, seed=2))
        path = tmp_path / "meta.json"
        write_meta(path, meta)
        assert sorted(json.loads(path.read_text())) == ["schema", "spec"]
        loaded = read_meta(path)
        assert loaded == meta
        assert loaded.concept_base == meta.concept_base
        assert np.array_equal(loaded.concept_vectors, meta.concept_vectors)

    def test_concept_vectors_are_the_concept_channels(self):
        spec = DataSpec(n_concepts=3, d_visual=8)
        planted = np.zeros((3, 8))
        planted[np.arange(3), np.arange(3)] = 1.0
        assert spec.concept_vectors.dtype == np.float64
        assert spec.concept_vectors.tobytes() == planted.tobytes()
