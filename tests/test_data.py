import json

import numpy as np
import pytest

from attnalign.data import DataSpec, generate_dataset, read_meta, read_samples, \
    write_meta, write_samples
from attnalign.errors import GenerationError

from oracles import blind_majority_token, classifier_accuracy, roi_oracle_predict


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
                                                      seed=3))
        for s in train + test:
            seen = set()
            for seg in s.segments:
                assert not seen.intersection(seg.token_indices)
                seen.update(seg.token_indices)
            queried = [seg for seg in s.segments
                       if seg.concept == s.queried_concept]
            assert len(queried) == 1
            assert queried[0].token_indices == s.roi
            labels = [seg.label for seg in s.segments]
            assert len(set(labels)) == len(labels)

    def test_answer_is_queried_segment_label(self):
        train, _, meta = generate_dataset(DataSpec(n_train=30, n_test=1, seed=9))
        for s in train:
            queried = next(seg for seg in s.segments
                           if seg.concept == s.queried_concept)
            assert s.answer == (meta.label_token(queried.label),)


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
