import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign.data import DataSpec, generate_dataset, propose_segments
from attnalign.errors import BackendError, CompatibilityError, \
    DegenerateEmbeddingError, ParameterError
from attnalign.weaklabels import Segment, SyntheticOracleBackend, \
    WeakLabelSet, cosine_sim, load_weak_label_cache, save_weak_label_cache, \
    select_weak_labels, weak_labels_to_record

from oracles import cosine_decimal


class MappedBackend:
    """Fixed similarity-by-id backend for selection tests."""

    def __init__(self, table):
        self.table = table

    @property
    def backend_id(self):
        return "mapped"

    def embed_segment(self, segment, image):
        # unit vectors at angle acos(sim) from the prompt direction
        sim = self.table[segment.id]
        return np.array([sim, np.sqrt(max(0.0, 1 - sim * sim))])

    def embed_prompt(self, prompt_tokens):
        return np.array([1.0, 0.0])


class TestCosine:
    def test_identical(self, rng):
        v = rng.normal(size=5)
        assert abs(cosine_sim(v, v) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_matches_extended_precision(self, rng):
        u, v = rng.normal(size=7), rng.normal(size=7)
        assert abs(cosine_sim(u, v) - cosine_decimal(u, v)) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])


def seg(sid, tokens=(0,)):
    return Segment(id=sid, token_indices=tokens)


class TestSelectWeakLabels:
    def test_top_k_by_definition(self):
        backend = MappedBackend({"s1": 0.9, "s2": 0.5, "s3": 0.2})
        out = select_weak_labels([seg("s1"), seg("s2"), seg("s3")], (0,),
                                 np.zeros((1, 2)), backend, 2)
        assert [s.id for s in out.segments] == ["s1", "s2"]
        assert out.tau == pytest.approx(0.5)

    def test_k_at_least_candidates_keeps_all(self):
        backend = MappedBackend({"a": 0.1, "b": 0.2})
        out = select_weak_labels([seg("a"), seg("b")], (0,), np.zeros((1, 2)),
                                 backend, 5)
        assert {s.id for s in out.segments} == {"a", "b"}

    def test_matches_sort_oracle_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 21))
            sims = {f"s{i:02d}": float(rng.integers(0, 5)) / 5.0
                    for i in range(n)}
            backend = MappedBackend(sims)
            candidates = [seg(sid) for sid in sims]
            rng.shuffle(candidates)
            out = select_weak_labels(candidates, (0,), np.zeros((1, 2)),
                                     backend, 4)
            expected = sorted(sims, key=lambda sid: (-sims[sid], sid))[:4]
            assert [s.id for s in out.segments] == expected
            assert all(out.similarities[s.id] >= out.tau
                       for s in out.segments)

    def test_input_order_invariance(self, rng):
        sims = {f"s{i}": float(v) for i, v in
                enumerate([0.5, 0.5, 0.9, 0.1, 0.5])}
        backend = MappedBackend(sims)
        candidates = [seg(sid) for sid in sims]
        a = select_weak_labels(candidates, (0,), np.zeros((1, 2)), backend, 3)
        b = select_weak_labels(candidates[::-1], (0,), np.zeros((1, 2)),
                               backend, 3)
        assert [s.id for s in a.segments] == [s.id for s in b.segments]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, sd, k1, k2):
        if k1 > k2:
            k1, k2 = k2, k1
        r = np.random.default_rng(sd)
        sims = {f"s{i}": float(r.integers(0, 4)) / 4 for i in range(8)}
        backend = MappedBackend(sims)
        candidates = [seg(sid) for sid in sims]
        small = select_weak_labels(candidates, (0,), np.zeros((1, 2)),
                                   backend, k1)
        large = select_weak_labels(candidates, (0,), np.zeros((1, 2)),
                                   backend, k2)
        assert {s.id for s in small.segments} <= {s.id for s in large.segments}

    def test_embedding_scale_invariance(self, rng):
        class Scaled(MappedBackend):
            def __init__(self, table, scale):
                super().__init__(table)
                self.scale = scale

            def embed_segment(self, segment, image):
                return super().embed_segment(segment, image) * self.scale

        sims = {f"s{i}": float(rng.random()) for i in range(6)}
        a = select_weak_labels([seg(s) for s in sims], (0,), np.zeros((1, 2)),
                               Scaled(sims, 1.0), 3)
        b = select_weak_labels([seg(s) for s in sims], (0,), np.zeros((1, 2)),
                               Scaled(sims, 17.0), 3)
        assert [s.id for s in a.segments] == [s.id for s in b.segments]

    def test_backend_failure_carries_segment_id(self):
        class Broken(MappedBackend):
            def embed_segment(self, segment, image):
                raise RuntimeError("boom")

        with pytest.raises(BackendError, match="s1"):
            select_weak_labels([seg("s1")], (0,), np.zeros((1, 2)),
                               Broken({"s1": 1.0}), 1)

    def test_duplicate_ids_rejected(self):
        backend = MappedBackend({"x": 1.0})
        with pytest.raises(ParameterError):
            select_weak_labels([seg("x"), seg("x")], (0,), np.zeros((1, 2)),
                               backend, 1)

    def test_k_zero_rejected(self):
        with pytest.raises(ParameterError):
            select_weak_labels([seg("a")], (0,), np.zeros((1, 2)),
                               MappedBackend({"a": 1.0}), 0)


class TestSyntheticOracle:
    def make_case(self, seed=0):
        spec = DataSpec(n_train=8, n_test=2, seed=seed)
        train, _, meta = generate_dataset(spec)
        backend = SyntheticOracleBackend(meta.concept_vectors,
                                         meta.concept_base, 0.0, 0)
        return train, meta, backend

    def test_planted_segment_ranks_first(self):
        train, meta, backend = self.make_case()
        for sample in train:
            candidates = propose_segments(sample, meta.n_background_segments)
            out = select_weak_labels(candidates, sample.prompt,
                                     sample.features, backend, len(candidates))
            assert out.segments[0].token_indices == sample.roi

    def test_k1_returns_ground_truth(self):
        train, meta, backend = self.make_case()
        for sample in train:
            candidates = propose_segments(sample, meta.n_background_segments)
            out = select_weak_labels(candidates, sample.prompt, sample.features,
                                     backend, 1)
            assert len(out.segments) == 1
            assert out.segments[0].token_indices == sample.roi

    def test_noise_rank1_accuracy_measurement(self):
        spec = DataSpec(n_train=200, n_test=0, seed=5)
        train, _, meta = generate_dataset(spec)
        backend = SyntheticOracleBackend(meta.concept_vectors,
                                         meta.concept_base, 0.5, 0)
        hits = 0
        for sample in train:
            candidates = propose_segments(sample, meta.n_background_segments)
            out = select_weak_labels(candidates, sample.prompt, sample.features,
                                     backend, 1)
            hits += out.segments[0].token_indices == sample.roi
        rate = hits / len(train)
        # measured, not asserted to a value; only sanity bounds
        print(f"rank-1 accuracy at embedding noise 0.5: {rate:.3f}")
        assert 0.0 <= rate <= 1.0

    def test_deterministic_for_fixed_inputs(self):
        train, meta, _ = self.make_case()
        sample = train[0]
        backend = SyntheticOracleBackend(meta.concept_vectors,
                                         meta.concept_base, 0.7, 3)
        seg0 = Segment(id="s", token_indices=sample.roi)
        a = backend.embed_segment(seg0, sample.features)
        b = backend.embed_segment(seg0, sample.features)
        assert np.array_equal(a, b)

    def test_unknown_prompt_concept(self):
        _, meta, backend = self.make_case()
        with pytest.raises(BackendError):
            backend.embed_prompt((0,))  # a label token, not a concept token


class TestCacheRoundTrip:
    def test_records_round_trip(self, tmp_path):
        labels = WeakLabelSet(
            segments=(seg("a", (1, 2)), seg("b", (3,))),
            similarities={"a": 0.9, "b": 0.5}, tau=0.5, k=2)
        rec = weak_labels_to_record("img1", "p1", labels, "oracle")
        path = tmp_path / "cache.jsonl"
        save_weak_label_cache(path, [rec])
        loaded = load_weak_label_cache(path, 4)
        assert list(loaded) == [("img1", "p1", 2, "oracle")]
        back = loaded[("img1", "p1", 2, "oracle")]
        assert back.tau == 0.5 and back.k == 2
        assert [s.token_indices for s in back.segments] == [(1, 2), (3,)]
        schema = json.loads(path.read_text().splitlines()[0])
        assert set(schema) == {"image_id", "prompt_id", "K", "backend",
                               "segments", "tau_K"}
        again = tmp_path / "again.jsonl"
        save_weak_label_cache(again, [weak_labels_to_record("img1", "p1", back,
                                                            "oracle")])
        assert again.read_bytes() == path.read_bytes()

    def test_token_outside_the_map_names_the_line(self, tmp_path):
        # used to load, and then stop training at the first batch with an
        # error that named neither the cache file nor the line
        labels = WeakLabelSet(segments=(seg("a", (1, 2)), seg("b", (3,))),
                              similarities={"a": 0.9, "b": 0.5}, tau=0.5, k=2)
        path = tmp_path / "cache.jsonl"
        save_weak_label_cache(path, [weak_labels_to_record("img1", "p1", labels,
                                                           "oracle")])
        with pytest.raises(CompatibilityError, match=re.escape(
                f"{path} line 1: segment 'b' has token 3 outside the map of 3 "
                "visual tokens")):
            load_weak_label_cache(path, 3)
