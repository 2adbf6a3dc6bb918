import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign.data import DataSpec, generate_dataset, propose_segments
from attnalign.errors import BackendError, DegenerateEmbeddingError, \
    ParameterError
from attnalign.weaklabels import Segment, SyntheticOracleBackend, \
    cosine_sim, select_weak_labels

from oracles import cosine_decimal


class MappedBackend:
    """Fixed similarity-by-id backend for selection tests."""

    def __init__(self, table):
        self.table = table

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

    NON_FINITE = pytest.mark.parametrize(
        "u", [[np.inf, 1.0], [1e200, 1e200], [-np.inf, 1.0], [np.nan, 1.0]],
        ids=["inf", "norm-overflows", "negative-inf", "nan"])

    @NON_FINITE
    def test_non_finite_vector(self, u):
        # used to return nan for [inf, 1], and 0.0 for [1e200, 1e200],
        # whose squared norm overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateEmbeddingError, match="not finite"):
                cosine_sim(u, [1.0, 1.0])
        assert [str(w.message) for w in caught] == []

    @NON_FINITE
    def test_non_finite_vector_second(self, u):
        with pytest.raises(DegenerateEmbeddingError, match="not finite"):
            cosine_sim([1.0, 1.0], u)

    @given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6),
           st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_finite_vectors_keep_the_plain_quotient(self, u, v):
        # the finiteness checks change no bit of a similarity they let through
        n = min(len(u), len(v))
        u, v = np.array(u[:n]), np.array(v[:n])
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            return
        assert cosine_sim(u, v) == float(np.dot(u, v) / (nu * nv))


def seg(sid, tokens=(0,)):
    return Segment(id=sid, token_indices=tokens)


def similarity(backend, segment):
    """The cosine similarity that selection ranks ``segment`` by."""
    return cosine_sim(backend.embed_segment(segment, np.zeros((1, 2))),
                      backend.embed_prompt((0,)))


class TestSelectWeakLabels:
    def test_top_k_by_definition(self):
        backend = MappedBackend({"s1": 0.9, "s2": 0.5, "s3": 0.2})
        out = select_weak_labels([seg("s1"), seg("s2"), seg("s3")], (0,),
                                 np.zeros((1, 2)), backend, 2)
        assert [s.id for s in out] == ["s1", "s2"]
        assert similarity(backend, out[-1]) == pytest.approx(0.5)

    def test_k_at_least_candidates_keeps_all(self):
        backend = MappedBackend({"a": 0.1, "b": 0.2})
        out = select_weak_labels([seg("a"), seg("b")], (0,), np.zeros((1, 2)),
                                 backend, 5)
        assert {s.id for s in out} == {"a", "b"}

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
            assert [s.id for s in out] == expected
            # every kept segment is at least as similar as every dropped one
            kept = [similarity(backend, s) for s in out]
            dropped = [similarity(backend, s) for s in candidates if s not in out]
            assert min(kept) >= max(dropped, default=-1.0)

    def test_input_order_invariance(self, rng):
        sims = {f"s{i}": float(v) for i, v in
                enumerate([0.5, 0.5, 0.9, 0.1, 0.5])}
        backend = MappedBackend(sims)
        candidates = [seg(sid) for sid in sims]
        a = select_weak_labels(candidates, (0,), np.zeros((1, 2)), backend, 3)
        b = select_weak_labels(candidates[::-1], (0,), np.zeros((1, 2)),
                               backend, 3)
        assert [s.id for s in a] == [s.id for s in b]

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
        assert {s.id for s in small} <= {s.id for s in large}

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
        assert [s.id for s in a] == [s.id for s in b]

    def test_backend_failure_carries_segment_id(self):
        class Broken(MappedBackend):
            def embed_segment(self, segment, image):
                raise RuntimeError("boom")

        with pytest.raises(BackendError, match="s1"):
            select_weak_labels([seg("s1")], (0,), np.zeros((1, 2)),
                               Broken({"s1": 1.0}), 1)

    def test_non_finite_embedding_carries_segment_id(self):
        class Overflowing(MappedBackend):
            def embed_segment(self, segment, image):
                return np.array([np.inf, 1.0]) if segment.id == "s2" else \
                    super().embed_segment(segment, image)

        with pytest.raises(BackendError, match="segment 's2': .*not finite"):
            select_weak_labels([seg("s1"), seg("s2")], (0,), np.zeros((1, 2)),
                               Overflowing({"s1": 1.0}), 1)

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
            assert out[0].token_indices == sample.roi

    def test_k1_returns_ground_truth(self):
        train, meta, backend = self.make_case()
        for sample in train:
            candidates = propose_segments(sample, meta.n_background_segments)
            out = select_weak_labels(candidates, sample.prompt, sample.features,
                                     backend, 1)
            assert len(out) == 1
            assert out[0].token_indices == sample.roi

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
            hits += out[0].token_indices == sample.roi
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

    def test_noise_depends_on_the_seed(self):
        train, meta, _ = self.make_case()
        sample = train[0]
        seg0 = Segment(id="s", token_indices=sample.roi)
        a, b, again = (SyntheticOracleBackend(
            meta.concept_vectors, meta.concept_base, 0.5, seed).embed_segment(
                seg0, sample.features) for seed in (0, 1, 0))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, again)

    @pytest.mark.parametrize("noise,message", [
        (-np.inf, "noise must be >= 0, got -inf"),
        (np.nan, "noise must be >= 0, got nan"),
        (-0.5, "noise must be >= 0, got -0.5"),
    ], ids=["negative-inf", "nan", "negative"])
    def test_noise_outside_the_finite_nonnegatives_rejected(self, noise,
                                                            message):
        _, meta, _ = self.make_case()
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SyntheticOracleBackend(meta.concept_vectors, meta.concept_base,
                                   noise, 0)

    def test_negative_seed_rejected(self):
        _, meta, _ = self.make_case()
        with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
            SyntheticOracleBackend(meta.concept_vectors, meta.concept_base,
                                   0.5, -1)

    def test_overflowing_noise_refused_without_warnings(self):
        # noise * N(0, 1) overflows to inf; selection names the segment
        train, meta, _ = self.make_case()
        sample = train[0]
        backend = SyntheticOracleBackend(meta.concept_vectors,
                                         meta.concept_base, 1e308, 0)
        candidates = propose_segments(sample, meta.n_background_segments)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BackendError, match="not finite"):
                select_weak_labels(candidates, sample.prompt, sample.features,
                                   backend, 1)
        assert [str(w.message) for w in caught] == []

    def test_infinite_noise_rejected(self):
        # used to be accepted, and to rank segments by NaN similarities
        _, meta, _ = self.make_case()
        with pytest.raises(ParameterError, match="noise must be finite, got inf"):
            SyntheticOracleBackend(meta.concept_vectors, meta.concept_base,
                                   np.inf, 0)

    def test_unknown_prompt_concept(self):
        _, meta, backend = self.make_case()
        with pytest.raises(BackendError):
            backend.embed_prompt((0,))  # a label token, not a concept token
