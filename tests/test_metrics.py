from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign.data import DataSpec, generate_dataset
from attnalign.errors import CompatibilityError, MetricError
from attnalign.metrics import coverage_score, evaluate, \
    intensity_alignment, save_report
from attnalign.model import ModelConfig, VisualDecoder

from conftest import assert_no_children
from oracles import coverage_loop, intensity_loop


class TestCoverage:
    def test_hand_arithmetic(self):
        m = np.zeros(16)
        roi = [0, 1, 2, 3]
        m[roi] = [0.2, 0.16, 0.1, 0.05]
        assert coverage_score(m, roi, 0.15) == 0.5

    def test_uniform_below_threshold(self):
        m = np.full(64, 1 / 64)
        assert coverage_score(m, [5, 9, 13], 0.15) == 0.0

    def test_matches_counting_oracle(self, rng):
        for _ in range(200):
            g = int(rng.integers(2, 6))
            m = rng.random(g * g)
            roi = rng.choice(g * g, size=int(rng.integers(1, g * g)),
                             replace=False)
            tau = float(rng.random())
            got = coverage_score(m, roi, tau)
            want = coverage_loop(m.reshape(g, g), roi, g, tau)
            assert got == want

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nonincreasing_in_tau(self, seed, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        r = np.random.default_rng(seed)
        m = r.random(16)
        roi = [0, 3, 7, 12]
        assert coverage_score(m, roi, t1) >= coverage_score(m, roi, t2)

    def test_empty_roi(self):
        with pytest.raises(MetricError):
            coverage_score(np.ones(4), [], 0.15)

    def test_negative_map_rejected(self):
        with pytest.raises(MetricError):
            coverage_score(np.array([-0.1, 0.5]), [0], 0.15)


class TestIntensity:
    def test_hand_arithmetic(self):
        m = np.zeros(9)
        m[[2, 5]] = [0.1, 0.3]
        assert intensity_alignment(m, [2, 5]) == pytest.approx(0.2)

    def test_single_token_total_mass(self):
        m = np.zeros(9)
        m[4] = 0.77
        assert intensity_alignment(m, [4]) == pytest.approx(0.77)

    def test_matches_summation_oracle(self, rng):
        for _ in range(200):
            m = rng.random(25)
            roi = rng.choice(25, size=int(rng.integers(1, 25)), replace=False)
            assert abs(intensity_alignment(m, roi)
                       - intensity_loop(m, roi)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_non_roi_permutation(self, seed):
        r = np.random.default_rng(seed)
        m = r.random(12)
        roi = [1, 4, 6]
        others = [i for i in range(12) if i not in roi]
        m2 = m.copy()
        m2[others] = m[list(r.permutation(others))]
        assert intensity_alignment(m, roi) \
            == pytest.approx(intensity_alignment(m2, roi))

    def test_uniform_map_intensity_equals_mass_over_n(self, rng):
        n = 16
        mass = 0.42
        m = np.full(n, mass / n)
        for _ in range(5):
            roi = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            assert intensity_alignment(m, roi) == pytest.approx(mass / n)

    def test_empty_roi(self):
        with pytest.raises(MetricError):
            intensity_alignment(np.ones(4), [])


def eval_setup(seed=0):
    spec = DataSpec(n_train=2, n_test=6, grid=3, d_visual=8, n_concepts=3,
                    n_segments=2, n_labels=3, seg_side_min=1, seg_side_max=1,
                    seed=seed)
    _, test_s, meta = generate_dataset(spec)
    cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=8, d_model=8,
                      vocab_size=12, grid=3, max_text_len=6)
    return VisualDecoder(cfg, seed=1), test_s, meta


class TestEvaluate:
    def test_untrained_smoke_totality(self):
        model, test_s, _ = eval_setup()
        report = evaluate(model, None, test_s)
        assert report.n == len(test_s)
        assert np.isfinite([report.coverage, report.intensity,
                            report.accuracy]).all()
        assert report.coverage == pytest.approx(
            np.mean([r.coverage for r in report.per_sample]))
        assert report.intensity == pytest.approx(
            np.mean([r.intensity for r in report.per_sample]))

    def test_uniform_attention_hand_computation(self):
        model, test_s, _ = eval_setup()
        model.params["layer0.wq"].data = np.zeros((8, 8))
        model.params["layer0.wk"].data = np.zeros((8, 8))
        report = evaluate(model, None, test_s[:1])
        s = test_s[0]
        n = s.grid * s.grid
        # the emitting row sees n visual keys plus the 2 prompt tokens
        per_token = 1.0 / (n + 2)
        assert report.per_sample[0].intensity == pytest.approx(per_token)
        assert report.per_sample[0].coverage == 0.0

    def test_deterministic_reports(self):
        model, test_s, _ = eval_setup()
        a = evaluate(model, None, test_s)
        b = evaluate(model, None, test_s)
        assert a.to_dict() == b.to_dict()

    def test_report_schema_and_save(self, tmp_path):
        model, test_s, _ = eval_setup()
        report = evaluate(model, None, test_s)
        save_report(tmp_path / "r.json", report)
        import json
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["schema"] == "attnalign-report-1"
        assert set(doc["aggregates"]) == {"coverage", "intensity", "accuracy",
                                          "n", "tau"}

    def test_compatibility_error(self):
        from attnalign.metrics import check_compatibility
        model, test_s, _ = eval_setup()
        bad = VisualDecoder(ModelConfig(n_layers=1, n_heads=1, d_visual=8,
                                        d_model=8, vocab_size=12, grid=4,
                                        max_text_len=6), seed=0)
        with pytest.raises(CompatibilityError):
            check_compatibility(bad, test_s)

    def test_compatibility_checks_every_sample(self):
        from attnalign.metrics import check_compatibility
        model, test_s, _ = eval_setup()
        last = replace(test_s[-1], answer=(model.config.vocab_size,))
        with pytest.raises(CompatibilityError):
            check_compatibility(model, list(test_s[:-1]) + [last])

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_report_matches_one_process(self, processes, n):
        model, test_s, _ = eval_setup()
        processes(1)
        want = evaluate(model, None, test_s).to_dict()
        processes(n)
        assert evaluate(model, None, test_s).to_dict() == want
        assert_no_children()

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_error_matches_one_process(self, processes, n):
        model, test_s, _ = eval_setup()
        # the last sample is in a helper's chunk
        bad = list(test_s[:-1]) + [replace(test_s[-1], roi=(99,))]
        messages = []
        for count in (1, n):
            processes(count)
            with pytest.raises(MetricError) as info:
                evaluate(model, None, bad)
            assert_no_children()
            messages.append(str(info.value))
        assert messages[1] == messages[0]

    def test_empty_evaluation_rejected(self):
        model, _, _ = eval_setup()
        with pytest.raises(MetricError):
            evaluate(model, None, [])
