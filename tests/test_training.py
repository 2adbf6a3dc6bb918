from dataclasses import replace

import numpy as np
import pytest

from attnalign import autodiff as ad
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.autodiff import Tensor
from attnalign.data import DataSpec, generate_dataset
from attnalign.errors import ConfigurationError, DegenerateAttentionError, \
    DivergenceError
from attnalign.metrics import evaluate
from attnalign.model import ModelConfig, VisualDecoder
from attnalign.training import TASK_PROFILES, AdamW, TrainConfig, \
    alignment_loss, compute_weak_labels, lm_loss, total_loss, train
from attnalign.weaklabels import Segment, WeakLabelSet

from conftest import assert_no_children, make_visual


def labels_of(*token_sets):
    segs = tuple(Segment(id=f"s{i}", token_indices=ts, source="test")
                 for i, ts in enumerate(token_sets))
    sims = {s.id: 1.0 for s in segs}
    return WeakLabelSet(segments=segs, similarities=sims, tau=1.0,
                        k=len(segs))


def small_task(n_train=6, seed=0, n_test=2, **spec_kw):
    spec = DataSpec(n_train=n_train, n_test=n_test, grid=3, d_visual=8,
                    n_concepts=3, n_segments=2, n_labels=3, seg_side_min=1,
                    seg_side_max=1, seed=seed, **spec_kw)
    return generate_dataset(spec)


def small_model():
    cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=8, d_model=8,
                      vocab_size=12, grid=3, max_text_len=6)
    return VisualDecoder(cfg, seed=0)


SMALL_ADAPTER = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                              n_k_experts=3, top_b=2)


class TestAlignmentLoss:
    def test_all_mass_inside_single_segment(self):
        m = Tensor(np.array([0.5, 0.5, 0.0, 0.0]))
        loss, fracs = alignment_loss(m, labels_of((0, 1)))
        assert abs(float(loss.data)) < 1e-12
        assert fracs == (1.0,)

    def test_uniform_half_coverage(self):
        m = Tensor(np.full(4, 0.25))
        loss, _ = alignment_loss(m, labels_of((0, 1)))
        assert abs(float(loss.data) - 0.25) < 1e-12

    def test_two_segment_hand_value(self):
        # fractions 0.8 and 0.3 need overlapping segments on one unit of mass
        m = Tensor(np.array([0.5, 0.3, 0.2, 0.0]))
        loss, fracs = alignment_loss(m, labels_of((0, 1), (1,)))
        assert fracs == pytest.approx((0.8, 0.3), abs=1e-15)
        assert abs(float(loss.data) - (0.04 + 0.49)) < 1e-12

    def test_bounded_by_segment_count(self, rng):
        for _ in range(20):
            m = Tensor(rng.random(6) + 1e-9)
            segs = [(0, 1), (2,), (3, 4, 5)]
            loss, _ = alignment_loss(m, labels_of(*segs))
            assert 0.0 <= float(loss.data) <= len(segs)

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            alignment_loss(Tensor(np.zeros(4)), labels_of((0,)))

    def test_differentiable(self, rng):
        m = Tensor(rng.random(5) + 0.1, requires_grad=True)
        err = ad.finite_diff_check(
            lambda t: alignment_loss(t, labels_of((0, 2), (4,)))[0], m, 1e-6)
        assert err < 1e-6


class TestLmLoss:
    def test_uniform_logits(self):
        model = small_model()
        # force uniform logits: zero gain makes hidden constant, head zero
        model.params["ln_f.g"].data = np.zeros(8)
        model.params["w_out"].data = np.zeros_like(model.params["w_out"].data)
        rng = np.random.default_rng(0)
        out = model.forward(make_visual(model.config, rng), (1, 2), (3,))
        loss = lm_loss(out, (3,))
        assert abs(float(loss.data) - np.log(model.config.vocab_size)) < 1e-12

    def test_gradient_check(self, rng):
        logits = Tensor(rng.normal(size=(3, 8)), requires_grad=True)

        class Out:
            def __init__(self):
                self.logits = logits

            def answer_logit_rows(self):
                return (0, 1, 2)

        err = ad.finite_diff_check(lambda t: ad.cross_entropy(t, [1, 2, 3]),
                                   logits, 1e-5)
        assert err < 1e-4


class TestTotalLoss:
    def setup_case(self, lam, seed=0):
        train, _, meta = small_task(seed=seed)
        model = small_model()
        adapters = AdapterSet(1, 8, 32, SMALL_ADAPTER, seed=1)
        cfg = TrainConfig(lambda_align=lam, heads_r=1, weak_k=1,
                          adapter=SMALL_ADAPTER, seed=0)
        labels = compute_weak_labels(train, meta, k=1)
        return model, adapters, train, labels, cfg

    def test_lambda_zero_additive_identity(self):
        model, adapters, train_s, labels, cfg = self.setup_case(0.0)
        loss, bd = total_loss(model, adapters, train_s[0], None, cfg)
        assert bd.total == bd.llm and bd.align == 0.0

    def test_arithmetic_combination(self):
        model, adapters, train_s, labels, cfg = self.setup_case(0.1)
        loss, bd = total_loss(model, adapters, train_s[0], labels[train_s[0].id],
                              cfg)
        assert abs(bd.total - (bd.llm + 0.1 * bd.align)) < 1e-12

    def test_r_zero_with_lambda_positive_rejected(self):
        model, adapters, train_s, labels, cfg = self.setup_case(0.1)
        bad = TrainConfig(lambda_align=0.1, heads_r=0, adapter=SMALL_ADAPTER)
        with pytest.raises(ConfigurationError):
            total_loss(model, adapters, train_s[0], labels[train_s[0].id], bad)

    def test_missing_labels_rejected(self):
        model, adapters, train_s, labels, cfg = self.setup_case(0.1)
        with pytest.raises(ConfigurationError):
            total_loss(model, adapters, train_s[0], None, cfg)

    def test_full_gradient_finite_difference(self):
        """Every trainable parameter, including both gate MLPs."""
        model, adapters, train_s, labels, cfg = self.setup_case(0.1)
        r = np.random.default_rng(7)
        for _, t in adapters.params():
            t.data = r.normal(0.0, 0.3, size=t.data.shape)
        sample = train_s[0]

        def f():
            return total_loss(model, adapters, sample, labels[sample.id], cfg)[0]

        params = [t for _, t in adapters.params()]
        err = ad.finite_diff_check_params(f, params, 1e-4)
        assert err < 1e-3


class TestAdamW:
    def test_zero_lr_no_motion(self, rng):
        params = [("p", Tensor(rng.normal(size=(3, 2)), requires_grad=True))]
        before = params[0][1].data.copy()
        opt = AdamW(params, lr=0.0)
        params[0][1].grad = rng.normal(size=(3, 2))
        opt.step()
        assert np.array_equal(params[0][1].data, before)

    def test_step_direction(self):
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1)
        p.grad = np.array([[1.0]])
        opt.step()
        assert p.data[0, 0] < 1.0


class TestComputeWeakLabels:
    @pytest.mark.parametrize("n_background", [0, 3])
    def test_background_count_comes_from_the_dataset(self, n_background):
        train_s, _, meta = generate_dataset(DataSpec(
            n_train=4, n_test=1, seed=1, n_background_segments=n_background))
        labels = compute_weak_labels(train_s, meta, k=1)
        for s in train_s:
            assert len(s.segments) == 3
            assert len(labels[s.id].similarities) == 3 + n_background


class TestTrainLoop:
    def run_small(self, lam=0.0, epochs=2, lr=1e-3, seed=0, **kw):
        train_s, test_s, meta = small_task(seed=3)
        model = small_model()
        cfg = TrainConfig(lambda_align=lam, epochs=epochs, lr=lr, batch_size=3,
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER,
                          seed=seed, **kw)
        labels = compute_weak_labels(train_s, meta, k=1) if lam > 0 else None
        return train(model, train_s, cfg, weak_labels=labels), model

    def test_lr_zero_parameters_and_losses_frozen(self):
        result, _ = self.run_small(lr=0.0, epochs=3)
        llms = [log["train_llm"] for log in result.epoch_logs]
        assert llms[0] == llms[1] == llms[2]

    def test_zero_init_adapters_step0_losses_match_frozen_base(self):
        train_s, _, meta = small_task(seed=3)
        model = small_model()
        cfg = TrainConfig(lambda_align=0.0, epochs=1, lr=0.0, batch_size=3,
                          adapter=SMALL_ADAPTER, seed=0)
        result = train(model, train_s, cfg)
        base_losses = []
        for s in train_s:
            loss, bd = total_loss(model, None, s, None, cfg)
            base_losses.append(bd.llm)
        assert abs(result.epoch_logs[0]["train_llm"] - np.mean(base_losses)) \
            < 1e-12

    def test_profiles_table(self):
        assert TASK_PROFILES["slake"].epochs == 6
        assert TASK_PROFILES["slake"].lambda_align == 0.1
        assert TASK_PROFILES["vqa-rad"].lambda_align == 0.06
        assert TASK_PROFILES["mimic-cxr"].epochs == 12

    def test_deterministic_training(self, tmp_path):
        from attnalign.model import save_checkpoint
        paths = []
        for name in ("r1", "r2"):
            result, model = self.run_small(lam=0.1, epochs=2, lr=1e-3, seed=5)
            p = tmp_path / f"{name}.json"
            save_checkpoint(p, model, result.adapters)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_divergence_abort_names_step(self):
        train_s, _, meta = small_task(seed=3)
        model = small_model()
        model.params["w_out"].data[0, 0] = np.nan
        cfg = TrainConfig(lambda_align=0.0, epochs=1, lr=1e-3, batch_size=3,
                          adapter=SMALL_ADAPTER, seed=0)
        with pytest.raises(DivergenceError, match="step 0"):
            train(model, train_s, cfg)

    def test_run_dir_artifacts(self, tmp_path):
        train_s, test_s, meta = small_task(seed=3)
        model = small_model()
        cfg = TrainConfig(lambda_align=0.1, epochs=1, lr=1e-3, batch_size=3,
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER, seed=0,
                          heatmap_sample_ids=(train_s[0].id,))
        labels = compute_weak_labels(train_s, meta, k=1)
        train(model, train_s, cfg, weak_labels=labels, out_dir=tmp_path / "run")
        run = tmp_path / "run"
        assert (run / "config.json").exists()
        assert (run / "metrics.jsonl").exists()
        assert (run / "checkpoint.json").exists()
        assert (run / "heatmaps" / f"{train_s[0].id}.mean.csv").exists()
        assert (run / "heatmaps" / f"{train_s[0].id}.mean.pgm").exists()


def shuffled_order(cfg: TrainConfig, n: int) -> np.ndarray:
    """The sample order of train()'s first epoch."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2)
    order = np.arange(n)
    np.random.default_rng(int(seeds[1])).shuffle(order)
    return order


class TestSplitAcrossProcesses:
    """A batch's samples split across processes train exactly as in one.

    Seven samples in batches of 3 give chunks of 2 + 1 (or 1 + 1 + 1) and
    a last batch of one sample, which runs in the main process alone.
    """

    def task(self):
        train_s, test_s, meta = small_task(n_train=7, seed=3, n_test=3)
        cfg = TrainConfig(lambda_align=0.1, epochs=2, lr=1e-3, batch_size=3,
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER, seed=0,
                          heatmap_sample_ids=(train_s[0].id,))
        labels = compute_weak_labels(train_s, meta, k=1)
        return train_s, test_s, cfg, labels

    @pytest.mark.parametrize("n", [2, 3])
    def test_run_dir_bytes_match_one_process(self, tmp_path, processes, n):
        runs = []
        for count in (1, n):
            processes(count)
            train_s, test_s, cfg, labels = self.task()

            def eval_fn(m, adapters):
                report = evaluate(m, adapters, test_s)
                return {"coverage": report.coverage, "accuracy": report.accuracy}

            out = tmp_path / str(count)
            train(small_model(), train_s, cfg, weak_labels=labels,
                  eval_fn=eval_fn, out_dir=out)
            assert_no_children()
            runs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(runs[0]) == 5
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradients_summed_as_backward_accumulates(self, processes, n):
        processes(n)
        train_s, _, cfg, labels = self.task()
        cfg = replace(cfg, epochs=1, batch_size=len(train_s), lr=0.0)
        model = small_model()
        result = train(model, train_s, cfg, weak_labels=labels)
        params = [p for _, p in result.adapters.params()]
        summed = [p.grad for p in params]
        # one batch at lr 0: the adapters are still the initial ones
        for p in params:
            p.zero_grad()
        for idx in shuffled_order(cfg, len(train_s)):
            s = train_s[idx]
            total_loss(model, result.adapters, s, labels[s.id], cfg)[0].backward()
        for p, g in zip(params, summed):
            assert np.array_equal(g, p.grad)

    @pytest.mark.parametrize("n", [2, 3])
    def test_helper_error_matches_one_process(self, processes, n):
        messages = []
        for count in (1, n):
            processes(count)
            train_s, _, cfg, labels = self.task()
            # the last sample of the first batch falls in a helper's chunk
            victim = train_s[shuffled_order(cfg, len(train_s))[2]]
            labels[victim.id] = replace(labels[victim.id], segments=())
            with pytest.raises(ConfigurationError) as info:
                train(small_model(), train_s, cfg, weak_labels=labels)
            assert_no_children()
            messages.append(str(info.value))
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_divergence_in_a_helper_names_the_step(self, processes, n):
        processes(n)
        train_s, _, cfg, labels = self.task()
        train_s[shuffled_order(cfg, len(train_s))[2]].features[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="step 2$"):
            train(small_model(), train_s, cfg, weak_labels=labels)
        assert_no_children()
