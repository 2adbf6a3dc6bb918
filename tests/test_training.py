import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from attnalign import attention as attn
from attnalign import autodiff as ad
from attnalign import cli, training
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.autodiff import Tensor
from attnalign.data import DataSpec, generate_dataset, propose_segments, \
    write_samples
from attnalign.errors import CompatibilityError, ConfigurationError, \
    DegenerateAttentionError, DivergenceError, ParameterError, SelectionError
from attnalign.metrics import evaluate
from attnalign.model import ForwardOutput, ModelConfig, VisualDecoder
from attnalign.training import AdamW, TrainConfig, check_heads, alignment_loss, \
    compute_weak_labels, lm_loss, total_loss, train
from attnalign.weaklabels import Segment, SyntheticOracleBackend, \
    select_weak_labels

from conftest import assert_no_children, make_visual
from oracles import finite_diff_check, finite_diff_check_params
from references import PerTensorAdamW, alignment_loss_composed, \
    refined_map_all_heads, total_loss_rows


def labels_of(*token_sets):
    """The token sets of weak-label segments, each sorted as a Segment keeps it."""
    return [Segment(id=f"s{i}", token_indices=ts).token_indices
            for i, ts in enumerate(token_sets)]


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

    def test_no_segment_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^alignment loss needs at least one segment$"):
            alignment_loss(Tensor(np.full(4, 0.25)), [])

    def test_empty_segment_rejected(self):
        # used to raise "ValueError: min() arg is an empty sequence"
        with pytest.raises(ConfigurationError,
                           match="^alignment loss segment 1 has no tokens$"):
            alignment_loss(Tensor(np.full(4, 0.25)), [[0], []])

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            alignment_loss(Tensor(np.zeros(4)), labels_of((0,)))

    @pytest.mark.parametrize("labels,bad", [(labels_of((0,), (2, 4)), 4),
                                            ([(0,), (-1,)], -1)])
    def test_segment_outside_the_map_rejected(self, labels, bad):
        # an IndexError once; a weak label that does not fit the model's
        # visual tokens is a mismatch between the labels and the model
        with pytest.raises(CompatibilityError,
                           match=f"weak-label token {bad} outside the map of 4 "):
            alignment_loss(Tensor(np.full(4, 0.25)), labels)

    @pytest.mark.parametrize("form", [
        list, np.array, lambda ts: np.array(ts, dtype=np.int32)],
        ids=["lists", "arrays", "int32-arrays"])
    def test_any_sequence_of_token_indices_gives_the_same_bits(self, rng,
                                                              form):
        data = rng.random(6) + 0.1
        sets = labels_of((0, 3), (5,), (1, 2, 4))
        results = []
        for token_sets in (sets, [form(ts) for ts in sets]):
            m = Tensor(data.copy(), requires_grad=True)
            loss, fracs = alignment_loss(m, token_sets)
            loss.backward()
            results.append((loss.data.tobytes(), fracs, m.grad.tobytes()))
        assert results[0] == results[1]

    def test_differentiable(self, rng):
        m = Tensor(rng.random(5) + 0.1, requires_grad=True)
        err = finite_diff_check(
            lambda t: alignment_loss(t, labels_of((0, 2), (4,)))[0], m, 1e-6)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_composition(self, seed):
        # 50 maps per seed: K = 1-5 segments that may overlap, some zero
        # entries, upstream gradients of either sign; signed zeros count
        r = np.random.default_rng(seed)
        for _ in range(50):
            n = int(r.integers(3, 12))
            segs = [tuple(int(t) for t in r.choice(n, int(r.integers(1, n + 1)),
                                                    replace=False))
                    for _ in range(int(r.integers(1, 6)))]
            data = r.random(n) * (r.random(n) < 0.8)
            data[r.integers(n)] += 0.1
            scale = float(r.normal())
            results = []
            labels = labels_of(*segs)
            for build in (lambda m: alignment_loss(m, labels),
                          lambda m: alignment_loss_composed(m, labels)):
                m = Tensor(data.copy(), requires_grad=True)
                loss, fracs = build(m)
                ad.mul(loss, scale).backward()
                results.append((loss.data.tobytes(), np.array(fracs).tobytes(),
                                m.grad.tobytes()))
            assert results[0] == results[1], segs


class TestLmLoss:
    def test_uniform_logits(self):
        model = small_model()
        # force uniform logits: zero gain makes hidden constant, head zero
        model.params["ln_f.g"] = np.zeros(8)
        model.params["w_out"] = np.zeros_like(model.params["w_out"])
        rng = np.random.default_rng(0)
        out = model.forward(make_visual(model.config, rng), (1, 2), (3,), keep_last=2)
        loss = lm_loss(out, (3,))
        assert abs(float(loss.data) - np.log(model.config.vocab_size)) < 1e-12

    def test_gradient_check(self, rng):
        # three answer tokens: the pass keeps 4 rows, and the first 3 predict
        logits = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        err = finite_diff_check(lambda t: lm_loss(ForwardOutput(t, None), [1, 2, 3]),
                                logits, 1e-5)
        assert err < 1e-4

    @pytest.mark.parametrize("keep", [1, 3, None])
    def test_pass_must_keep_the_answer_rows(self, rng, keep):
        # a pass keeping one row has the answer's query row only; cross
        # entropy over its first row would score the wrong row
        model = small_model()
        out = model.forward(make_visual(model.config, rng), (1, 2), (3,), keep_last=keep)
        message = f"^lm_loss reads the last 2 rows; the pass kept {out.logits.shape[0]}$"
        with pytest.raises(SelectionError, match=message):
            lm_loss(out, (3,))


class TestTrainConfig:
    @pytest.mark.parametrize("name,value", [
        ("lambda_align", -0.1), ("lambda_align", math.nan), ("lr", -1e-3),
        ("seed", -1), ("heads_r", -1), ("epochs", 0), ("batch_size", 0),
        ("weak_k", 0)])
    def test_bounds_checked_when_built(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be >= "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lambda_align", "lr"])
    def test_infinity_refused(self, name):
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got inf$"):
            TrainConfig(**{name: math.inf})

    def test_lowest_values_accepted(self):
        cfg = TrainConfig(lambda_align=0.0, lr=0.0, seed=0, heads_r=0, epochs=1,
                          batch_size=1, weak_k=1)
        assert not cfg.aligned
        with pytest.raises(AttributeError):
            cfg.heads_r = 2    # frozen, so the checks hold for its lifetime

    def test_aligned_needs_lambda_and_heads(self):
        assert TrainConfig(lambda_align=0.1, heads_r=1).aligned
        assert not TrainConfig(lambda_align=0.0, heads_r=1).aligned
        assert not TrainConfig(lambda_align=0.1, heads_r=0).aligned

    def test_check_heads(self):
        model = ModelConfig(n_layers=2, n_heads=2, d_model=8)
        check_heads(TrainConfig(heads_r=4), model, "here")
        with pytest.raises(ConfigurationError, match="^here: heads_r=5 is more "
                           "than the 4 attention heads of the model$"):
            check_heads(TrainConfig(heads_r=5), model, "here")


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

    def test_r_zero_gives_the_lambda_zero_loss(self):
        # used to raise a ConfigurationError; the CLI and the sweep set
        # lambda to 0 themselves, so R = 0 now means no alignment everywhere
        model, adapters, train_s, labels, cfg = self.setup_case(0.1)
        r_zero = replace(cfg, heads_r=0)
        assert not r_zero.aligned and cfg.aligned
        _, bd = total_loss(model, adapters, train_s[0], labels[train_s[0].id],
                           r_zero)
        _, bd0 = total_loss(model, adapters, train_s[0], None,
                            replace(cfg, lambda_align=0.0))
        assert bd == bd0

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
        err = finite_diff_check_params(f, params, 1e-4)
        assert err < 1e-3


def graph_size(t: Tensor) -> int:
    """Tensors reachable from ``t`` through recorded parents, ``t`` included."""
    seen, todo = set(), [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


class TestFusedAlignmentPath:
    """The refined map and the alignment energy, one tape node each, give
    adapter gradients bit for bit those of the generic-op composition."""

    def setup_case(self, k):
        train_s, _, meta = small_task()
        model = VisualDecoder(ModelConfig(n_layers=2, n_heads=2, d_visual=8, d_model=8,
                                          vocab_size=12, grid=3, max_text_len=6),
                              seed=0)
        adapters = AdapterSet(2, 8, model.config.d_ff, SMALL_ADAPTER, seed=1)
        r = np.random.default_rng(7)
        for _, t in adapters.params():
            t.data = r.normal(0.0, 0.3, size=t.data.shape)
        labels = compute_weak_labels(train_s, meta, k=k)
        assert all(len(labels[s.id]) == k for s in train_s)
        return model, adapters, train_s, labels

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("r", [1, 2, 4])  # R = 4 is every head of 2 x 2
    def test_adapter_gradients_match_composition(self, monkeypatch, k, r):
        model, adapters, train_s, labels = self.setup_case(k)
        cfg = TrainConfig(lambda_align=0.1, heads_r=r, weak_k=k,
                          adapter=SMALL_ADAPTER)

        def run():
            out = []
            for s in train_s[:3]:
                for _, t in adapters.params():
                    t.grad = None
                loss, breakdown = total_loss(model, adapters, s, labels[s.id], cfg)
                loss.backward()
                out.append((breakdown, [None if t.grad is None else t.grad.tobytes()
                                        for _, t in adapters.params()]))
            return out

        fused = run()
        monkeypatch.setattr(attn, "refined_map", refined_map_all_heads)
        monkeypatch.setattr(training, "alignment_loss", alignment_loss_composed)
        assert run() == fused

    @pytest.mark.parametrize("k", [1, 4])
    def test_alignment_path_adds_five_nodes(self, k):
        # the refined map, the energy, lambda, lambda * energy, the sum
        model, adapters, train_s, labels = self.setup_case(k)
        sizes = [graph_size(total_loss(model, adapters, train_s[0],
                                       labels[train_s[0].id],
                                       TrainConfig(lambda_align=lam, heads_r=2,
                                                   weak_k=k, adapter=SMALL_ADAPTER))[0])
                 for lam in (0.0, 0.1)]
        assert sizes[1] - sizes[0] == 5


class TestKeptRowsLoss:
    """total_loss keeps only the answer-logit and answer query rows of the
    last layer, and matches the row-set readers on them and on the all-rows
    pass."""

    ARMS = {"aligned": (SMALL_ADAPTER, 0.1),
            "dense": (replace(SMALL_ADAPTER, use_qmoe=False, use_kmoe=False), 0.0)}

    def setup_case(self, arm, k):
        acfg, lam = self.ARMS[arm]
        train_s, _, meta = small_task()
        model = VisualDecoder(ModelConfig(n_layers=2, n_heads=2, d_visual=8, d_model=8,
                                          vocab_size=12, grid=3, max_text_len=6),
                              seed=0)
        adapters = AdapterSet(2, 8, model.config.d_ff, acfg, seed=1)
        r = np.random.default_rng(7)
        for _, t in adapters.params():
            t.data = r.normal(0.0, 0.3, size=t.data.shape)
        cfg = TrainConfig(lambda_align=lam, heads_r=2, weak_k=k, adapter=acfg)
        return model, adapters, train_s, compute_weak_labels(train_s, meta, k=k), cfg

    @pytest.mark.parametrize("n_answer", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_loss_and_gradients_match_the_row_set_readers(self, monkeypatch, arm, k,
                                                          n_answer):
        # bit for bit over the same suffix, and within 1e-14 of the
        # all-rows pass, the readers naming the answer rows in both
        model, adapters, train_s, labels, cfg = self.setup_case(arm, k)
        r = np.random.default_rng(n_answer)
        samples = [replace(s, answer=tuple(int(t) for t in r.integers(0, 12, n_answer)))
                   for s in train_s[:3]]
        kept = []
        forward = VisualDecoder.forward

        def spy(self, *args, keep_last=None):
            kept.append(keep_last)
            return forward(self, *args, keep_last=keep_last)

        def run(build):
            out = []
            for s in samples:
                for _, t in adapters.params():
                    t.grad = None
                loss = build(s)
                loss.backward()
                out.append((loss.data.tobytes(),
                            [t.grad.copy() for _, t in adapters.params()]))
            return out

        monkeypatch.setattr(VisualDecoder, "forward", spy)
        cut = run(lambda s: total_loss(model, adapters, s, labels[s.id], cfg)[0])
        # two prompt tokens: the answer's logit and query rows
        assert kept == [n_answer + 1] * 3
        same = run(lambda s: total_loss_rows(model, adapters, s, labels[s.id], cfg,
                                             keep_last=n_answer + 1))
        full = run(lambda s: total_loss_rows(model, adapters, s, labels[s.id], cfg))
        assert kept == [n_answer + 1] * 6 + [None] * 3
        for (l_cut, g_cut), (l_same, g_same), (l_all, g_all) in zip(cut, same, full):
            assert l_cut == l_same
            assert all(np.array_equal(a, b) for a, b in zip(g_cut, g_same))
            assert abs(np.frombuffer(l_cut)[0] - np.frombuffer(l_all)[0]) < 1e-14
            for a, b in zip(g_cut, g_all):
                assert np.max(np.abs(a - b)) < 1e-14

    def test_gradients_pass_finite_differences(self):
        model, adapters, train_s, labels, cfg = self.setup_case("aligned", 1)
        sample = train_s[0]

        def f():
            return total_loss(model, adapters, sample, labels[sample.id], cfg)[0]

        params = [t for _, t in adapters.params()]
        assert finite_diff_check_params(f, params, 1e-4) < 1e-3


class TestAdamW:
    def test_zero_lr_no_motion(self, rng):
        params = rng.normal(size=(3, 2))
        before = params.copy()
        opt = AdamW(params, lr=0.0)
        opt.step(rng.normal(size=(3, 2)))
        assert np.array_equal(params, before)

    def test_step_direction(self):
        p = np.array([[1.0]])
        opt = AdamW(p, lr=0.1)
        opt.step(np.array([[1.0]]))
        assert p[0, 0] < 1.0

    def test_flat_step_matches_per_tensor_steps_bit_for_bit(self, rng):
        shapes = [(3, 4), (5,), (2, 3, 2)]
        start = [rng.normal(size=s) for s in shapes]
        named = [(f"p{i}", Tensor(a.copy(), requires_grad=True))
                 for i, a in enumerate(start)]
        packed = [Tensor(a.copy(), requires_grad=True) for a in start]
        reference = PerTensorAdamW(named, lr=3e-3)
        flat, grad = training._pack(packed)
        opt = AdamW(flat, lr=3e-3)
        bounds = np.cumsum([math.prod(s) for s in shapes])[:-1]
        for step in range(4):
            grads = [rng.normal(size=s) for s in shapes]
            grads[1] = np.zeros(shapes[1])   # no sample reached this tensor
            for (_, p), t, g in zip(named, packed, grads):
                p.grad = g.copy()
                t.grad[...] = g
            if step % 2:
                named[1][1].grad = None   # counted as zero, as before
            reference.step(grad_scale=1.0 / 8)
            opt.step(grad, grad_scale=1.0 / 8)
            for i, ((_, p), t) in enumerate(zip(named, packed)):
                assert t.data.tobytes() == p.data.tobytes()
                assert np.split(opt.m, bounds)[i].tobytes() == reference.m[i].tobytes()
                assert np.split(opt.v, bounds)[i].tobytes() == reference.v[i].tobytes()
            expected = np.concatenate([g.ravel() for g in grads])
            assert grad.tobytes() == expected.tobytes()   # the step left it alone


class TestComputeWeakLabels:
    @pytest.mark.parametrize("n_background", [0, 3])
    def test_background_count_comes_from_the_dataset(self, n_background):
        train_s, _, meta = generate_dataset(DataSpec(
            n_train=4, n_test=1, seed=1, n_background_segments=n_background))
        labels = compute_weak_labels(train_s, meta, k=10)   # keeps them all
        for s in train_s:
            assert len(s.segments) == 3
            candidates = propose_segments(s, n_background)
            assert len(candidates) == len(labels[s.id]) == 3 + n_background


    def test_one_tuple_of_segments_per_sample(self):
        train_s, _, meta = small_task()
        labels = compute_weak_labels(train_s, meta, k=2)
        assert list(labels) == [s.id for s in train_s]
        for s in train_s:
            assert isinstance(labels[s.id], tuple) and len(labels[s.id]) == 2
            assert all(isinstance(g, Segment) for g in labels[s.id])
            assert labels[s.id][0].token_indices == s.roi   # at noise 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_noise_and_seed_reach_the_backend(self, seed):
        train_s, _, meta = small_task()
        labels = compute_weak_labels(train_s, meta, k=2, noise=0.5, seed=seed)
        backend = SyntheticOracleBackend(meta.concept_vectors,
                                         meta.concept_base, 0.5, seed)
        for s in train_s:
            candidates = propose_segments(s, meta.n_background_segments)
            assert labels[s.id] == select_weak_labels(
                candidates, s.prompt, s.features, backend, 2)


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

    def test_adapters_own_their_data_after_training(self):
        # during train() they are views into the shared flat vector
        result, _ = self.run_small(epochs=1)
        assert all(p.data.flags.owndata and p.data.flags.writeable
                   for _, p in result.adapters.params())

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

    @staticmethod
    def step_scales(monkeypatch, n_train, batch_size):
        """The gradient scale of each optimizer step of a one-epoch run."""
        scales = []
        step = AdamW.step

        def recording_step(self, grad, grad_scale=1.0):
            scales.append(grad_scale)
            step(self, grad, grad_scale)

        monkeypatch.setattr(AdamW, "step", recording_step)
        train_s, _, _ = small_task(n_train=n_train)
        cfg = TrainConfig(lambda_align=0.0, epochs=1, batch_size=batch_size,
                          adapter=SMALL_ADAPTER)
        train(small_model(), train_s, cfg)
        return scales

    def test_partial_last_batch_scaled_by_its_own_size(self, monkeypatch):
        # batches of 8 and 2
        assert self.step_scales(monkeypatch, 10, 8) == [1 / 8, 1 / 2]

    @pytest.mark.parametrize("n_train,batch_size,scales", [
        (9, 4, [1 / 4, 1 / 4, 1.0]),
        (8, 4, [1 / 4, 1 / 4]),
        (3, 8, [1 / 3]),
    ], ids=["last-batch-of-one", "no-partial-batch", "one-short-batch"])
    def test_each_batch_scaled_by_its_own_size(self, monkeypatch, n_train,
                                               batch_size, scales):
        assert self.step_scales(monkeypatch, n_train, batch_size) == scales

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
        model.params["w_out"][0, 0] = np.nan
        cfg = TrainConfig(lambda_align=0.0, epochs=1, lr=1e-3, batch_size=3,
                          adapter=SMALL_ADAPTER, seed=0)
        with pytest.raises(DivergenceError, match="step 0"):
            train(model, train_s, cfg)

    def test_run_dir_artifacts(self, tmp_path):
        train_s, test_s, meta = small_task(seed=3)
        model = small_model()
        cfg = TrainConfig(lambda_align=0.1, epochs=1, lr=1e-3, batch_size=3,
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER, seed=0)
        labels = compute_weak_labels(train_s, meta, k=1)
        train(model, train_s, cfg, weak_labels=labels, out_dir=tmp_path / "run")
        run = tmp_path / "run"
        assert sorted(p.name for p in run.iterdir()) == \
            ["checkpoint.json", "config.json", "metrics.jsonl"]

    def test_visualize_writes_the_heatmaps_of_the_trained_adapters(self, tmp_path):
        # what train() wrote to heatmaps/ for a config's heatmap_sample_ids:
        # the greedy answer's mean map from the adapters in memory
        train_s, test_s, meta = small_task(seed=3)
        model = small_model()
        cfg = TrainConfig(lambda_align=0.1, epochs=1, lr=1e-3, batch_size=3,
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER, seed=0)
        labels = compute_weak_labels(train_s, meta, k=1)
        run = tmp_path / "run"
        result = train(model, train_s, cfg, weak_labels=labels, out_dir=run)
        picked = [train_s[0], train_s[4]]
        for s in picked:
            (gen,) = model.generate_greedy(s.features[None], [s.prompt],
                                           max_len=len(s.answer),
                                           adapters=result.adapters)
            heat = attn.generated_query_mean_map(gen.stacks)
            attn.export_heatmaps(tmp_path / "in-memory", s.id, "mean", heat, s.grid)
        write_samples(tmp_path / "train.jsonl", train_s)
        assert cli.main(["visualize", "--checkpoint", str(run / "checkpoint.json"),
                         "--data", str(tmp_path / "train.jsonl"), "--ids",
                         ",".join(s.id for s in picked), "--kind", "mean",
                         "--out", str(tmp_path / "visualized")]) == 0
        expected = {p.name: p.read_bytes()
                    for p in (tmp_path / "in-memory").iterdir()}
        assert len(expected) == 4
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "visualized").iterdir()} == expected


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
                          weak_k=1, heads_r=1, adapter=SMALL_ADAPTER, seed=0)
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
        assert len(runs[0]) == 3
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
            p.grad = None
        for idx in shuffled_order(cfg, len(train_s)):
            s = train_s[idx]
            total_loss(model, result.adapters, s, labels[s.id], cfg)[0].backward()
        for p, g in zip(params, summed):
            assert np.array_equal(g, p.grad)

    def test_helper_results_carry_no_gradient(self, processes, monkeypatch):
        processes(2)
        train_s, _, cfg, labels = self.task()
        cfg = replace(cfg, epochs=1, batch_size=len(train_s))
        sizes = []
        load = pickle.load

        def measured(pipe):
            obj = load(pipe)
            sizes.append(len(pickle.dumps(obj, 5)))
            return obj

        monkeypatch.setattr(pickle, "load", measured)
        result = train(small_model(), train_s, cfg, weak_labels=labels)
        # one batch, so the main process receives one result message; the
        # helper's 3 samples' gradients would take 3 x 8 bytes per parameter
        n_params = sum(p.data.size for _, p in result.adapters.params())
        assert 3 * 8 * n_params > 4096
        assert len(sizes) == 1 and sizes[0] < 4096

    @pytest.mark.parametrize("n", [2, 3])
    def test_helper_error_matches_one_process(self, processes, n):
        messages = []
        for count in (1, n):
            processes(count)
            train_s, _, cfg, labels = self.task()
            # the last sample of the first batch falls in a helper's chunk
            victim = train_s[shuffled_order(cfg, len(train_s))[2]]
            labels[victim.id] = ()
            with pytest.raises(ConfigurationError) as info:
                train(small_model(), train_s, cfg, weak_labels=labels)
            assert_no_children()
            messages.append(str(info.value))
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pos", [0, 2], ids=["main-chunk", "helper-chunk"])
    def test_divergence_in_a_helper_names_the_step(self, processes, n, pos):
        # position 2 falls in a helper's chunk; position 0 is the main
        # process's own, whose loss raises while the helpers still owe
        # their results
        processes(n)
        train_s, _, cfg, labels = self.task()
        train_s[shuffled_order(cfg, len(train_s))[pos]].features[0, 0] = np.nan
        with pytest.raises(DivergenceError, match=f"step {pos}$"):
            train(small_model(), train_s, cfg, weak_labels=labels)
        assert_no_children()
