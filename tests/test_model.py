import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attnalign import autodiff as ad, cli
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.attention import all_visual_ratios, generated_query_mean_map, \
    generated_query_refined_map, refined_map, select_heads
from attnalign.data import SyntheticSample, write_samples
from attnalign.errors import CapacityError, CompatibilityError, SelectionError, \
    ShapeError
from attnalign.model import ModelConfig, VisualDecoder, load_checkpoint, \
    save_checkpoint
from attnalign.training import lm_loss, total_loss, TrainConfig

from conftest import TINY_ADAPTER, TINY_MODEL, make_model_and_adapters, make_visual
from oracles import straight_line_forward
from references import embedding_front_chain, generated_query_refined_map_rows


class TestEncodeAndProject:
    def test_identity_weights(self, rng):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=8, d_model=8,
                          vocab_size=8, grid=2, max_text_len=4)
        model = VisualDecoder(cfg, seed=0)
        model.params["w_align"] = np.eye(8)
        model.params["b_align"] = np.zeros(8)
        v = make_visual(cfg, rng)
        out = model.encode_and_project(v)
        assert np.array_equal(out, v)

    def test_zero_features_give_bias_rows(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        model.params["b_align"] = rng.normal(size=TINY_MODEL.d_model)
        v = np.zeros((TINY_MODEL.n_visual, TINY_MODEL.d_visual))
        out = model.encode_and_project(v)
        for row in out:
            assert np.array_equal(row, model.params["b_align"])

    def test_matches_matmul_oracle(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=3)
        v = make_visual(TINY_MODEL, rng)
        out = model.encode_and_project(v)
        expected = v @ model.params["w_align"] + model.params["b_align"]
        assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("shape", [
        (TINY_MODEL.n_visual, TINY_MODEL.d_visual + 1),   # feature width
        (TINY_MODEL.n_visual + 1, TINY_MODEL.d_visual),   # patch count
    ], ids=["width", "patches"])
    def test_width_mismatch(self, rng, shape):
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(ShapeError):
            model.encode_and_project(rng.normal(size=shape))


class TestForward:
    def test_zero_projections_uniform_attention(self, rng):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=4, d_model=8,
                          vocab_size=8, grid=2, max_text_len=6)
        model = VisualDecoder(cfg, seed=0)
        model.params["layer0.wq"] = np.zeros((8, 8))
        model.params["layer0.wk"] = np.zeros((8, 8))
        out = model.forward(make_visual(cfg, rng), (1, 2), (3,))
        att = out.attention.planes[0].data[0]
        n = cfg.n_visual
        for q in range(out.attention.spans.total):
            visible = n + max(0, q - n + 1) if q >= n else n
            expected = np.zeros(out.attention.spans.total)
            expected[:n] = 1.0 / visible
            if q >= n:
                expected[n:q + 1] = 1.0 / visible
            assert np.max(np.abs(att[q] - expected)) < 1e-12

    def test_zero_adapters_bit_identical(self, rng):
        model, adapters = make_model_and_adapters()
        v = make_visual(TINY_MODEL, rng)
        plain = model.forward(v, (1, 2), (3,))
        adapted = model.forward(v, (1, 2), (3,), adapters)
        assert np.array_equal(plain.logits.data, adapted.logits.data)

    def test_matches_straight_line_oracle_no_adapters(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=5)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2, 3), (4, 5))
        logits, maps = straight_line_forward(model, v, (1, 2, 3), (4, 5))
        assert np.max(np.abs(out.logits.data - logits)) < 1e-10
        for l in range(TINY_MODEL.n_layers):
            for h in range(TINY_MODEL.n_heads):
                assert np.max(np.abs(out.attention.planes[l].data[h] - maps[l][h])) \
                    < 1e-10

    def test_matches_straight_line_oracle_with_adapters(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2, 3), (4, 5), adapters)
        logits, maps = straight_line_forward(model, v, (1, 2, 3), (4, 5), adapters)
        assert np.max(np.abs(out.logits.data - logits)) < 1e-10
        for l in range(TINY_MODEL.n_layers):
            for h in range(TINY_MODEL.n_heads):
                assert np.max(np.abs(out.attention.planes[l].data[h] - maps[l][h])) \
                    < 1e-10

    @pytest.mark.parametrize("flags", [{"use_qmoe": False}, {"use_kmoe": False}])
    def test_oracle_agreement_across_config_flags(self, rng, flags):
        acfg = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                             n_k_experts=3, top_b=2, **flags)
        model, adapters = make_model_and_adapters(acfg=acfg, randomize=True)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2), (4,), adapters)
        logits, _ = straight_line_forward(model, v, (1, 2), (4,), adapters)
        assert np.max(np.abs(out.logits.data - logits)) < 1e-10

    def test_repeat_forward_bit_identical(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=2)
        v = make_visual(TINY_MODEL, rng)
        a = model.forward(v, (1,), (2,))
        b = model.forward(v, (1,), (2,))
        assert np.array_equal(a.logits.data, b.logits.data)

    def test_capacity_error(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        v = make_visual(TINY_MODEL, rng)
        with pytest.raises(CapacityError):
            model.forward(v, tuple(range(1, 8)), (1, 2, 3))

    @pytest.mark.parametrize("prompt,answer,bad", [((1, 11), (), 11),
                                                   ((1,), (-1,), -1)])
    def test_token_outside_the_vocabulary(self, rng, prompt, answer, bad):
        # an IndexError once, worded unlike the dataset check
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(CompatibilityError,
                           match=f"token {bad} outside model vocabulary 11"):
            model.forward(make_visual(TINY_MODEL, rng), prompt, answer)


class TestEmbeddingFront:
    """The numpy front equals the matmul/add/take/concat_rows chain that
    built it while the base weights were tensors, bit for bit."""

    def first_layer_input(self, model, visual, prompt, answer):
        seen = []
        layer = model._layer

        def spy(l, x, *rest):
            seen.append(x)
            return layer(l, x, *rest)

        model._layer = spy
        model.forward(visual, prompt, answer)
        return seen[0]

    @pytest.mark.parametrize("magnitude", [1.0, 30.0])
    @pytest.mark.parametrize("cfg", [ModelConfig(), TINY_MODEL], ids=["A1", "tiny"])
    def test_bit_exact_against_the_chain(self, rng, cfg, magnitude):
        model = VisualDecoder(cfg, seed=4)
        model.params["b_align"] = rng.uniform(-magnitude, magnitude, cfg.d_model)
        visual = make_visual(cfg, rng, magnitude)
        prompt, answer = (cfg.vocab_size - 1, 0), (3,)
        x = self.first_layer_input(model, visual, prompt, answer)
        chain = embedding_front_chain(model, visual, prompt + answer)
        assert x.data.shape == (cfg.n_visual + 3, cfg.d_model)
        assert np.array_equal(x.data, chain.data)
        # one constant tensor: no parents, no gradient, nothing recorded
        assert not x.requires_grad and x._parents == () and x._backward is None


class TestPositionTable:
    @pytest.mark.parametrize("d_model", [1, 2, 3, 5, 8, 9, 64])
    def test_sin_cos_at_every_width(self, d_model):
        # an odd width once raised a numpy ValueError here, its cosine half
        # having one column fewer than its sine half
        cfg = ModelConfig(n_heads=1, d_model=d_model, max_text_len=7)
        t = np.arange(cfg.max_text_len)[:, None]
        j = np.arange(d_model)[None, :]
        angle = t / 10000.0 ** (2 * (j // 2) / d_model)
        expected = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
        np.testing.assert_allclose(VisualDecoder(cfg).params["pos_emb"], expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d_model", [1, 2, 3, 5, 7, 9])
    def test_aligned_loss_and_backward_at_every_width(self, d_model, rng):
        cfg = dataclasses.replace(TINY_MODEL, n_heads=1, d_model=d_model)
        model, adapters = make_model_and_adapters(cfg)
        sample = SyntheticSample("x", cfg.grid, make_visual(cfg, rng),
                                 segments=((0, 3),), prompt=(1, 2), answer=(3,),
                                 roi=(0, 3))
        from attnalign.weaklabels import Segment
        tcfg = TrainConfig(lambda_align=0.1, heads_r=1, weak_k=1,
                           adapter=TINY_ADAPTER)
        loss, _ = total_loss(model, adapters, sample,
                             (Segment(id="s", token_indices=(0, 3)),), tcfg)
        loss.backward()
        assert np.isfinite(loss.data)
        assert all(np.isfinite(t.grad).all() for _, t in adapters.params())


class TestMaskInvariants:
    def test_later_text_zero_visual_never_masked(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2), (3, 4), adapters)
        n = out.attention.spans.n_visual
        for l in range(TINY_MODEL.n_layers):
            for h in range(TINY_MODEL.n_heads):
                att = out.attention.planes[l].data[h]
                for q in range(out.attention.spans.total):
                    assert np.array_equal(att[q, max(q + 1, n):],
                                          np.zeros(out.attention.spans.total
                                                   - max(q + 1, n)))
                    assert np.all(att[q, :n] > 0)

    def test_rows_sum_to_one(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        out = model.forward(make_visual(TINY_MODEL, rng), (1, 2), (3,), adapters)
        for l in range(TINY_MODEL.n_layers):
            for h in range(TINY_MODEL.n_heads):
                sums = out.attention.planes[l].data[h].sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) < 1e-9


class TestVisualEquivariance:
    def test_permuting_visual_tokens(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        cfg = TINY_MODEL
        v = make_visual(cfg, rng)
        perm = rng.permutation(cfg.n_visual)
        v_perm = v[perm]
        roi = (0, 3)
        roi_perm = tuple(sorted(int(np.flatnonzero(perm == t)[0]) for t in roi))

        tcfg = TrainConfig(lambda_align=0.1, heads_r=1, weak_k=1,
                           adapter=TINY_ADAPTER)
        from attnalign.weaklabels import Segment
        def labels_for(tokens):
            return (Segment(id="s", token_indices=tokens),)

        class FakeSample:
            def __init__(self, vis, roi):
                self.features = vis
                self.prompt = (1, 2)
                self.answer = (3,)
                self.roi = roi
                self.id = "x"

        l0, b0 = total_loss(model, adapters, FakeSample(v, roi),
                            labels_for(roi), tcfg)
        l1, b1 = total_loss(model, adapters, FakeSample(v_perm, roi_perm),
                            labels_for(roi_perm), tcfg)
        assert abs(b0.llm - b1.llm) < 1e-10
        assert abs(b0.align - b1.align) < 1e-10

        out0 = model.forward(v, (1, 2), (3,), adapters)
        out1 = model.forward(v_perm, (1, 2), (3,), adapters)
        att0 = out0.attention.planes[0].data[0]
        att1 = out1.attention.planes[0].data[0]
        q = out0.attention.spans.total - 1
        assert np.max(np.abs(att0[q, :cfg.n_visual][perm]
                             - att1[q, :cfg.n_visual])) < 1e-10


class TestGenerateGreedy:
    def test_forced_favorite_token(self, rng):
        # constant final hidden state (gain 0, bias c) and a head that only
        # responds to c for token 7 makes every step emit 7
        model = VisualDecoder(TINY_MODEL, seed=0)
        c = rng.normal(size=TINY_MODEL.d_model)
        model.params["ln_f.g"] = np.zeros(TINY_MODEL.d_model)
        model.params["ln_f.b"] = c
        model.params["w_out"] = np.zeros_like(model.params["w_out"])
        model.params["w_out"][7] = c
        (gen,) = model.generate_greedy(make_visual(TINY_MODEL, rng)[None], [(1,)], 4)
        assert gen.tokens == (7, 7, 7, 7)

    def test_max_len_one(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        (gen,) = model.generate_greedy(make_visual(TINY_MODEL, rng)[None], [(1, 2)], 1)
        assert len(gen.tokens) == 1 and len(gen.stacks) == 1

    def test_self_consistency_with_teacher_forcing(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        (gen,) = model.generate_greedy(v[None], [(1, 2)], 3, adapters)
        out = model.forward(v, (1, 2), gen.tokens, adapters, keep_last=4)
        replay = tuple(int(np.argmax(row)) for row in out.logits.data[:3])
        assert replay == gen.tokens

    def test_max_len_zero_rejected(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(CapacityError):
            model.generate_greedy(make_visual(TINY_MODEL, rng)[None], [(1,)], 0)


A1_MODEL = ModelConfig()      # 4 layers x 4 heads, S = 67 at one answer token
ARMS = {"aligned": TINY_ADAPTER,
        "dense": dataclasses.replace(TINY_ADAPTER, use_qmoe=False, use_kmoe=False)}


class TestKeptRows:
    """The last layer computes only the last ``keep_last`` rows; everything
    read of them matches the all-rows pass, which is the default."""

    @pytest.mark.parametrize("cfg", [TINY_MODEL, A1_MODEL], ids=["tiny", "a1"])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_every_suffix_matches_the_full_forward(self, rng, cfg, arm):
        model, adapters = make_model_and_adapters(cfg, ARMS[arm], randomize=True)
        v = make_visual(cfg, rng)
        prompt, answer = (1, 2, 3), (4, 5)
        full = model.forward(v, prompt, answer, adapters)
        total = full.attention.spans.total
        assert full.logits.shape == (total, cfg.vocab_size)
        for m in range(1, total + 1):
            out = model.forward(v, prompt, answer, adapters, keep_last=m)
            assert out.logits.shape == (m, cfg.vocab_size)
            assert np.max(np.abs(out.logits.data - full.logits.data[-m:])) < 1e-14
            *early, last = out.attention.planes
            assert last.shape == (cfg.n_heads, m, total)
            assert np.max(np.abs(last.data - full.attention.planes[-1].data[:, -m:])) \
                < 1e-14
            for a, b in zip(early, full.attention.planes):
                assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("keep", [0, -1, TINY_MODEL.n_visual + 4])
    def test_suffix_outside_the_sequence_rejected(self, rng, keep):
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(ShapeError, match=f"^keep_last={keep} outside the "
                                             f"{TINY_MODEL.n_visual + 3}-row sequence$"):
            model.forward(make_visual(TINY_MODEL, rng), (1, 2), (3,), keep_last=keep)

    def test_rows_before_the_suffix_are_never_read(self, rng):
        # rows 0..6: the answer's logit row is 5, its query row 6
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2), (3,), adapters, keep_last=2)
        stack = out.attention
        sel = select_heads(all_visual_ratios(stack, 2), 2)
        assert refined_map(stack, 2, sel).shape == (TINY_MODEL.n_visual,)
        before = "^3 query rows outside 1..2, the text rows every layer kept$"
        with pytest.raises(SelectionError, match=before):
            all_visual_ratios(stack, 3)
        with pytest.raises(SelectionError, match=before):
            refined_map(stack, 3, sel)
        last = model.forward(v, (1, 2), (3,), adapters, keep_last=1)
        with pytest.raises(SelectionError, match="^lm_loss reads the last 2 rows"):
            lm_loss(last, (3,))
        # the generated maps read each step's last row, which every suffix keeps
        assert generated_query_mean_map([last.attention]).shape == \
            generated_query_refined_map([last.attention], 2).shape == \
            (TINY_MODEL.n_visual,)

    @pytest.mark.parametrize("n_answer", [1, 2, 3])
    def test_generated_map_matches_the_row_set_readers(self, rng, n_answer):
        # every step's emitting row, named as a sequence row before
        model, adapters = make_model_and_adapters(randomize=True)
        (gen,) = model.generate_greedy(make_visual(TINY_MODEL, rng)[None], [(1, 2)],
                                       n_answer, adapters)
        for top_r in (1, 2, 4):
            assert np.array_equal(generated_query_refined_map(gen.stacks, top_r),
                                  generated_query_refined_map_rows(gen.stacks, top_r))

    def test_greedy_tokens_equal_the_full_rows_tokens(self):
        cfg = ModelConfig(n_layers=3, n_heads=2, d_visual=6, d_model=16,
                          vocab_size=13, grid=3, max_text_len=6)
        model, adapters = make_model_and_adapters(cfg, randomize=True)
        r = np.random.default_rng(5)
        for _ in range(32):
            v = make_visual(cfg, r)
            prompt = tuple(int(t) for t in r.integers(0, cfg.vocab_size, 2))
            (gen,) = model.generate_greedy(v[None], [prompt], 3, adapters)
            tokens = []
            with ad.no_grad():
                for _ in range(3):
                    out = model.forward(v, prompt, tuple(tokens), adapters)
                    tokens.append(int(np.argmax(out.logits.data[-1])))
            assert gen.tokens == tuple(tokens)
            for step, stack in enumerate(gen.stacks):
                row = cfg.n_visual + len(prompt) + step - 1
                assert row == stack.spans.total - 1
                assert stack.planes[-1].shape == (cfg.n_heads, 1, row + 1)


class TestGroupedGeneration:
    """A group of same-shape samples decodes in one no-grad forward per step;
    each sample gets the tokens, step rows and planes it gets alone."""

    @staticmethod
    def items(cfg, rng):
        # prompts of 2 and 3 tokens, answers of 1 token and of 2, the latter
        # two greedy steps; three samples of each shape
        return [(make_visual(cfg, rng),
                 tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n_prompt)),
                 n_answer)
                for n_prompt in (2, 3) for n_answer in (1, 2) for _ in range(3)]

    @pytest.mark.parametrize("cfg", [TINY_MODEL, A1_MODEL], ids=["tiny", "a1"])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_group_equals_alone(self, rng, cfg, arm):
        model, adapters = make_model_and_adapters(cfg, ARMS[arm], randomize=True)
        items = self.items(cfg, rng)
        for start in range(0, len(items), 3):
            group = items[start:start + 3]
            n = group[0][2]
            gens = model.generate_greedy(np.stack([v for v, _, _ in group]),
                                         [p for _, p, _ in group], n, adapters)
            assert len(gens) == 3
            for (v, p, _), gen in zip(group, gens):
                (alone,) = model.generate_greedy(v[None], [p], n, adapters)
                assert gen.tokens == alone.tokens
                assert len(gen.stacks) == len(alone.stacks) == n
                for step, (stack, solo) in enumerate(zip(gen.stacks, alone.stacks)):
                    assert stack.spans == solo.spans
                    with ad.no_grad():   # the one-sample arrays training runs
                        out = model.forward(v, p, gen.tokens[:step], adapters,
                                            keep_last=1)
                    assert gen.tokens[step] == int(np.argmax(out.logits.data[0]))
                    for a, b, c in zip(stack.planes, solo.planes, out.attention.planes):
                        assert np.array_equal(a.data, b.data)
                        assert np.array_equal(a.data, c.data)
                        assert a.shape == c.shape

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_each_step_keeps_only_its_last_row(self, rng, steps):
        # the generated maps take a step's last row as the row that emits
        model, adapters = make_model_and_adapters(randomize=True)
        prompts = [(1, 2), (3, 1), (2, 2)]
        features = np.stack([make_visual(TINY_MODEL, rng) for _ in prompts])
        grouped = model.generate_greedy(features, prompts, steps, adapters)
        alone = [gen for f, p in zip(features, prompts)
                 for gen in model.generate_greedy(f[None], [p], steps, adapters)]
        for gen in grouped + alone:
            assert len(gen.stacks) == steps
            for step, stack in enumerate(gen.stacks):
                assert stack.spans.total == TINY_MODEL.n_visual + 2 + step
                assert stack.planes[-1].shape == (TINY_MODEL.n_heads, 1,
                                                  stack.spans.total)

    def test_a_recorded_graph_refuses_a_group(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = np.stack([make_visual(TINY_MODEL, rng)] * 2)
        with pytest.raises(ShapeError, match=r"features \(2, 4, 5\) hold a group "
                                             r"of samples, which only a no_grad"):
            model.forward(v, [(1, 2)] * 2, [(3,)] * 2, adapters)
        with ad.no_grad():
            out = model.forward(v, [(1, 2)] * 2, [(3,)] * 2, adapters)
        assert out.logits.shape == (2, 7, TINY_MODEL.vocab_size)
        assert out.attention.planes[0].shape == (2, TINY_MODEL.n_heads, 7, 7)

    def test_prompts_that_do_not_fit_refused(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        v = np.stack([make_visual(TINY_MODEL, rng)] * 2)
        with pytest.raises(ShapeError, match=r"lengths \[2, 3\] cannot share"):
            model.generate_greedy(v, [(1, 2), (1, 2, 3)], 1)
        with pytest.raises(ShapeError, match=re.escape(
                "prompts (3, 2) and answers (3, 0) do not fit features (2, 4, 5)")):
            model.generate_greedy(v, [(1, 2)] * 3, 1)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, adapters, extra={"note": 1})
        loaded_model, loaded_adapters, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        for name, a in model.params.items():
            assert np.array_equal(a, loaded_model.params[name])
        orig = dict(adapters.params())
        for name, t in loaded_adapters.params():
            assert np.array_equal(t.data, orig[name].data)

    def test_round_trip_same_bytes(self, tmp_path):
        model, adapters = make_model_and_adapters(randomize=True)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, adapters)
        loaded_model, loaded_adapters, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded_model, loaded_adapters)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_reload(self, tmp_path, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        before = model.forward(v, (1, 2), (3,), adapters).logits.data
        save_checkpoint(tmp_path / "c.json", model, adapters)
        m2, a2, _ = load_checkpoint(tmp_path / "c.json")
        after = m2.forward(v, (1, 2), (3,), a2).logits.data
        assert np.array_equal(before, after)

    def test_one_line_per_tensor_in_a_fixed_order(self, tmp_path):
        model, adapters = make_model_and_adapters(randomize=True)
        path = tmp_path / "c.json"
        save_checkpoint(path, model, adapters, extra={"note": 1})
        header, *tensors = map(json.loads, path.read_bytes().splitlines())
        assert header == {"schema": "attnalign-checkpoint-4",
                          "model_config": dataclasses.asdict(TINY_MODEL),
                          "adapter_config": dataclasses.asdict(TINY_ADAPTER),
                          "extra": {"note": 1}}
        assert [list(t) for t in tensors] == [["name", "shape", "data"]] * len(tensors)
        assert [t["name"] for t in tensors] == \
            sorted(model.params) + [name for name, _ in adapters.params()]

    # each edit gets the checkpoint's lines and the index of each tensor's
    # line; {p} is the checkpoint, {end} the number of the line after its
    # last, and {q} the number of the line of 'adapter.layer0.qmoe.A'
    @pytest.mark.parametrize("edit,message", [
        (lambda ls, at: ls[:at["adapter.layer0.kmoe.B"]]
         + ls[at["adapter.layer0.kmoe.B"] + 1:],
         "tensor 'adapter.layer0.kmoe.B' missing from checkpoint {p}"),
        (lambda ls, at: ls + [renamed(ls[at["layer0.wq"]], "layer9.wq")],
         "tensor 'layer9.wq' unexpected in checkpoint {p} line {end}"),
        (lambda ls, at: ls + [renamed(ls[at["adapter.layer0.qmoe.A"]],
                                      "adapter.layer0.zmoe.A")],
         "tensor 'adapter.layer0.zmoe.A' unexpected in checkpoint {p} line {end}"),
        (lambda ls, at: ls + [ls[at["w_out"]]],
         "tensor 'w_out' repeated in checkpoint {p} line {end}"),
        (lambda ls, at: ls[:at["adapter.layer0.qmoe.A"]]
         + [renamed(ls[at["adapter.layer0.qmoe.B"]], "adapter.layer0.qmoe.A")]
         + ls[at["adapter.layer0.qmoe.A"] + 1:],
         "tensor 'adapter.layer0.qmoe.A' of checkpoint {p} line {q} has shape "
         "[8, 4], model needs [4, 8]"),
        (lambda ls, at: ls[1:] + ls[:1],
         "unknown checkpoint schema None in {p} line 1"),
        (lambda ls, at: ls[:1] + ls,
         "key 'adapter_config' unexpected in checkpoint {p} line 2"),
        (lambda ls, at: schema_3(ls, indent=0),
         "{p} line 1 is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 2 column 1 (char 2)"),
        (lambda ls, at: schema_3(ls, indent=None),
         "unknown checkpoint schema 'attnalign-checkpoint-3' in {p} line 1"),
        (lambda ls, at: [], "checkpoint {p} is empty"),
    ], ids=["missing", "extra-base", "unknown-adapter", "repeated", "wrong-shape",
            "header-last", "header-twice", "schema-3", "schema-3-one-line",
            "empty"])
    def test_tampered_lines_give_one_error_line(self, tmp_path, capsys, edit,
                                                message):
        model, adapters = make_model_and_adapters()
        path = tmp_path / "c.json"
        save_checkpoint(path, model, adapters)
        lines = path.read_bytes().splitlines(keepends=True)
        at = {json.loads(line)["name"]: i for i, line in enumerate(lines) if i}
        path.write_bytes(b"".join(edit(lines, at)))
        data = tmp_path / "test.jsonl"
        write_samples(data, [SyntheticSample(
            "s0", TINY_MODEL.grid, np.zeros((TINY_MODEL.n_visual, TINY_MODEL.d_visual)),
            segments=((0,), (1,)), prompt=(1, 2), answer=(3,), roi=(0,))])
        rc = cli.main(["evaluate", "--checkpoint", str(path), "--data", str(data),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: " + message.format(
            p=path, end=len(lines) + 1, q=at["adapter.layer0.qmoe.A"] + 1) + "\n"
        assert not (tmp_path / "report.json").exists()


def renamed(line: bytes, name: str) -> bytes:
    """A checkpoint's tensor line, with its name changed to ``name``."""
    doc = json.loads(line)
    doc["name"] = name
    return json.dumps(doc).encode() + b"\n"


def schema_3(lines: list[bytes], indent: int | None) -> list[bytes]:
    """The checkpoint of ``lines`` as schema 3 stored it: one document of the
    header's sections plus a 'tensors' and an 'adapter_tensors' section, each
    mapping a name to {shape, data}."""
    doc, *tensors = map(json.loads, lines)
    entries = {t.pop("name"): t for t in tensors}
    doc.update(schema="attnalign-checkpoint-3",
               tensors={k: v for k, v in entries.items() if not k.startswith("adapter.")},
               adapter_tensors={k: v for k, v in entries.items()
                                if k.startswith("adapter.")})
    return [(json.dumps(doc, sort_keys=True, indent=indent) + "\n").encode()]


# A1's committed model and adapter shapes
A1_TRAIN = json.loads((Path(__file__).resolve().parents[1] / "experiments" / "a1"
                       / "train.json").read_text())


@pytest.mark.parametrize("arm", ["aligned", "dense"])
def test_checkpoint_io_holds_one_tensor_at_a_time(tmp_path, arm):
    # a checkpoint written or read as one JSON document peaked at 7.6 to
    # 8.9 MiB to write and about 4 MiB past what loading returns, and so
    # set a training run's peak memory
    cfg = ModelConfig(**A1_TRAIN["model"])
    acfg = AdapterConfig(**A1_TRAIN["adapter"])
    if arm == "dense":
        acfg = dataclasses.replace(acfg, use_qmoe=False, use_kmoe=False)
    model = VisualDecoder(cfg)
    adapters = AdapterSet(cfg.n_layers, cfg.d_model, cfg.d_ff, acfg, seed=1)
    path = tmp_path / "checkpoint.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_checkpoint(path, model, adapters,
                        extra={"train_config": A1_TRAIN["train"]})
        save_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        loaded = load_checkpoint(path)
        kept, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < 2 ** 20
    assert load_peak - kept < 2 ** 20
    assert list(loaded[0].params) == list(model.params)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            ModelConfig(n_heads=3, d_model=8)

    def test_positive_fields(self):
        with pytest.raises(ShapeError):
            ModelConfig(grid=0)
