import json
import re

import numpy as np
import pytest

from attnalign.adapters import AdapterConfig
from attnalign.errors import CapacityError, CompatibilityError, ShapeError
from attnalign.model import ModelConfig, VisualDecoder, VisualInput, \
    load_checkpoint, save_checkpoint
from attnalign.training import total_loss, TrainConfig

from conftest import TINY_ADAPTER, TINY_MODEL, make_model_and_adapters, make_visual
from oracles import straight_line_forward


class TestEncodeAndProject:
    def test_identity_weights(self, rng):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=8, d_model=8,
                          vocab_size=8, grid=2, max_text_len=4)
        model = VisualDecoder(cfg, seed=0)
        model.params["w_align"].data = np.eye(8)
        model.params["b_align"].data = np.zeros(8)
        v = make_visual(cfg, rng)
        out = model.encode_and_project(v)
        assert np.array_equal(out.data, v.features)

    def test_zero_features_give_bias_rows(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        model.params["b_align"].data = rng.normal(size=TINY_MODEL.d_model)
        v = VisualInput(np.zeros((TINY_MODEL.n_visual, TINY_MODEL.d_visual)),
                        TINY_MODEL.grid)
        out = model.encode_and_project(v)
        for row in out.data:
            assert np.array_equal(row, model.params["b_align"].data)

    def test_matches_matmul_oracle(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=3)
        v = make_visual(TINY_MODEL, rng)
        out = model.encode_and_project(v)
        expected = v.features @ model.params["w_align"].data \
            + model.params["b_align"].data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_width_mismatch(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(ShapeError):
            model.encode_and_project(
                VisualInput(rng.normal(size=(TINY_MODEL.n_visual,
                                             TINY_MODEL.d_visual + 1)),
                            TINY_MODEL.grid))


class TestForward:
    def test_zero_projections_uniform_attention(self, rng):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_visual=4, d_model=8,
                          vocab_size=8, grid=2, max_text_len=6)
        model = VisualDecoder(cfg, seed=0)
        model.params["layer0.wq"].data = np.zeros((8, 8))
        model.params["layer0.wk"].data = np.zeros((8, 8))
        out = model.forward(make_visual(cfg, rng), (1, 2), (3,))
        att = out.attention.planes[0].data[0]
        n = cfg.n_visual
        for q in range(out.spans.total):
            visible = n + max(0, q - n + 1) if q >= n else n
            expected = np.zeros(out.spans.total)
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


class TestMaskInvariants:
    def test_later_text_zero_visual_never_masked(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        out = model.forward(v, (1, 2), (3, 4), adapters)
        n = out.spans.n_visual
        for l in range(TINY_MODEL.n_layers):
            for h in range(TINY_MODEL.n_heads):
                att = out.attention.planes[l].data[h]
                for q in range(out.spans.total):
                    assert np.array_equal(att[q, max(q + 1, n):],
                                          np.zeros(out.spans.total
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
        v_perm = VisualInput(v.features[perm], cfg.grid)
        roi = (0, 3)
        roi_perm = tuple(sorted(int(np.flatnonzero(perm == t)[0]) for t in roi))

        tcfg = TrainConfig(lambda_align=0.1, heads_r=1, weak_k=1,
                           adapter=TINY_ADAPTER)
        from attnalign.weaklabels import Segment, WeakLabelSet
        def labels_for(tokens):
            seg = Segment(id="s", token_indices=tokens, source="test")
            return WeakLabelSet(segments=(seg,), similarities={"s": 1.0},
                                tau=1.0, k=1)

        class FakeSample:
            def __init__(self, vis, roi):
                self.features = vis.features
                self.grid = vis.grid
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
        q = out0.spans.total - 1
        assert np.max(np.abs(att0[q, :cfg.n_visual][perm]
                             - att1[q, :cfg.n_visual])) < 1e-10


class TestGenerateGreedy:
    def test_forced_favorite_token(self, rng):
        # constant final hidden state (gain 0, bias c) and a head that only
        # responds to c for token 7 makes every step emit 7
        model = VisualDecoder(TINY_MODEL, seed=0)
        c = rng.normal(size=TINY_MODEL.d_model)
        model.params["ln_f.g"].data = np.zeros(TINY_MODEL.d_model)
        model.params["ln_f.b"].data = c
        model.params["w_out"].data = np.zeros_like(model.params["w_out"].data)
        model.params["w_out"].data[7] = c
        gen = model.generate_greedy(make_visual(TINY_MODEL, rng), (1,), 4)
        assert gen.tokens == (7, 7, 7, 7)

    def test_max_len_one(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        gen = model.generate_greedy(make_visual(TINY_MODEL, rng), (1, 2), 1)
        assert len(gen.tokens) == 1 and len(gen.stacks) == 1

    def test_self_consistency_with_teacher_forcing(self, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        v = make_visual(TINY_MODEL, rng)
        gen = model.generate_greedy(v, (1, 2), 3, adapters)
        out = model.forward(v, (1, 2), gen.tokens, adapters)
        rows = out.answer_logit_rows()
        replay = tuple(int(np.argmax(out.logits.data[r])) for r in rows)
        assert replay == gen.tokens

    def test_max_len_zero_rejected(self, rng):
        model = VisualDecoder(TINY_MODEL, seed=0)
        with pytest.raises(CapacityError):
            model.generate_greedy(make_visual(TINY_MODEL, rng), (1,), 0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model, adapters = make_model_and_adapters(randomize=True)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, adapters, extra={"note": 1})
        loaded_model, loaded_adapters, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded_model.params[name].data)
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

    def test_other_schema_rejected(self, tmp_path):
        model, adapters = make_model_and_adapters()
        path = tmp_path / "c.json"
        save_checkpoint(path, model, adapters)
        doc = json.loads(path.read_text())
        doc["schema"] = "attnalign-checkpoint-2"
        path.write_text(json.dumps(doc))
        with pytest.raises(CompatibilityError, match="'attnalign-checkpoint-2'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section,name,source", [
        ("adapter_tensors", "adapter.layer0.kmoe.B", None),   # missing
        ("tensors", "layer9.wq", "layer0.wq"),                # extra base
        ("adapter_tensors", "adapter.layer0.zmoe.A",          # unknown adapter
         "adapter.layer0.qmoe.A"),
        ("adapter_tensors", "adapter.layer0.qmoe.A",          # wrong shape
         "adapter.layer0.qmoe.B"),
    ])
    def test_tensor_names_and_shapes_must_match(self, tmp_path, section, name,
                                                source):
        model, adapters = make_model_and_adapters()
        path = tmp_path / "c.json"
        save_checkpoint(path, model, adapters)
        doc = json.loads(path.read_text())
        if source is None:
            del doc[section][name]
        else:
            doc[section][name] = doc[section][source]
        path.write_text(json.dumps(doc))
        with pytest.raises(CompatibilityError, match=re.escape(name)):
            load_checkpoint(path)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            ModelConfig(n_heads=3, d_model=8)

    def test_positive_fields(self):
        with pytest.raises(ShapeError):
            ModelConfig(grid=0)
