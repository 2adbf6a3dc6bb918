import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import autodiff as ad
from attnalign.adapters import AdapterConfig, AdapterSet, ExpertBank, \
    GatingNetwork, LoRAAdapter, kmoe_apply, kmoe_gate_weights, qmoe_apply, \
    qmoe_weights, topb_mask_rows
from attnalign.autodiff import Tensor
from attnalign.errors import ParameterError

from oracles import expert_delta, topk_select_loop
from references import adapted_projection, kmoe_delta_per_token, qmoe_delta, \
    transpose

D = 6
RANK = 2


def make_bank(n, rng, d=D, rank=RANK, zero_b=False):
    bank = ExpertBank(n, d, d, rank, rng)
    if not zero_b:
        bank.B.data = rng.normal(size=bank.B.data.shape)
    return bank


def make_gate(n_out, rng, d=D, zero=False):
    gate = GatingNetwork(d, 4, n_out, rng)
    if zero:
        gate.w1.data = np.zeros_like(gate.w1.data)
        gate.w2.data = np.zeros_like(gate.w2.data)
    return gate


class TestQMoE:
    def test_single_expert_softmax_of_singleton(self, rng):
        bank = make_bank(1, rng)
        gate = make_gate(1, rng)
        h = Tensor(rng.normal(size=(3, D)))
        delta, decision = qmoe_delta(h, bank, gate)
        assert np.allclose(decision.weights, [1.0])
        expected = expert_delta(bank, 0)
        assert np.max(np.abs(delta.data - expected)) < 1e-12

    def test_equal_logits_symmetric_mixture(self, rng):
        bank = make_bank(2, rng)
        gate = make_gate(2, rng, zero=True)
        h = Tensor(rng.normal(size=(2, D)))
        delta, decision = qmoe_delta(h, bank, gate)
        assert np.allclose(decision.weights, [0.5, 0.5])
        e1 = expert_delta(bank, 0)
        e2 = expert_delta(bank, 1)
        assert np.max(np.abs(delta.data - 0.5 * e1 - 0.5 * e2)) < 1e-12

    def test_matches_loop_and_sum_oracle(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(3, D)))
        delta, decision = qmoe_delta(h, bank, gate)
        expected = np.zeros((D, D))
        for o in range(len(bank)):
            expected += decision.weights[o] * expert_delta(bank, o)
        assert np.max(np.abs(delta.data - expected)) < 1e-12

    def test_gate_gradient_finite_difference(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(2, D)))
        x = Tensor(rng.normal(size=(4, D)))

        def f():
            delta, _ = qmoe_delta(h, bank, gate)
            out = ad.matmul(x, transpose(delta))
            return ad.sum_all(ad.mul(out, out))

        params = [gate.w1, gate.b1, gate.w2, gate.b2]
        assert ad.finite_diff_check_params(f, params, 1e-4) < 1e-4

    def test_alpha_probability_vector(self, rng):
        bank = make_bank(5, rng)
        gate = make_gate(5, rng)
        alpha, decision = qmoe_weights(Tensor(rng.normal(size=(3, D))), bank, gate)
        assert np.all(decision.weights >= 0)
        assert abs(decision.weights.sum() - 1.0) < 1e-9

    def test_equal_experts_give_that_expert(self, rng):
        bank = make_bank(3, rng)
        shared_a = rng.normal(size=(RANK, D))
        shared_b = rng.normal(size=(D, RANK))
        bank.A.data = np.tile(shared_a, (3, 1))
        bank.B.data = np.tile(shared_b, (1, 3))
        gate = make_gate(3, rng)
        delta, _ = qmoe_delta(Tensor(rng.normal(size=(2, D))), bank, gate)
        assert np.max(np.abs(delta.data - shared_b @ shared_a)) < 1e-12

    def test_apply_matches_materialized(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(2, D)))
        x = Tensor(rng.normal(size=(5, D)))
        delta, _ = qmoe_delta(h, bank, gate)
        alpha, _ = qmoe_weights(h, bank, gate)
        fused = qmoe_apply(x, alpha, bank)
        direct = x.data @ delta.data.T
        assert np.max(np.abs(fused.data - direct)) < 1e-12


class TestKMoE:
    def test_dense_boundary_all_kept(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(4, D)))
        weights, decision = kmoe_gate_weights(h, bank, gate, b=3)
        for c in range(4):
            assert decision.kept[c].all()
            assert np.max(np.abs(weights.data[c] - decision.weights[c])) < 1e-12

    def test_equal_logits_tie_break_literal_sum(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng, zero=True)
        h = Tensor(rng.normal(size=(2, D)))
        deltas, decision = kmoe_delta_per_token(h, bank, gate, b=2)
        for c in range(2):
            assert list(np.flatnonzero(decision.kept[c])) == [0, 1]
            e1 = expert_delta(bank, 0)
            e2 = expert_delta(bank, 1)
            expected = (e1 + e2) / 3.0  # two thirds total, unrenormalized
            assert np.max(np.abs(deltas[c].data - expected)) < 1e-12

    def test_per_token_deltas_match_bruteforce(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(5, D)))
        deltas, decision = kmoe_delta_per_token(h, bank, gate, b=2)
        for c in range(5):
            expected = np.zeros((D, D))
            for o in range(len(bank)):
                if decision.kept[c, o]:
                    expected += decision.weights[c, o] * expert_delta(bank, o)
            assert np.max(np.abs(deltas[c].data - expected)) < 1e-12

    def test_perturbing_one_token_changes_only_its_delta(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        base = rng.normal(size=(4, D))
        d0, _ = kmoe_delta_per_token(Tensor(base), bank, gate, b=2)
        bumped = base.copy()
        bumped[2] += rng.normal(size=D)
        d1, _ = kmoe_delta_per_token(Tensor(bumped), bank, gate, b=2)
        for c in range(4):
            same = np.max(np.abs(d0[c].data - d1[c].data)) < 1e-15
            assert same == (c != 2)

    def test_kept_weight_sum_at_most_one(self, rng):
        bank = make_bank(5, rng)
        gate = make_gate(5, rng)
        weights, decision = kmoe_gate_weights(
            Tensor(rng.normal(size=(6, D))), bank, gate, b=2)
        for c in range(6):
            assert decision.kept[c].sum() == 2
            assert weights.data[c].sum() <= 1.0 + 1e-12

    def test_b_out_of_range(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        with pytest.raises(ParameterError):
            kmoe_gate_weights(Tensor(rng.normal(size=(2, D))), bank, gate, b=4)
        with pytest.raises(ParameterError):
            kmoe_gate_weights(Tensor(rng.normal(size=(2, D))), bank, gate, b=0)

    def test_apply_matches_materialized_deltas(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(5, D)))
        weights, _ = kmoe_gate_weights(h, bank, gate, b=2)
        fused = kmoe_apply(h, weights, bank)
        deltas, _ = kmoe_delta_per_token(h, bank, gate, b=2)
        for c in range(5):
            assert np.max(np.abs(fused.data[c] - h.data[c] @ deltas[c].data.T)) \
                < 1e-12

    def test_equal_hidden_states_identical_deltas(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        row = rng.normal(size=D)
        h = Tensor(np.tile(row, (4, 1)))
        deltas, _ = kmoe_delta_per_token(h, bank, gate, b=3)
        for c in range(1, 4):
            assert np.array_equal(deltas[0].data, deltas[c].data)

    def test_gate_gradient_finite_difference(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(4, D)), requires_grad=False)

        def f():
            weights, _ = kmoe_gate_weights(h, bank, gate, b=2)
            out = kmoe_apply(h, weights, bank)
            return ad.sum_all(ad.mul(out, out))

        params = [gate.w1, gate.b1, gate.w2, gate.b2, bank.A, bank.B]
        assert ad.finite_diff_check_params(f, params, 1e-4) < 1e-3


class TestExpertBank:
    def test_stacked_init_matches_per_expert_draws(self):
        bank = ExpertBank(4, 5, D, RANK, np.random.default_rng(3))
        r = np.random.default_rng(3)
        bound = 1.0 / np.sqrt(D)
        draws = [r.uniform(-bound, bound, size=(RANK, D)) for _ in range(4)]
        assert np.array_equal(bank.A.data, np.concatenate(draws))
        assert bank.B.shape == (5, 4 * RANK) and not bank.B.data.any()
        assert len(bank) == 4

    def test_two_tensors_per_bank(self):
        adapters = AdapterSet(2, D, 4 * D, AdapterConfig())
        names = [n for n, _ in adapters.params() if "moe" in n]
        assert names == [f"adapter.layer{l}.{side}.{t}" for l in range(2)
                         for side in ("qmoe", "kmoe") for t in ("A", "B")]


class TestTopB:
    def test_matches_sort_oracle_with_ties(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 9))
            b = int(rng.integers(1, n + 1))
            values = rng.integers(0, 4, size=n) / 4.0  # force ties
            mask = topb_mask_rows(values[None, :], b)[0]
            assert sorted(np.flatnonzero(mask)) == topk_select_loop(values, b)

    def test_rows_variant_agrees(self, rng):
        w = rng.integers(0, 3, size=(50, 6)) / 3.0
        rows = topb_mask_rows(w, 2)
        for i in range(50):
            assert np.array_equal(rows[i], topb_mask_rows(w[i][None, :], 2)[0])


class TestAdaptedProjection:
    def test_zero_adapters_additive_identity(self, rng):
        x = Tensor(rng.normal(size=(4, D)))
        w = Tensor(rng.normal(size=(D, D)))
        lora = LoRAAdapter(D, D, RANK, rng)  # B zero-initialized
        out = adapted_projection(x, w, dense_lora=lora)
        base = x.data @ w.data.T
        assert np.array_equal(out.data, base)

    def test_dense_lora_linearity(self, rng):
        x = Tensor(rng.normal(size=(4, D)))
        w = Tensor(rng.normal(size=(D, D)))
        lora = LoRAAdapter(D, D, RANK, rng)
        lora.B.data = rng.normal(size=lora.B.data.shape)
        out = adapted_projection(x, w, dense_lora=lora)
        delta = lora.B.data @ lora.A.data
        expected = x.data @ (w.data + delta).T
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_per_row_explicit_construction(self, rng):
        x = Tensor(rng.normal(size=(5, D)))
        w = Tensor(rng.normal(size=(D, D)))
        lora = LoRAAdapter(D, D, RANK, rng)
        lora.B.data = rng.normal(size=lora.B.data.shape)
        per_token = [Tensor(rng.normal(size=(D, D))) for _ in range(3)]
        per_token_arg = [per_token[0], None, per_token[1], per_token[2]]
        out = adapted_projection(x, w, dense_lora=lora,
                                 per_token_deltas=per_token_arg)
        dense = lora.B.data @ lora.A.data
        for i in range(5):
            delta = np.zeros((D, D))
            if i < len(per_token_arg) and per_token_arg[i] is not None:
                delta = per_token_arg[i].data
            expected = x.data[i] @ (w.data + dense + delta).T
            assert np.max(np.abs(out.data[i] - expected)) < 1e-12


class TestConfig:
    def test_validate_bounds(self):
        with pytest.raises(ParameterError):
            AdapterConfig(n_k_experts=4, top_b=5).validate()
        AdapterConfig(n_k_experts=4, top_b=4).validate()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_of_topb(self, seed, b):
        r = np.random.default_rng(seed)
        n = 5
        b = min(b, n)
        w = r.random(n)
        scaled = w * 7.3
        assert np.array_equal(topb_mask_rows(w[None, :], b)[0],
                              topb_mask_rows(scaled[None, :], b)[0])
