import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import autodiff as ad
from attnalign.adapters import AdapterConfig, AdapterSet, ExpertBank, \
    GatingNetwork, kmoe_apply, kmoe_gate_weights, qmoe_apply, qmoe_weights, \
    topb_mask_rows
from attnalign.autodiff import Tensor
from attnalign.errors import ParameterError, ShapeError

from conftest import ONE_LAYER, make_model_and_adapters, make_visual
from oracles import expert_delta, finite_diff_check_params, topk_select_loop
from references import adapted_projection, kmoe_delta_per_token, \
    kmoe_gate_softmax, kmoe_gate_weights_chain, kmoe_splice_chain, matmul, \
    n_experts, qmoe_apply_chain, qmoe_delta, qmoe_weights_chain, sum_all, \
    transpose
from test_autodiff import MAGNITUDES, assert_bits, backward_with, leaves

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
        delta, alpha = qmoe_delta(h, bank, gate)
        assert np.allclose(alpha.data, [1.0])
        expected = expert_delta(bank, 0)
        assert np.max(np.abs(delta.data - expected)) < 1e-12

    def test_equal_logits_symmetric_mixture(self, rng):
        bank = make_bank(2, rng)
        gate = make_gate(2, rng, zero=True)
        h = Tensor(rng.normal(size=(2, D)))
        delta, alpha = qmoe_delta(h, bank, gate)
        assert np.allclose(alpha.data, [0.5, 0.5])
        e1 = expert_delta(bank, 0)
        e2 = expert_delta(bank, 1)
        assert np.max(np.abs(delta.data - 0.5 * e1 - 0.5 * e2)) < 1e-12

    def test_matches_loop_and_sum_oracle(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(3, D)))
        delta, alpha = qmoe_delta(h, bank, gate)
        expected = np.zeros((D, D))
        for o in range(n_experts(bank)):
            expected += alpha.data[o] * expert_delta(bank, o)
        assert np.max(np.abs(delta.data - expected)) < 1e-12

    def test_gate_gradient_finite_difference(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(2, D)))
        x = Tensor(rng.normal(size=(4, D)))

        def f():
            delta, _ = qmoe_delta(h, bank, gate)
            out = matmul(x, transpose(delta))
            return sum_all(ad.mul(out, out))

        params = [gate.w1, gate.b1, gate.w2, gate.b2]
        assert finite_diff_check_params(f, params, 1e-4) < 1e-4

    def test_alpha_probability_vector(self, rng):
        bank = make_bank(5, rng)
        gate = make_gate(5, rng)
        alpha = qmoe_weights(Tensor(rng.normal(size=(3, D))), range(3), gate)
        assert np.all(alpha.data >= 0)
        assert abs(alpha.data.sum() - 1.0) < 1e-9

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
        alpha = qmoe_weights(h, range(2), gate)
        fused = qmoe_apply(x, alpha, bank)
        direct = x.data @ delta.data.T
        assert np.max(np.abs(fused.data - direct)) < 1e-12


class TestKMoE:
    def test_dense_boundary_all_kept(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        h = Tensor(rng.normal(size=(4, D)))
        weights = kmoe_gate_weights(h, 4, gate, b=3)
        beta = kmoe_gate_softmax(h, 4, gate).data
        for c in range(4):
            assert weights.data[c].all()
            assert np.max(np.abs(weights.data[c] - beta[c])) < 1e-12

    def test_equal_logits_tie_break_literal_sum(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng, zero=True)
        h = Tensor(rng.normal(size=(2, D)))
        deltas, weights = kmoe_delta_per_token(h, bank, gate, b=2)
        for c in range(2):
            assert list(np.flatnonzero(weights.data[c])) == [0, 1]
            e1 = expert_delta(bank, 0)
            e2 = expert_delta(bank, 1)
            expected = (e1 + e2) / 3.0  # two thirds total, unrenormalized
            assert np.max(np.abs(deltas[c].data - expected)) < 1e-12

    def test_per_token_deltas_match_bruteforce(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(5, D)))
        deltas, weights = kmoe_delta_per_token(h, bank, gate, b=2)
        for c in range(5):
            expected = np.zeros((D, D))
            for o in range(n_experts(bank)):
                if weights.data[c, o]:
                    expected += weights.data[c, o] * expert_delta(bank, o)
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
        weights = kmoe_gate_weights(Tensor(rng.normal(size=(6, D))), 6, gate,
                                    b=2)
        for c in range(6):
            assert np.count_nonzero(weights.data[c]) == 2
            assert weights.data[c].sum() <= 1.0 + 1e-12

    def test_b_out_of_range(self, rng):
        bank = make_bank(3, rng)
        gate = make_gate(3, rng)
        with pytest.raises(ParameterError):
            kmoe_gate_weights(Tensor(rng.normal(size=(2, D))), 2, gate, b=4)
        with pytest.raises(ParameterError):
            kmoe_gate_weights(Tensor(rng.normal(size=(2, D))), 2, gate, b=0)

    def test_apply_matches_materialized_deltas(self, rng):
        bank = make_bank(4, rng)
        gate = make_gate(4, rng)
        h = Tensor(rng.normal(size=(5, D)))
        weights = kmoe_gate_weights(h, 5, gate, b=2)
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
            weights = kmoe_gate_weights(h, 4, gate, b=2)
            out = kmoe_apply(h, weights, bank)
            return sum_all(ad.mul(out, out))

        params = [gate.w1, gate.b1, gate.w2, gate.b2, bank.A, bank.B]
        assert finite_diff_check_params(f, params, 1e-4) < 1e-3


# A1's decoder: 64 visual rows and 3 text rows of width 64, 4 query experts
# and 8 key experts of rank 4, top-2 key routing, gate MLPs 32 wide
S, WIDTH, N_VISUAL, PROMPT = 67, 64, 64, range(64, 66)


def a1_gate(n_out, rng, magnitude, tie=False):
    gate = GatingNetwork(WIDTH, WIDTH // 2, n_out, rng)
    for t in (gate.w1, gate.b1, gate.w2, gate.b2):
        t.data = rng.uniform(-magnitude, magnitude, size=t.data.shape)
    if tie:
        # experts 1 and 2 get equal logits in every row, so a top-2 cut can
        # fall between them and the stable sort must keep the lower index
        gate.w2.data[:, 2] = gate.w2.data[:, 1]
        gate.b2.data[2] = gate.b2.data[1]
    return gate


class TestGateNodes:
    """Each router's gate is one tape node, bit for bit the chain of generic
    ops it replaced (kept in references.py), in values and gradients."""

    def run(self, build, x, gate, g):
        for t in (x, gate.w1, gate.b1, gate.w2, gate.b2):
            t.grad = None
        out = build()
        backward_with(out, g)
        return [out.data] + [t.grad for t in (x, gate.w1, gate.b1, gate.w2, gate.b2)]

    # A1's two prompt rows, and five, whose 1/5 would show a moved pool scale
    @pytest.mark.parametrize("prompt", [PROMPT, range(61, 66)])
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_query_gate_matches_chain(self, rng, magnitude, prompt):
        (x,) = leaves(rng, [(S, WIDTH)], magnitude)
        bank = make_bank(4, rng, d=WIDTH, rank=4)
        gate = a1_gate(4, rng, magnitude)
        g = rng.normal(size=4)
        node = self.run(lambda: qmoe_weights(x, prompt, gate), x, gate, g)
        chain = self.run(lambda: qmoe_weights_chain(x, prompt, bank, gate),
                         x, gate, g)
        for actual, expected in zip(node, chain):
            assert_bits(actual, expected)
        assert not node[1][:prompt.start].any() and not node[1][prompt.stop:].any()

    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_key_gate_matches_chain(self, rng, magnitude, tie):
        (x,) = leaves(rng, [(S, WIDTH)], magnitude)
        bank = make_bank(8, rng, d=WIDTH, rank=4)
        gate = a1_gate(8, rng, magnitude, tie)
        g = rng.normal(size=(N_VISUAL, 8))
        node = self.run(lambda: kmoe_gate_weights(x, N_VISUAL, gate, 2),
                        x, gate, g)
        chain = self.run(lambda: kmoe_gate_weights_chain(x, N_VISUAL, bank, gate, 2),
                         x, gate, g)
        for actual, expected in zip(node, chain):
            assert_bits(actual, expected)
        if tie:
            # at magnitude 30 every row whose cut falls between the tied
            # weights has them underflow to 0, so the node's nonzero entries
            # cannot show the cut; the mask of the chain's softmax can
            beta = kmoe_gate_softmax(x, N_VISUAL, gate).data
            kept = topb_mask_rows(beta, 2)
            assert np.array_equal(beta[:, 1], beta[:, 2])
            split = kept[:, 1] != kept[:, 2]
            assert split.any() and kept[split, 1].all()

    def test_gradients_vs_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(5, D)), requires_grad=True)
        gate = make_gate(3, rng)
        bank = make_bank(3, rng)
        g_q, g_k = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(4, 3)))

        def f():
            alpha = qmoe_weights(x, range(2, 5), gate)
            weights = kmoe_gate_weights(x, 4, gate, 2)
            return ad.add(sum_all(ad.mul(alpha, g_q)), sum_all(ad.mul(weights, g_k)))

        params = [x, gate.w1, gate.b1, gate.w2, gate.b2]
        assert finite_diff_check_params(f, params, 1e-6) < 1e-6

    def test_rows_outside_the_input_rejected(self, rng):
        # the chain's slice_rows refused these; a plain slice would not
        x = Tensor(rng.normal(size=(5, D)))
        gate, bank = make_gate(3, rng), make_bank(3, rng)
        for rows in (range(3, 3), range(4, 7), range(-1, 2)):
            with pytest.raises(ShapeError, match="router rows"):
                qmoe_weights(x, rows, gate)
        for n_tokens in (0, 6):
            with pytest.raises(ShapeError, match="router rows"):
                kmoe_gate_weights(x, n_tokens, gate, 2)

    def test_one_node_with_parents_in_chain_order(self, rng):
        # the chain's MLP took (input, w1, b1, w2, b2); the tape sums the
        # gradients into x in an order that follows these parents
        x = Tensor(rng.normal(size=(5, D)), requires_grad=True)
        gate, bank = make_gate(3, rng), make_bank(3, rng)
        alpha = qmoe_weights(x, range(2, 5), gate)
        weights = kmoe_gate_weights(x, 4, gate, 2)
        for node in (alpha, weights):
            assert node._parents == (x, gate.w1, gate.b1, gate.w2, gate.b2)
        with ad.no_grad():
            assert not qmoe_weights(x, range(2, 5), gate).requires_grad


    def test_group_gates_match_each_sample(self, rng):
        x = rng.normal(size=(3, 7, D))
        gate, bank = make_gate(4, rng), make_bank(4, rng)
        with ad.no_grad():
            alpha = qmoe_weights(Tensor(x), range(2, 5), gate).data
            beta = kmoe_gate_weights(Tensor(x), 4, gate, 2).data
            for i in range(3):
                assert_bits(alpha[i],
                            qmoe_weights(Tensor(x[i]), range(2, 5), gate).data)
                assert_bits(beta[i], kmoe_gate_weights(Tensor(x[i]), 4, gate, 2).data)


class TestMixtureWeightForms:
    """lowrank_rows_apply takes one [O] vector for every row, or [m x O]
    weights for the first m rows; both are bit for bit the forms they
    replaced, a gathered [S x O] matrix and a slice-and-splice."""

    def grads(self, out_fn, leaves_, g):
        for t in leaves_:
            t.grad = None
        out = out_fn()
        backward_with(out, g)
        return [out.data] + [t.grad for t in leaves_]

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("shape", [(S, WIDTH, 4), (5, D, 3)])
    def test_shared_vector_matches_gathered_rows(self, rng, shape, magnitude):
        s, d, n = shape
        x, alpha = leaves(rng, [(s, d), (n,)], magnitude)
        bank = make_bank(n, rng, d=d, rank=4)
        for t in (bank.A, bank.B):
            t.data = rng.uniform(-magnitude, magnitude, size=t.data.shape)
        g = rng.normal(size=(s, d))
        group = [x, alpha, bank.A, bank.B]
        fused = self.grads(lambda: qmoe_apply(x, alpha, bank), group, g)
        chain = self.grads(lambda: qmoe_apply_chain(x, alpha, bank), group, g)
        for actual, expected in zip(fused, chain):
            assert_bits(actual, expected)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("shape", [(S, WIDTH, N_VISUAL, 8), (5, D, 3, 3),
                                       (5, D, 5, 3)])
    def test_leading_rows_match_splice(self, rng, shape, magnitude):
        s, d, m, n = shape
        h, k, w = leaves(rng, [(s, d), (s, d), (m, n)], magnitude)
        bank = make_bank(n, rng, d=d, rank=4)
        for t in (bank.A, bank.B):
            t.data = rng.uniform(-magnitude, magnitude, size=t.data.shape)
        g = rng.normal(size=(s, d))
        group = [h, k, w, bank.A, bank.B]
        fused = self.grads(lambda: ad.add(kmoe_apply(h, w, bank), k), group, g)
        chain = self.grads(lambda: kmoe_splice_chain(k, h, w, bank), group, g)
        for actual, expected in zip(fused, chain):
            assert_bits(actual, expected)
        assert_bits(fused[0][m:], k.data[m:])

    @pytest.mark.parametrize("weight_shape", [(3,), (4, 3)])
    def test_gradients_vs_finite_differences(self, rng, weight_shape):
        x, w, a, b = (Tensor(rng.normal(size=s), requires_grad=True)
                      for s in ((6, D), weight_shape, (6, D), (5, 6)))
        g = Tensor(rng.normal(size=(6, 5)))

        def f():
            return sum_all(ad.mul(ad.lowrank_rows_apply(x, w, a, b, 2), g))

        assert finite_diff_check_params(f, [x, w, a, b], 1e-6) < 1e-6

    @pytest.mark.parametrize("weight_shape", [(), (7, 3), (4,), (2, 3, 1)])
    def test_weights_that_do_not_fit_rejected(self, rng, weight_shape):
        x, a, b = Tensor(np.zeros((6, D))), Tensor(np.zeros((6, D))), \
            Tensor(np.zeros((5, 6)))
        with pytest.raises(ShapeError, match="lowrank_rows_apply"):
            ad.lowrank_rows_apply(x, Tensor(np.zeros(weight_shape)), a, b, 2)


    @pytest.mark.parametrize("rows", [None, 3, S], ids=["shared", "first-3", "all"])
    def test_group_weights_match_each_sample(self, rng, rows):
        # [B x O] weights are shared by every row of their sample, [B x m x O]
        # weights mix its first m rows; either way each sample reads as alone
        n = 4
        x = rng.normal(size=(3, S, WIDTH))
        w = rng.uniform(size=(3, n) if rows is None else (3, rows, n))
        bank = make_bank(n, rng, d=WIDTH, rank=4)
        with ad.no_grad():
            group = ad.lowrank_rows_apply(x, w, bank.A, bank.B, 4).data
            for i in range(3):
                alone = ad.lowrank_rows_apply(x[i], w[i], bank.A, bank.B, 4).data
                assert_bits(group[i], alone)

    @pytest.mark.parametrize("weight_shape", [(3, 4), (2, S + 1, 4), (4,),
                                              (2, 2, 3, 4), (2, 5)])
    def test_group_weights_that_do_not_fit_rejected(self, rng, weight_shape):
        x, w = Tensor(np.zeros((2, S, WIDTH))), Tensor(np.zeros(weight_shape))
        bank = make_bank(4, rng, d=WIDTH, rank=4)
        with pytest.raises(ShapeError, match=re.escape(
                f"x {x.shape}, weights {w.shape}")):
            ad.lowrank_rows_apply(x, w, bank.A, bank.B, 4)


class TestRouterNodesInTheLayer:
    def test_layer_adds_each_delta_in_chain_order(self, rng):
        # q = add(base, delta) and k = add(delta, base): k's operand order
        # makes the tape sum the gradients into h in the order of the old
        # slice-and-splice chain
        model, adapters = make_model_and_adapters(ONE_LAYER, randomize=True)
        out = model.forward(make_visual(ONE_LAYER, rng), (1, 2), (3,), adapters)
        q, k = out.attention.planes[0]._parents
        la = adapters.layers[0]
        q_base, q_delta = q._parents
        k_delta, k_base = k._parents
        h = q_base._parents[0]
        assert q_delta._parents[0] is h and k_delta._parents[0] is h
        assert k_base._parents[0] is h
        assert q_delta._parents[2:] == (la.q_bank.A, la.q_bank.B)
        assert k_delta._parents[2:] == (la.k_bank.A, la.k_bank.B)
        alpha, weights = q_delta._parents[1], k_delta._parents[1]
        assert alpha.shape == (la.q_bank.A.shape[0] // la.q_bank.rank,)
        assert weights.shape[0] == ONE_LAYER.n_visual
        assert alpha._parents[1:] == (la.q_gate.w1, la.q_gate.b1, la.q_gate.w2,
                                      la.q_gate.b2)
        assert weights._parents[1:] == (la.k_gate.w1, la.k_gate.b1, la.k_gate.w2,
                                        la.k_gate.b2)


class TestExpertBank:
    def test_stacked_init_matches_per_expert_draws(self):
        bank = ExpertBank(4, 5, D, RANK, np.random.default_rng(3))
        r = np.random.default_rng(3)
        bound = 1.0 / np.sqrt(D)
        draws = [r.uniform(-bound, bound, size=(RANK, D)) for _ in range(4)]
        assert np.array_equal(bank.A.data, np.concatenate(draws))
        assert bank.B.shape == (5, 4 * RANK) and not bank.B.data.any()
        assert bank.A.shape == (4 * RANK, D)

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
        lora = ExpertBank(1, D, D, RANK, rng)  # B zero-initialized
        out = adapted_projection(x, w, dense_lora=lora)
        base = x.data @ w.data.T
        assert np.array_equal(out.data, base)

    def test_dense_lora_linearity(self, rng):
        x = Tensor(rng.normal(size=(4, D)))
        w = Tensor(rng.normal(size=(D, D)))
        lora = ExpertBank(1, D, D, RANK, rng)
        lora.B.data = rng.normal(size=lora.B.data.shape)
        out = adapted_projection(x, w, dense_lora=lora)
        delta = lora.B.data @ lora.A.data
        expected = x.data @ (w.data + delta).T
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_per_row_explicit_construction(self, rng):
        x = Tensor(rng.normal(size=(5, D)))
        w = Tensor(rng.normal(size=(D, D)))
        lora = ExpertBank(1, D, D, RANK, rng)
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
        # checked when the config is built, which cannot change it later
        with pytest.raises(ParameterError, match=r"top_b=5 outside \[1, 4\]"):
            AdapterConfig(n_k_experts=4, top_b=5)
        with pytest.raises(ParameterError, match=r"top_b=0 outside \[1, 4\]"):
            AdapterConfig(n_k_experts=4, top_b=0)
        AdapterConfig(n_k_experts=4, top_b=4)
        AdapterConfig(n_k_experts=4, top_b=0, use_kmoe=False)
        for name in ("dense_rank", "expert_rank", "n_q_experts", "n_k_experts"):
            with pytest.raises(ParameterError, match=f"{name} must be >= 1, got 0"):
                AdapterConfig(**{name: 0, "use_kmoe": False})
        with pytest.raises(dataclasses.FrozenInstanceError):
            AdapterConfig().top_b = 9

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
