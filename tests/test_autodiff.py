import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import autodiff as ad
from attnalign.errors import DegenerateRowError, NumericError, ShapeError

from attnalign.training import AdamW

from oracles import adamw_ref, gelu_value_slope, layer_norm_ref, \
    linear_with_lora_ref, mlp_two_layer_ref, softmax_ref, softmax_row_decimal


def scalar_of(t):
    return ad.sum_all(ad.mul(t, t))


class TestMatmul:
    def test_identity(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_direct_arithmetic(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                        ad.Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_backward_vs_finite_differences(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err_a = ad.finite_diff_check(lambda t: scalar_of(ad.matmul(t, b)), a, 1e-5)
        err_b = ad.finite_diff_check(lambda t: scalar_of(ad.matmul(a, t)), b, 1e-5)
        assert max(err_a, err_b) < 1e-5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=0, rtol=1e-15)

    def test_stabilized_no_overflow(self):
        out = ad.softmax_rows(ad.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0, 0] - 1.0) < 1e-12
        assert out.data[0, 1] < 1e-12

    def test_matches_extended_precision_oracle(self, rng):
        row = rng.normal(size=6)
        out = ad.softmax_rows(ad.Tensor(row[None, :]))
        expected = softmax_row_decimal(row)
        assert np.max(np.abs(out.data[0] - expected) / expected) < 1e-12

    def test_spec_row_123(self):
        out = ad.softmax_rows(ad.Tensor([[1.0, 2.0, 3.0]]))
        expected = softmax_row_decimal([1.0, 2.0, 3.0])
        assert np.max(np.abs(out.data[0] - expected) / expected) < 1e-12

    def test_masked_entries_exactly_zero(self):
        mask = np.array([[True, False, True]])
        out = ad.softmax_rows(ad.Tensor([[5.0, 50.0, 1.0]]), mask)
        assert out.data[0, 1] == 0.0
        assert abs(out.data[0].sum() - 1.0) < 1e-9

    def test_fully_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            ad.softmax_rows(ad.Tensor([[1.0, 2.0]]),
                            np.array([[False, False]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic_property(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(0, 5, size=(4, 6))
        mask = r.random((4, 6)) < 0.7
        mask[:, 0] = True
        out = ad.softmax_rows(ad.Tensor(x), mask).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    def test_backward(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        err = ad.finite_diff_check(lambda t: scalar_of(ad.softmax_rows(t)), x, 1e-6)
        assert err < 1e-6


class TestMeanPoolRows:
    def test_single_row_identity(self):
        out = ad.mean_pool_rows(ad.Tensor([[3.0, -1.0, 2.0]]))
        assert np.array_equal(out.data, [3.0, -1.0, 2.0])

    def test_direct_arithmetic(self):
        out = ad.mean_pool_rows(ad.Tensor([[0.0, 2.0], [2.0, 0.0]]))
        assert np.array_equal(out.data, [1.0, 1.0])

    def test_equals_sum_over_m(self, rng):
        x = rng.normal(size=(5, 3))
        out = ad.mean_pool_rows(ad.Tensor(x))
        total = np.zeros(3)
        for row in x:
            total += row
        assert np.max(np.abs(out.data - total / 5)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            ad.mean_pool_rows(ad.Tensor(np.zeros((0, 3))))


class TestCrossEntropy:
    def test_uniform_logits_ln_v(self):
        v = 7
        loss = ad.cross_entropy(ad.Tensor(np.zeros((3, v))), [0, 3, 6])
        assert abs(float(loss.data) - np.log(v)) < 1e-12

    def test_one_hot_limit(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e6
        loss = ad.cross_entropy(ad.Tensor(logits), [2])
        assert float(loss.data) < 1e-9

    def test_gradient_vs_finite_differences(self, rng):
        logits = ad.Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        targets = [1, 0, 6, 3]
        err = ad.finite_diff_check(lambda t: ad.cross_entropy(t, targets),
                                   logits, 1e-5)
        assert err < 1e-4

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 4))), [0, 4])


class TestFiniteDiffCheck:
    def test_analytic_quadratic(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        err = ad.finite_diff_check(lambda t: ad.sum_all(ad.mul(t, t)), x, 1e-6)
        assert err < 1e-8
        assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_cross_entropy_composite(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(5, 5)))

        def f(t):
            return ad.cross_entropy(ad.matmul(t, w), [0, 2, 4])

        assert ad.finite_diff_check(f, x, 1e-5) < 1e-4

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_raises(self):
        x = ad.Tensor([1.0], requires_grad=True)

        def f(t):
            return ad.div(ad.sum_all(t), ad.sum_all(ad.sub(t, t)))

        with pytest.raises(NumericError):
            ad.finite_diff_check(f, x, 1e-6)


class TestDeterminism:
    def test_backward_twice_bit_identical(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = ad.sum_all(ad.mul(ad.matmul(x, y), ad.matmul(x, y)))
        loss.backward()
        gx, gy = x.grad.copy(), y.grad.copy()
        x.zero_grad()
        y.zero_grad()
        loss.backward()
        assert np.array_equal(gx, x.grad) and np.array_equal(gy, y.grad)

    def test_accumulation_is_additive(self, rng):
        x = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        loss.backward()
        g1 = x.grad.copy()
        loss.backward()
        assert np.allclose(x.grad, 2 * g1)


class TestStructuralOps:
    def test_take_and_scatter(self, rng):
        x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        err = ad.finite_diff_check(
            lambda t: scalar_of(ad.take(t, [5, 0, 0, 2])), x, 1e-6)
        assert err < 1e-6

    def test_concat_slice_roundtrip(self, rng):
        a = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        cat = ad.concat_rows([a, b])
        assert np.array_equal(ad.slice_rows(cat, 0, 2).data, a.data)
        assert np.array_equal(ad.slice_rows(cat, 2, 5).data, b.data)
        err = ad.finite_diff_check(
            lambda t: scalar_of(ad.concat_rows([t, b])), a, 1e-6)
        assert err < 1e-6

    def test_layer_norm_backward_all_parents(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = ad.Tensor(rng.normal(size=6), requires_grad=True)
        b = ad.Tensor(rng.normal(size=6), requires_grad=True)

        def f():
            return scalar_of(ad.layer_norm_rows(x, g, b))

        assert ad.finite_diff_check_params(f, [x, g, b], 1e-6) < 1e-6

    def test_gelu_smooth_and_correct(self, rng):
        x = ad.Tensor(rng.normal(0, 2, size=(3, 4)), requires_grad=True)
        assert ad.finite_diff_check(lambda t: scalar_of(ad.gelu(t)), x, 1e-6) < 1e-6


class TestFusedOps:
    def test_linear_with_lora_matches_composition(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 6)))
        w = ad.Tensor(rng.normal(size=(4, 6)))
        a = ad.Tensor(rng.normal(size=(2, 6)))
        b = ad.Tensor(rng.normal(size=(4, 2)))
        fused = ad.linear_with_lora(x, w, a, b)
        manual = x.data @ w.data.T + (x.data @ a.data.T) @ b.data.T
        assert np.max(np.abs(fused.data - manual)) < 1e-12

    def test_fused_gradients(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        a = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return scalar_of(ad.linear_with_lora(x, w, a, b))

        assert ad.finite_diff_check_params(f, [x, w, a, b], 1e-6) < 1e-6

    def test_head_ops_roundtrip(self, rng):
        x = rng.normal(size=(6, 8))
        planes = ad.split_heads(ad.Tensor(x), 2)
        assert planes.shape == (2, 6, 4)
        assert np.array_equal(planes.data[1], x[:, 4:])
        back = ad.merge_heads(planes)
        assert np.array_equal(back.data, x)

    def test_bmm_matches_per_plane(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        out = ad.bmm(ad.Tensor(a), ad.Tensor(b))
        for i in range(3):
            assert np.max(np.abs(out.data[i] - a[i] @ b[i])) < 1e-12

    def test_softmax_heads_matches_softmax_rows(self, rng):
        x = rng.normal(size=(2, 4, 4))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        out3 = ad.softmax_heads(ad.Tensor(x), mask)
        for i in range(2):
            out2 = ad.softmax_rows(ad.Tensor(x[i]), mask)
            assert np.max(np.abs(out3.data[i] - out2.data)) < 1e-15

    def test_lowrank_rows_apply_matches_loop(self, rng):
        x = rng.normal(size=(5, 6))
        wts = rng.normal(size=(5, 3))
        As = [rng.normal(size=(2, 6)) for _ in range(3)]
        Bs = [rng.normal(size=(6, 2)) for _ in range(3)]
        out = ad.lowrank_rows_apply(ad.Tensor(x), ad.Tensor(wts),
                                    ad.Tensor(np.concatenate(As)),
                                    ad.Tensor(np.concatenate(Bs, axis=1)), 2)
        for c in range(5):
            delta = sum(wts[c, o] * Bs[o] @ As[o] for o in range(3))
            assert np.max(np.abs(out.data[c] - x[c] @ delta.T)) < 1e-12

    def test_lowrank_rows_apply_gradients(self, rng):
        x, w, a, b = (ad.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in ((5, 6), (5, 3), (6, 6), (4, 6)))

        def f():
            return scalar_of(ad.lowrank_rows_apply(x, w, a, b, 2))

        assert ad.finite_diff_check_params(f, [x, w, a, b], 1e-6) < 1e-6


def backward_with(out, g):
    """Backpropagate the output gradient g exactly: d sum(out * g) / d out = g."""
    ad.sum_all(ad.mul(out, ad.Tensor(g))).backward()


def leaves(rng, shapes, magnitude):
    return [ad.Tensor(rng.uniform(-magnitude, magnitude, size=s), requires_grad=True)
            for s in shapes]


def assert_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


MAGNITUDES = [1.0, 30.0]


class TestKernelsBitExact:
    """The in-place kernels reproduce the plain expressions in oracles.py bit for bit."""

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("shape", [(67, 256), (5, 7)])
    def test_gelu(self, rng, shape, magnitude):
        (x,) = leaves(rng, [shape], magnitude)
        g = rng.normal(size=shape)
        out = ad.gelu(x)
        backward_with(out, g)
        value, slope = gelu_value_slope(x.data)
        assert_bits(out.data, value)
        assert_bits(x.grad, g * slope)
        with ad.no_grad():
            assert_bits(ad.gelu(x).data, out.data)
        assert_bits(ad.gelu(ad.Tensor(x.data)).data, out.data)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_mlp_two_layer(self, rng, magnitude):
        params = leaves(rng, [(9, 64), (64, 32), (32,), (32, 8), (8,)], magnitude)
        g = rng.normal(size=(9, 8))
        out = ad.mlp_two_layer(*params)
        backward_with(out, g)
        value, grads = mlp_two_layer_ref(*(p.data for p in params), g)
        assert_bits(out.data, value)
        for p, expected in zip(params, grads):
            assert_bits(p.grad, expected)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_rows(self, rng, masked, magnitude):
        (x,) = leaves(rng, [(67, 67)], magnitude)
        mask = None
        if masked:
            mask = rng.random((67, 67)) < 0.6
            mask[:, 3] = True
        g = rng.normal(size=(67, 67))
        out = ad.softmax_rows(x, mask)
        backward_with(out, g)
        value, grad = softmax_ref(x.data, mask, g)
        assert_bits(out.data, value)
        assert_bits(x.grad, grad)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_heads(self, rng, masked, magnitude):
        (x,) = leaves(rng, [(4, 67, 67)], magnitude)
        mask = np.tril(np.ones((67, 67), dtype=bool)) if masked else None
        if masked:
            mask[:, :64] = True
        g = rng.normal(size=(4, 67, 67))
        out = ad.softmax_heads(x, mask)
        backward_with(out, g)
        value, grad = softmax_ref(x.data, mask, g)
        assert_bits(out.data, value)
        assert_bits(x.grad, grad)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("shape", [(67, 64), (3, 5)])
    def test_layer_norm_rows(self, rng, shape, magnitude):
        params = leaves(rng, [shape, shape[1:], shape[1:]], magnitude)
        params[0].data += rng.uniform(-magnitude, magnitude, size=(shape[0], 1))
        g = rng.normal(size=shape)
        out = ad.layer_norm_rows(*params)
        backward_with(out, g)
        value, grads = layer_norm_ref(*(p.data for p in params), g)
        assert_bits(out.data, value)
        for p, expected in zip(params, grads):
            assert_bits(p.grad, expected)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_linear_with_lora(self, rng, magnitude):
        params = leaves(rng, [(67, 64), (256, 64), (8, 64), (256, 8)], magnitude)
        g = rng.normal(size=(67, 256))
        out = ad.linear_with_lora(*params)
        backward_with(out, g)
        value, grads = linear_with_lora_ref(*(p.data for p in params), g)
        assert_bits(out.data, value)
        for p, expected in zip(params, grads):
            assert_bits(p.grad, expected)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_adamw_step(self, rng, magnitude):
        (p,) = leaves(rng, [(64, 32)], magnitude)
        start = p.data.copy()
        grads = [rng.uniform(-magnitude, magnitude, size=(64, 32)) for _ in range(3)]
        opt = AdamW([("p", p)], lr=3e-3)
        for g in grads:
            p.grad = g.copy()
            opt.step(grad_scale=1.0 / 8)
            assert_bits(p.grad, g)   # the step leaves the gradient alone
        value, m, v = adamw_ref(start, np.zeros_like(start), np.zeros_like(start),
                                grads, 3e-3, 1.0 / 8)
        assert_bits(p.data, value)
        assert_bits(opt.m[0], m)
        assert_bits(opt.v[0], v)

    def test_graph_recorded_iff_some_parent_needs_grad(self, rng):
        frozen = ad.Tensor(rng.normal(size=(2, 2)))
        leaf = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = ad.add(frozen, leaf)
        assert out.requires_grad and out._parents == (frozen, leaf)
        assert not ad.add(frozen, frozen).requires_grad
        with ad.no_grad():
            assert not ad.add(frozen, leaf).requires_grad
