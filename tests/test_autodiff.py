import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import autodiff as ad
from attnalign.errors import DegenerateRowError, ShapeError

from attnalign.training import AdamW

from oracles import NumericError, adamw_ref, finite_diff_check, \
    finite_diff_check_params, gelu_value_slope, layer_norm_ref, \
    linear_with_lora_ref, mlp_two_layer_ref, softmax_ref, softmax_row_decimal
from references import attention_chain, bmm, concat_rows, cross_entropy_rows, \
    lm_loss_chain, matmul, mean_pool_rows, merge_heads, mlp_two_layer, mul, \
    slice_rows, softmax_heads, softmax_rows, split_heads, sum_all, take


def scalar_of(t):
    return sum_all(ad.mul(t, t))


class TestMatmul:
    def test_identity(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(ad.Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_direct_arithmetic(self):
        out = matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                     ad.Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_backward_vs_finite_differences(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err_a = finite_diff_check(lambda t: scalar_of(matmul(t, b)), a, 1e-5)
        err_b = finite_diff_check(lambda t: scalar_of(matmul(a, t)), b, 1e-5)
        assert max(err_a, err_b) < 1e-5

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(ad.Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=0, rtol=1e-15)

    def test_stabilized_no_overflow(self):
        out = softmax_rows(ad.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0, 0] - 1.0) < 1e-12
        assert out.data[0, 1] < 1e-12

    def test_matches_extended_precision_oracle(self, rng):
        row = rng.normal(size=6)
        out = softmax_rows(ad.Tensor(row[None, :]))
        expected = softmax_row_decimal(row)
        assert np.max(np.abs(out.data[0] - expected) / expected) < 1e-12

    def test_spec_row_123(self):
        out = softmax_rows(ad.Tensor([[1.0, 2.0, 3.0]]))
        expected = softmax_row_decimal([1.0, 2.0, 3.0])
        assert np.max(np.abs(out.data[0] - expected) / expected) < 1e-12

    def test_masked_entries_exactly_zero(self):
        mask = np.array([[True, False, True]])
        out = softmax_rows(ad.Tensor([[5.0, 50.0, 1.0]]), mask)
        assert out.data[0, 1] == 0.0
        assert abs(out.data[0].sum() - 1.0) < 1e-9

    def test_fully_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            softmax_rows(ad.Tensor([[1.0, 2.0]]),
                            np.array([[False, False]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic_property(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(0, 5, size=(4, 6))
        mask = r.random((4, 6)) < 0.7
        mask[:, 0] = True
        out = softmax_rows(ad.Tensor(x), mask).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    def test_backward(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        err = finite_diff_check(lambda t: scalar_of(softmax_rows(t)), x, 1e-6)
        assert err < 1e-6


class TestMeanPoolRows:
    def test_single_row_identity(self):
        out = mean_pool_rows(ad.Tensor([[3.0, -1.0, 2.0]]))
        assert np.array_equal(out.data, [3.0, -1.0, 2.0])

    def test_direct_arithmetic(self):
        out = mean_pool_rows(ad.Tensor([[0.0, 2.0], [2.0, 0.0]]))
        assert np.array_equal(out.data, [1.0, 1.0])

    def test_equals_sum_over_m(self, rng):
        x = rng.normal(size=(5, 3))
        out = mean_pool_rows(ad.Tensor(x))
        total = np.zeros(3)
        for row in x:
            total += row
        assert np.max(np.abs(out.data - total / 5)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            mean_pool_rows(ad.Tensor(np.zeros((0, 3))))


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
        err = finite_diff_check(lambda t: ad.cross_entropy(t, targets), logits, 1e-5)
        assert err < 1e-4

    def test_out_of_range_target(self):
        with pytest.raises(ShapeError, match=r"target outside \[0, 4\)"):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 4))), [0, 4])

    @pytest.mark.parametrize("targets", [[], [0, 1, 2], [[0], [1]]],
                             ids=["none", "more-than-rows", "2-d"])
    def test_targets_must_fit_the_rows(self, targets):
        # no targets gave NaN after two numpy RuntimeWarnings
        with pytest.raises(ShapeError, match=r"need 1 to 2 targets$"):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 4))), targets)

    @pytest.mark.parametrize("magnitude", [1.0, 30.0])
    def test_bit_exact_against_row_set_readers(self, rng, magnitude):
        # A1 shape at three answer tokens: 4 kept rows of 64 logits, the
        # first 3 predicting; the row-set readers named the rows
        targets = [7, 0, 63]
        data = rng.uniform(-magnitude, magnitude, size=(4, 64))
        results = []
        for build in (lambda t: ad.cross_entropy(t, targets),
                      lambda t: cross_entropy_rows(t, [0, 1, 2], targets),
                      lambda t: lm_loss_chain(t, [0, 1, 2], targets)):
            logits = ad.Tensor(data.copy(), requires_grad=True)
            loss = build(logits)
            ad.mul(loss, 0.37).backward()
            results.append((loss.data, logits.grad))
        for loss, grad in results[1:]:
            assert_bits(results[0][0], loss)
            assert_bits(results[0][1], grad)
        assert results[0][1][:3].all() and not results[0][1][3].any()

    def test_fewer_targets_than_rows_vs_finite_differences(self, rng):
        logits = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        err = finite_diff_check(lambda t: ad.cross_entropy(t, [2, 0, 5]), logits, 1e-5)
        assert err < 1e-6


class TestFiniteDiffCheck:
    def test_analytic_quadratic(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        err = finite_diff_check(lambda t: sum_all(ad.mul(t, t)), x, 1e-6)
        assert err < 1e-8
        assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_cross_entropy_composite(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(5, 5)))

        def f(t):
            return ad.cross_entropy(matmul(t, w), [0, 2, 4])

        assert finite_diff_check(f, x, 1e-5) < 1e-4

    def test_non_finite_raises(self):
        x = ad.Tensor([1.0], requires_grad=True)

        def f(t):
            return sum_all(mul(t, np.inf))

        with pytest.raises(NumericError):
            finite_diff_check(f, x, 1e-6)


class TestDeterminism:
    def test_backward_twice_bit_identical(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = ad.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = sum_all(ad.mul(matmul(x, y), matmul(x, y)))
        loss.backward()
        gx, gy = x.grad.copy(), y.grad.copy()
        x.grad = None
        y.grad = None
        loss.backward()
        assert np.array_equal(gx, x.grad) and np.array_equal(gy, y.grad)

    def test_accumulation_is_additive(self, rng):
        x = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = sum_all(ad.mul(x, x))
        loss.backward()
        g1 = x.grad.copy()
        loss.backward()
        assert np.allclose(x.grad, 2 * g1)


class TestStructuralOps:
    def test_take_and_scatter(self, rng):
        x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        err = finite_diff_check(
            lambda t: scalar_of(take(t, [5, 0, 0, 2])), x, 1e-6)
        assert err < 1e-6

    def test_concat_slice_roundtrip(self, rng):
        a = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        cat = concat_rows([a, b])
        assert np.array_equal(slice_rows(cat, 0, 2).data, a.data)
        assert np.array_equal(slice_rows(cat, 2, 5).data, b.data)
        err = finite_diff_check(
            lambda t: scalar_of(concat_rows([t, b])), a, 1e-6)
        assert err < 1e-6

    def test_layer_norm_backward_all_parents(self, rng):
        # gain and bias are frozen arrays, so x is the only parent
        x = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g, b = rng.normal(size=6), rng.normal(size=6)
        out = ad.layer_norm_rows(x, g, b)
        assert out._parents == (x,)
        assert finite_diff_check(lambda t: scalar_of(ad.layer_norm_rows(t, g, b)),
                                 x, 1e-6) < 1e-6

    def test_gelu_smooth_and_correct(self, rng):
        x = ad.Tensor(rng.normal(0, 2, size=(3, 4)), requires_grad=True)
        assert finite_diff_check(lambda t: scalar_of(ad.gelu(t)), x, 1e-6) < 1e-6


class TestFusedOps:
    # split_heads, merge_heads, bmm and softmax_heads live in references.py:
    # they build the chain that attention_planes and attend are pinned to
    def test_linear_with_lora_matches_composition(self, rng):
        x = ad.Tensor(rng.normal(size=(5, 6)))
        w = rng.normal(size=(4, 6))
        a = ad.Tensor(rng.normal(size=(2, 6)))
        b = ad.Tensor(rng.normal(size=(4, 2)))
        fused = ad.linear_with_lora(x, w, a, b)
        manual = x.data @ w.T + (x.data @ a.data.T) @ b.data.T
        assert np.max(np.abs(fused.data - manual)) < 1e-12

    def test_fused_gradients(self, rng):
        # the base weight w is a frozen array; x, A and B are the parents
        x = ad.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        w = rng.normal(size=(4, 6))
        a = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return scalar_of(ad.linear_with_lora(x, w, a, b))

        assert ad.linear_with_lora(x, w, a, b)._parents == (x, a, b)
        assert ad.linear_with_lora(x, w)._parents == (x,)
        assert finite_diff_check_params(f, [x, a, b], 1e-6) < 1e-6

    def test_head_ops_roundtrip(self, rng):
        x = rng.normal(size=(6, 8))
        planes = split_heads(ad.Tensor(x), 2)
        assert planes.shape == (2, 6, 4)
        assert np.array_equal(planes.data[1], x[:, 4:])
        back = merge_heads(planes)
        assert np.array_equal(back.data, x)

    def test_bmm_matches_per_plane(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        out = bmm(ad.Tensor(a), ad.Tensor(b))
        for i in range(3):
            assert np.max(np.abs(out.data[i] - a[i] @ b[i])) < 1e-12

    def test_softmax_heads_matches_softmax_rows(self, rng):
        x = rng.normal(size=(2, 4, 4))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        out3 = softmax_heads(ad.Tensor(x), mask)
        for i in range(2):
            out2 = softmax_rows(ad.Tensor(x[i]), mask)
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

        assert finite_diff_check_params(f, [x, w, a, b], 1e-6) < 1e-6


def backward_with(out, g):
    """Backpropagate the output gradient g exactly: d sum(out * g) / d out = g."""
    sum_all(ad.mul(out, ad.Tensor(g))).backward()


def leaves(rng, shapes, magnitude):
    return [ad.Tensor(rng.uniform(-magnitude, magnitude, size=s), requires_grad=True)
            for s in shapes]


def assert_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


MAGNITUDES = [1.0, 30.0]


class TestTailRows:
    """The suffix op against the index-gather oracle: its backward adds g into
    zeros exactly as np.add.at does, so a -0.0 in g leaves 0.0."""

    @pytest.mark.parametrize("group", [(), (3,)], ids=["matrix", "group"])
    @pytest.mark.parametrize("m", [1, 2, 67])
    def test_bit_exact_against_take(self, rng, group, m):
        (x,) = leaves(rng, [group + (67, 8)], 1.0)
        x.data[..., -1, :2] = -0.0
        g = rng.normal(size=group + (m, 8))
        g[..., 0, 3:5] = -0.0
        out = ad.tail_rows(x, m)
        backward_with(out, g)
        for i in np.ndindex(group):
            xi = ad.Tensor(x.data[i], requires_grad=True)
            ref = take(xi, range(67 - m, 67))
            backward_with(ref, g[i])
            assert out.data[i].tobytes() == ref.data.tobytes()
            assert x.grad[i].tobytes() == xi.grad.tobytes()
        assert np.signbit(out.data[..., -1, :2]).all()
        assert not np.signbit(x.grad[..., -m, 3:5]).any()
        assert not np.signbit(x.grad[..., :67 - m, :]).any()

    @pytest.mark.parametrize("x,m", [
        (np.zeros((4, 2)), 5), (np.zeros((4, 2)), 0), (np.zeros((4, 2)), -1),
        (np.zeros(4), 1),
    ], ids=["past-start", "zero", "negative", "vector"])
    def test_shape_errors(self, x, m):
        with pytest.raises(ShapeError, match=f"^tail_rows: the last {m} rows of "):
            ad.tail_rows(ad.Tensor(x), m)


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

    # mlp_two_layer and softmax_rows live in references.py, in the router
    # chain that the gate nodes are pinned to; they share the gate's kernels
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_mlp_two_layer(self, rng, magnitude):
        params = leaves(rng, [(9, 64), (64, 32), (32,), (32, 8), (8,)], magnitude)
        g = rng.normal(size=(9, 8))
        out = mlp_two_layer(*params)
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
        out = softmax_rows(x, mask)
        backward_with(out, g)
        value, grad = softmax_ref(x.data, mask, g)
        assert_bits(out.data, value)
        assert_bits(x.grad, grad)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_heads(self, rng, masked, magnitude):
        # the reference chain's softmax, which attention_planes must reproduce
        (x,) = leaves(rng, [(4, 67, 67)], magnitude)
        mask = np.tril(np.ones((67, 67), dtype=bool)) if masked else None
        if masked:
            mask[:, :64] = True
        g = rng.normal(size=(4, 67, 67))
        out = softmax_heads(x, mask)
        backward_with(out, g)
        value, grad = softmax_ref(x.data, mask, g)
        assert_bits(out.data, value)
        assert_bits(x.grad, grad)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("shape", [(67, 64), (3, 5)])
    def test_layer_norm_rows(self, rng, shape, magnitude):
        (x,) = leaves(rng, [shape], magnitude)
        x.data += rng.uniform(-magnitude, magnitude, size=(shape[0], 1))
        gain, bias = (rng.uniform(-magnitude, magnitude, size=shape[1:])
                      for _ in range(2))
        g = rng.normal(size=shape)
        out = ad.layer_norm_rows(x, gain, bias)
        backward_with(out, g)
        value, grad = layer_norm_ref(x.data, gain, bias, g)
        assert_bits(out.data, value)
        assert_bits(x.grad, grad)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_linear_with_lora(self, rng, magnitude):
        x, a, b = leaves(rng, [(67, 64), (8, 64), (256, 8)], magnitude)
        w = rng.uniform(-magnitude, magnitude, size=(256, 64))
        g = rng.normal(size=(67, 256))
        out = ad.linear_with_lora(x, w, a, b)
        backward_with(out, g)
        value, grads = linear_with_lora_ref(x.data, w, a.data, b.data, g)
        assert_bits(out.data, value)
        for p, expected in zip((x, a, b), grads):
            assert_bits(p.grad, expected)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_adamw_step(self, rng, magnitude):
        (p,) = leaves(rng, [(64, 32)], magnitude)
        start = p.data.copy()
        grads = [rng.uniform(-magnitude, magnitude, size=(64, 32)) for _ in range(3)]
        opt = AdamW(p.data, lr=3e-3)
        for g in grads:
            p.grad = g.copy()
            opt.step(p.grad, grad_scale=1.0 / 8)
            assert_bits(p.grad, g)   # the step leaves the gradient alone
        value, m, v = adamw_ref(start, np.zeros_like(start), np.zeros_like(start),
                                grads, 3e-3, 1.0 / 8)
        assert_bits(p.data, value)
        assert_bits(opt.m, m)
        assert_bits(opt.v, v)

    def test_graph_recorded_iff_some_parent_needs_grad(self, rng):
        frozen = ad.Tensor(rng.normal(size=(2, 2)))
        leaf = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = ad.add(frozen, leaf)
        assert out.requires_grad and out._parents == (frozen, leaf)
        assert not ad.add(frozen, frozen).requires_grad
        with ad.no_grad():
            assert not ad.add(frozen, leaf).requires_grad


N_HEADS = 4
# head widths 16 (A1's, whose 1/sqrt(dh) is a power of two and so cannot
# show a moved scale) and 12
WIDTHS = [64, 48]


def attention_mask(masked):
    """The decoder's mask at A1 shape: 64 visual keys, causal text keys."""
    if not masked:
        return None
    mask = np.tril(np.ones((67, 67), dtype=bool))
    mask[:, :64] = True
    return mask


def heads(x):
    s, d = x.shape
    return x.reshape(s, N_HEADS, d // N_HEADS).transpose(1, 0, 2)


def columns(x):
    h, s, dh = x.shape
    return x.transpose(1, 0, 2).reshape(s, h * dh)


def fused_attention(q, k, v, mask):
    planes = ad.attention_planes(q, k, N_HEADS, mask)
    return planes, ad.attend(planes, v)


class TestAttentionOps:
    """attention_planes and attend reproduce the nine-node chain in
    references.py bit for bit, and the plain softmax in oracles.py."""

    def run(self, build, q, k, v, mask, g_out, g_planes):
        """Values and q/k/v gradients of sum(out g_out) + sum(planes g_planes);
        the second term stands for the refined map reading the planes."""
        for t in (q, k, v):
            t.grad = None
        planes, out = build(q, k, v, mask)
        ad.add(sum_all(ad.mul(out, ad.Tensor(g_out))),
               sum_all(ad.mul(planes, ad.Tensor(g_planes)))).backward()
        return [planes.data, out.data] + [t.grad for t in (q, k, v)]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_exact_against_chain(self, rng, masked, magnitude, width):
        q, k, v = leaves(rng, [(67, width)] * 3, magnitude)
        g = (rng.normal(size=(67, width)), rng.normal(size=(N_HEADS, 67, 67)))
        mask = attention_mask(masked)
        fused = self.run(fused_attention, q, k, v, mask, *g)
        chain = self.run(lambda *a: attention_chain(*a[:3], N_HEADS, a[3]),
                         q, k, v, mask, *g)
        for actual, expected in zip(fused, chain):
            assert_bits(actual, expected)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_kept_query_rows_bit_exact_against_chain(self, rng, masked, magnitude,
                                                     width):
        # the last decoder layer: the answer-logit and answer query rows of
        # q against every row of k and v, under those rows of the mask
        rows = [65, 66]
        q, k, v = leaves(rng, [(2, width), (67, width), (67, width)], magnitude)
        g = (rng.normal(size=(2, width)), rng.normal(size=(N_HEADS, 2, 67)))
        mask = attention_mask(masked)
        mask = None if mask is None else mask[rows]
        fused = self.run(fused_attention, q, k, v, mask, *g)
        chain = self.run(lambda *a: attention_chain(*a[:3], N_HEADS, a[3]),
                         q, k, v, mask, *g)
        assert fused[0].shape == (N_HEADS, 2, 67)
        assert fused[1].shape == (2, width)
        for actual, expected in zip(fused, chain):
            assert_bits(actual, expected)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_attend_plane_gradient_against_chain(self, rng, masked, magnitude,
                                                 width):
        q, k, v = leaves(rng, [(67, width)] * 3, magnitude)
        g = rng.normal(size=(67, width))
        data = ad.attention_planes(q, k, N_HEADS, attention_mask(masked)).data
        results = []
        for build in (ad.attend,
                      lambda p, v: merge_heads(bmm(p, split_heads(v, N_HEADS)))):
            planes = ad.Tensor(data.copy(), requires_grad=True)
            v.grad = None
            out = build(planes, v)
            backward_with(out, g)
            results.append((out.data, planes.grad, v.grad))
        for actual, expected in zip(*results):
            assert_bits(actual, expected)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    @pytest.mark.parametrize("masked", [False, True])
    def test_planes_against_softmax_oracle(self, rng, masked, magnitude, width):
        q, k = leaves(rng, [(67, width)] * 2, magnitude)
        g = rng.normal(size=(N_HEADS, 67, 67))
        mask = attention_mask(masked)
        planes = ad.attention_planes(q, k, N_HEADS, mask)
        backward_with(planes, g)
        q3, k3 = heads(q.data), heads(k.data)
        scale = 1.0 / np.sqrt(width // N_HEADS)
        value, g_scores = softmax_ref((q3 @ k3.swapaxes(1, 2)) * scale, mask, g)
        assert_bits(planes.data, value)
        g_scores = g_scores * scale
        assert_bits(q.grad, columns(g_scores @ k3))
        assert_bits(k.grad, columns((q3.swapaxes(1, 2) @ g_scores).swapaxes(1, 2)))

    def test_backward_vs_finite_differences(self, rng):
        q, k, v = leaves(rng, [(6, 8)] * 3, 1.0)
        mask = np.tril(np.ones((6, 6), dtype=bool))
        mask[:, :2] = True
        g_planes = ad.Tensor(rng.normal(size=(2, 6, 6)))

        def f():
            planes = ad.attention_planes(q, k, 2, mask)
            return ad.add(scalar_of(ad.attend(planes, v)),
                          sum_all(ad.mul(planes, g_planes)))

        assert finite_diff_check_params(f, [q, k, v], 1e-6) < 1e-6

    def test_shape_and_mask_errors(self):
        x = ad.Tensor(np.zeros((5, 8)))
        with pytest.raises(ShapeError, match="disagree"):
            ad.attention_planes(x, ad.Tensor(np.zeros((5, 6))), 2)
        with pytest.raises(ShapeError, match="not divisible into 3 heads"):
            ad.attention_planes(x, x, 3)
        with pytest.raises(ShapeError, match="does not cover"):
            ad.attention_planes(x, x, 2, np.ones((5, 4), dtype=bool))
        mask = np.ones((5, 5), dtype=bool)
        mask[3] = False
        with pytest.raises(DegenerateRowError, match="row 3"):
            ad.attention_planes(x, x, 2, mask)
        planes = ad.attention_planes(x, x, 2)
        for bad_planes, bad_v in [(planes, ad.Tensor(np.zeros((4, 8)))),
                                  (planes, ad.Tensor(np.zeros((5, 7)))),
                                  (ad.Tensor(np.zeros((5, 5))), x)]:
            with pytest.raises(ShapeError, match="attend"):
                ad.attend(bad_planes, bad_v)

    def test_kept_query_rows_shape_errors(self):
        q, kv = ad.Tensor(np.zeros((2, 8))), ad.Tensor(np.zeros((5, 8)))
        assert ad.attention_planes(q, kv, 2, np.ones((2, 5), dtype=bool)).shape \
            == (2, 2, 5)
        with pytest.raises(ShapeError, match=r"mask \(5, 5\) does not cover "
                                             r"planes \(2, 5\)"):
            ad.attention_planes(q, kv, 2, np.ones((5, 5), dtype=bool))
        with pytest.raises(ShapeError, match="disagree"):
            ad.attention_planes(q, ad.Tensor(np.zeros((5, 6))), 2)
        planes = ad.attention_planes(q, kv, 2)
        assert ad.attend(planes, kv).shape == (2, 8)
        with pytest.raises(ShapeError, match="attend"):
            ad.attend(planes, ad.Tensor(np.zeros((2, 8))))

    def test_two_nodes_with_parents_in_chain_order(self, rng):
        # the tape adds the contributions into q, k and v's common input in
        # an order that follows these parents; (q, k) and (planes, v) keep
        # the chain's order, so the layer-norm input gradient stays bit-exact
        q, k, v = leaves(rng, [(5, 8)] * 3, 1.0)
        planes, out = fused_attention(q, k, v, None)
        assert planes._parents == (q, k)
        assert out._parents == (planes, v)
        with ad.no_grad():
            assert not any(t.requires_grad for t in fused_attention(q, k, v, None))


class TestGroupAxis:
    """A leading group axis runs each sample through the very expressions it
    gets alone, bit for bit; shapes that do not fit are refused by name."""

    B, S, D = 3, 7, 8

    def each(self, op, *groups):
        with ad.no_grad():
            whole = op(*groups).data
            assert whole.shape[0] == self.B
            for i in range(self.B):
                assert_bits(whole[i], op(*(g[i] for g in groups)).data)

    def test_row_ops(self, rng):
        x, y = rng.normal(size=(2, self.B, self.S, self.D))
        gain, bias = rng.normal(size=(2, self.D))
        w, a, b = rng.normal(size=(5, self.D)), rng.normal(size=(2, self.D)), \
            rng.normal(size=(5, 2))
        self.each(lambda t: ad.layer_norm_rows(t, gain, bias), x)
        self.each(lambda t: ad.linear_with_lora(t, w, a, b), x)
        self.each(lambda t: ad.linear_with_lora(t, w), x[:, 6:])
        self.each(lambda t: ad.tail_rows(t, 2), x)
        self.each(ad.gelu, x)
        self.each(ad.add, x, y)

    @pytest.mark.parametrize("rows", [None, [6], [2, 6]], ids=["all", "last", "two"])
    def test_attention_ops(self, rng, rows):
        q, k, v = rng.normal(size=(3, self.B, self.S, self.D))
        mask = np.tril(np.ones((self.S, self.S), dtype=bool))
        if rows is not None:
            q, mask = q[:, rows], mask[rows]
        self.each(lambda a, b: ad.attention_planes(a, b, 2, mask), q, k)
        with ad.no_grad():
            planes = ad.attention_planes(q, k, 2, mask).data
        assert planes.shape == (self.B, 2, len(rows or range(self.S)), self.S)
        self.each(ad.attend, planes, v)

    def test_shapes_that_do_not_fit_named(self):
        def z(*shape):
            return ad.Tensor(np.zeros(shape))

        for call, shapes in [
                (lambda: ad.attention_planes(z(2, 5, 8), z(3, 5, 8), 2),
                 ["(2, 5, 8)", "(3, 5, 8)"]),
                (lambda: ad.attention_planes(z(2, 5, 8), z(5, 8), 2),
                 ["(2, 5, 8)", "(5, 8)"]),
                (lambda: ad.attend(z(2, 2, 5, 5), z(3, 5, 8)),
                 ["(2, 2, 5, 5)", "(3, 5, 8)"]),
                (lambda: ad.attend(z(2, 2, 5, 5), z(5, 8)), ["(2, 2, 5, 5)", "(5, 8)"]),
                (lambda: ad.linear_with_lora(z(2, 5, 7), np.zeros((4, 8))),
                 ["(2, 5, 7)", "(4, 8)"]),
                (lambda: ad.layer_norm_rows(z(2, 5, 7), np.ones(8), np.zeros(8)),
                 ["(2, 5, 7)", "(8,)"]),
                (lambda: ad.tail_rows(z(2, 5, 7), 6), ["6", "(2, 5, 7)"])]:
            with pytest.raises(ShapeError) as info:
                call()
            assert all(shape in str(info.value) for shape in shapes), info.value

