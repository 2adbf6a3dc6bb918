import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import attention as attn
from attnalign import autodiff as ad
from attnalign.autodiff import Tensor
from attnalign.errors import ParameterError, SelectionError

from oracles import mean_map_loop, refined_map_loop, topk_select_loop, \
    visual_ratio_loop
from references import refined_map_all_heads


def make_stack(rng, n_layers=2, n_heads=2, n_visual=4, n_prompt=2, n_answer=3,
               requires_grad=False):
    """Random row-stochastic stack respecting the sequence mask."""
    spans = attn.Spans(n_visual, n_prompt, n_answer)
    total = spans.total
    planes = []
    for _ in range(n_layers):
        plane = np.zeros((n_heads, total, total))
        for h in range(n_heads):
            for q in range(total):
                visible = np.zeros(total, dtype=bool)
                visible[:n_visual] = True
                if q >= n_visual:
                    visible[n_visual:q + 1] = True
                raw = rng.random(total) * visible
                plane[h, q] = raw / raw.sum()
        planes.append(Tensor(plane, requires_grad=requires_grad))
    return attn.AttentionStack(planes=planes, spans=spans)


def head_selection(n_layers, n_heads, heads):
    """A HeadSelection marking exactly the given (l, h) pairs."""
    selected = np.zeros((n_layers, n_heads), dtype=bool)
    for l, h in heads:
        selected[l, h] = True
    return attn.HeadSelection(ratios=np.zeros((n_layers, n_heads)),
                              selected=selected, top_r=len(heads))


def all_heads(stack):
    return attn.select_heads(np.ones((stack.n_layers, stack.n_heads)),
                             stack.n_layers * stack.n_heads)


def visual_views(stack, rows):
    """Per-head [|Q| x N] numpy submatrices, the oracles' input."""
    n = stack.spans.n_visual
    return [[stack.planes[l].data[h][list(rows), :n] for h in range(stack.n_heads)]
            for l in range(stack.n_layers)]


def submatrix_nodes(out):
    """Every plane_submatrix node in the graph behind ``out``."""
    found, seen, todo = [], set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None \
                and node._backward.__qualname__.startswith("plane_submatrix."):
            found.append(node)
        todo.extend(node._parents)
    return found


class TestExtractVisualView:
    def test_single_query_row_identity_slice(self, rng):
        stack = make_stack(rng)
        row = stack.spans.total - 1
        for l in range(2):
            for h in range(2):
                out = attn.refined_map(stack, [row], head_selection(2, 2, [(l, h)]))
                expected = stack.planes[l].data[h][row, :4]
                assert np.array_equal(out.data, expected)

    def test_answer_rows_count(self, rng):
        stack = make_stack(rng, n_answer=3, requires_grad=True)
        rows = attn.answer_query_rows(stack.spans)
        out = attn.refined_map(stack, rows, head_selection(2, 2, [(0, 0)]))
        assert submatrix_nodes(out)[0].shape == (3, 4)

    def test_matches_index_lookup_oracle(self, rng):
        stack = make_stack(rng, requires_grad=True)
        rows = [4, 6, 7]
        for l in range(2):
            for h in range(2):
                out = attn.refined_map(stack, rows, head_selection(2, 2, [(l, h)]))
                sub = submatrix_nodes(out)[0]
                m = stack.planes[l].data[h]
                for i, q in enumerate(rows):
                    for c in range(4):
                        assert sub.data[i, c] == m[q, c]

    def test_empty_query_set(self, rng):
        stack = make_stack(rng)
        with pytest.raises(SelectionError):
            attn.refined_map(stack, [], all_heads(stack))

    def test_visual_row_rejected(self, rng):
        stack = make_stack(rng)
        with pytest.raises(SelectionError):
            attn.refined_map(stack, [0], all_heads(stack))


class TestMeanMap:
    def test_single_head_single_query_identity(self, rng):
        stack = make_stack(rng, n_layers=1, n_heads=1)
        row = stack.spans.total - 1
        out = attn.refined_map(stack, [row], all_heads(stack))
        assert np.max(np.abs(out.data - stack.planes[0].data[0][row, :4])) < 1e-15

    def test_two_heads_average(self, rng):
        stack = make_stack(rng, n_layers=1, n_heads=2)
        row = stack.spans.total - 1
        out = attn.refined_map(stack, [row], all_heads(stack))
        a = stack.planes[0].data[0][row, :4]
        b = stack.planes[0].data[1][row, :4]
        assert np.max(np.abs(out.data - (a + b) / 2)) < 1e-15

    def test_matches_triple_loop_oracle(self, rng):
        stack = make_stack(rng, n_layers=2, n_heads=2, n_answer=3)
        rows = attn.answer_query_rows(stack.spans)
        out = attn.refined_map(stack, rows, all_heads(stack))
        oracle = mean_map_loop(visual_views(stack, rows))
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_mass_bounded(self, seed):
        r = np.random.default_rng(seed)
        stack = make_stack(r)
        out = attn.refined_map(stack, attn.answer_query_rows(stack.spans),
                               all_heads(stack)).data
        assert np.all(out >= 0.0)
        assert out.sum() <= 1.0 + 1e-12


class TestVisualRatio:
    def test_hand_arithmetic(self):
        spans = attn.Spans(2, 2, 1)
        plane = np.zeros((1, 5, 5))
        plane[0, 4] = [0.3, 0.3, 0.2, 0.2, 0.0]
        stack = attn.AttentionStack(planes=[Tensor(plane)], spans=spans)
        assert abs(attn.all_visual_ratios(stack, [4])[0, 0] - 0.6) < 1e-15

    def test_all_visual_boundary(self):
        spans = attn.Spans(2, 1, 1)
        plane = np.zeros((1, 4, 4))
        plane[0, 3] = [0.5, 0.5, 0.0, 0.0]
        stack = attn.AttentionStack(planes=[Tensor(plane)], spans=spans)
        assert attn.all_visual_ratios(stack, [3])[0, 0] == 1.0

    def test_matches_double_sum_oracle(self, rng):
        stack = make_stack(rng)
        rows = list(attn.answer_query_rows(stack.spans))
        grid = attn.all_visual_ratios(stack, rows)
        for l in range(2):
            for h in range(2):
                want = visual_ratio_loop(stack.planes[l].data[h], rows, 4, 2)
                assert abs(grid[l, h] - want) < 1e-12
                m = stack.planes[l].data[h][rows]
                vis, prm = m[:, :4].sum(), m[:, 4:6].sum()
                assert abs(grid[l, h] - vis / (vis + prm)) < 1e-15

    def test_ratio_in_unit_interval(self, rng):
        stack = make_stack(rng)
        grid = attn.all_visual_ratios(stack,
                                      attn.answer_query_rows(stack.spans))
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0)


class TestSelectHeads:
    def test_all_selected_boundary(self):
        sel = attn.select_heads(np.array([[0.1, 0.2], [0.3, 0.4]]), 4)
        assert sel.selected.all() and sel.top_r == 4

    def test_none_selected_alignment_disabled(self):
        sel = attn.select_heads(np.array([[0.1, 0.2], [0.3, 0.4]]), 0)
        assert not sel.selected.any()

    def test_tie_break_row_major(self):
        sel = attn.select_heads(np.full((2, 4), 0.5), 3)
        assert sel.pairs() == [(0, 0), (0, 1), (0, 2)]

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            attn.select_heads(np.zeros((2, 2)), 5)
        with pytest.raises(ParameterError):
            attn.select_heads(np.zeros((2, 2)), -1)

    def test_matches_sort_oracle(self, rng):
        for _ in range(200):
            ratios = rng.integers(0, 5, size=(3, 4)) / 5.0
            r = int(rng.integers(0, 13))
            sel = attn.select_heads(ratios, r)
            flat_selected = sorted(np.flatnonzero(sel.selected.reshape(-1)))
            assert flat_selected == topk_select_loop(ratios.reshape(-1), r)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_scaling_invariance(self, seed, scale):
        r = np.random.default_rng(seed)
        ratios = r.random((2, 3))
        a = attn.select_heads(ratios, 3)
        b = attn.select_heads(ratios * scale, 3)
        assert np.array_equal(a.selected, b.selected)


class TestRefinedMap:
    def test_single_head_identity(self, rng):
        stack = make_stack(rng)
        rows = attn.answer_query_rows(stack.spans)
        selected = np.zeros((2, 2), dtype=bool)
        selected[1, 0] = True
        sel = attn.HeadSelection(ratios=np.zeros((2, 2)), selected=selected,
                                 top_r=1)
        out = attn.refined_map(stack, rows, sel)
        expected = stack.planes[1].data[0][list(rows), :4].mean(axis=0)
        assert np.max(np.abs(out.data - expected)) < 1e-15

    def test_all_heads_equals_mean_map(self, rng):
        stack = make_stack(rng)
        rows = attn.answer_query_rows(stack.spans)
        sel = attn.select_heads(np.ones((2, 2)), 4)
        assert np.max(np.abs(attn.refined_map(stack, rows, sel).data
                             - mean_map_loop(visual_views(stack, rows)))) < 1e-12

    def test_matches_masked_loop_oracle(self, rng):
        stack = make_stack(rng)
        rows = attn.answer_query_rows(stack.spans)
        ratios = attn.all_visual_ratios(stack, rows)
        sel = attn.select_heads(ratios, 2)
        out = attn.refined_map(stack, rows, sel)
        oracle = refined_map_loop(visual_views(stack, rows), sel.selected)
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_zero_heads_rejected(self, rng):
        stack = make_stack(rng)
        sel = attn.select_heads(np.ones((2, 2)), 0)
        with pytest.raises(ParameterError):
            attn.refined_map(stack, attn.answer_query_rows(stack.spans), sel)

    @pytest.mark.parametrize("heads", [
        [(1, 2)],                                            # R = 1
        [(1, 0), (1, 2)],                                    # R = 2, one layer
        [(l, h) for l in range(2) for h in range(3)],        # R = L H
    ])
    def test_bit_identical_to_all_head_view(self, rng, heads):
        stack = make_stack(rng, n_heads=3, requires_grad=True)
        rows = attn.answer_query_rows(stack.spans)
        sel = head_selection(2, 3, heads)
        weights = Tensor(rng.normal(size=4))
        results = []
        for build in (attn.refined_map, refined_map_all_heads):
            for plane in stack.planes:
                plane.zero_grad()
            out = build(stack, rows, sel)
            ad.sum_all(ad.mul(out, weights)).backward()
            results.append((out.data, [None if p.grad is None else p.grad.copy()
                                       for p in stack.planes]))
        (new, new_grads), (ref, ref_grads) = results
        assert np.array_equal(new, ref)
        for g_new, g_ref in zip(new_grads, ref_grads):
            assert (g_new is None and g_ref is None) or np.array_equal(g_new, g_ref)

    @pytest.mark.parametrize("r", [1, 2, 6])
    def test_graph_holds_only_selected_submatrices(self, rng, monkeypatch, r):
        stack = make_stack(rng, n_heads=3, requires_grad=True)
        rows = attn.answer_query_rows(stack.spans)
        sel = attn.select_heads(attn.all_visual_ratios(stack, rows), r)
        calls = []
        slice_op = ad.plane_submatrix
        monkeypatch.setattr(ad, "plane_submatrix",
                            lambda *a: calls.append(a) or slice_op(*a))
        assert len(submatrix_nodes(attn.refined_map(stack, rows, sel))) == r
        assert len(calls) == r  # no unread slice is built either


class TestHeatmaps:
    def test_export_files_and_naming(self, tmp_path, rng):
        values = rng.random(16)
        paths = attn.export_heatmaps(tmp_path, "sample7", "mean", values, 4)
        assert [p.name for p in paths] == ["sample7.mean.csv", "sample7.mean.pgm"]
        rows = [line.split(",") for line in
                paths[0].read_text().strip().splitlines()]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(parsed, values.reshape(4, 4))
        pgm = paths[1].read_text().splitlines()
        assert pgm[0] == "P2" and pgm[1] == "4 4" and pgm[2] == "255"
        pixels = np.array([int(v) for line in pgm[3:] for v in line.split()])
        assert pixels.max() == 255 and pixels.min() >= 0

    def test_zero_map_pgm(self, tmp_path):
        paths = attn.export_heatmaps(tmp_path, "z", "mean", np.zeros(4), 2)
        pgm = paths[1].read_text().splitlines()
        assert all(v == "0" for line in pgm[3:] for v in line.split())

    def test_grid_mismatch(self):
        with pytest.raises(ParameterError):
            attn.map_to_grid(np.zeros(5), 2)
