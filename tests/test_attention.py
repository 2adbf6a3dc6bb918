import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnalign import attention as attn
from attnalign import autodiff as ad
from attnalign.autodiff import Tensor
from attnalign.errors import DegenerateRatioError, ParameterError, SelectionError

from oracles import generated_ratio_loop, mean_map_loop, refined_map_loop, \
    topk_select_loop, visual_ratio_loop
from references import all_visual_ratios_rows, refined_map_all_heads, \
    refined_map_rows, sum_all


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
    """The [L x H] bool grid marking exactly the given (l, h) pairs."""
    selected = np.zeros((n_layers, n_heads), dtype=bool)
    for l, h in heads:
        selected[l, h] = True
    return selected


def all_heads(stack):
    return attn.select_heads(np.ones((stack.n_layers, stack.n_heads)),
                             stack.n_layers * stack.n_heads)


def last_rows(stack, q):
    """The sequence rows of the last q query rows."""
    return list(range(stack.spans.total - q, stack.spans.total))


def visual_views(stack, q):
    """Per-head [q x N] numpy submatrices, the oracles' input."""
    n = stack.spans.n_visual
    return [[stack.planes[l].data[h][last_rows(stack, q), :n]
             for h in range(stack.n_heads)]
            for l in range(stack.n_layers)]


def gradient_support(out, stack):
    """The (l, h, q, c) plane entries that get gradient from ``out`` when
    every map entry has a positive upstream gradient."""
    for plane in stack.planes:
        plane.grad = None
    weights = Tensor(np.linspace(1.0, 2.0, out.shape[0]))
    sum_all(ad.mul(out, weights)).backward()
    return {(l, *map(int, e)) for l, plane in enumerate(stack.planes)
            if plane.grad is not None for e in np.argwhere(plane.grad != 0)}


def block(l, h, rows, n):
    """The (l, h, q, c) entries of head (l, h)'s [q x N] visual block."""
    return {(l, h, q, c) for q in rows for c in range(n)}


class TestExtractVisualView:
    def test_single_query_row_identity_slice(self, rng):
        stack = make_stack(rng)
        row = stack.spans.total - 1
        for l in range(2):
            for h in range(2):
                out = attn.refined_map(stack, 1, head_selection(2, 2, [(l, h)]))
                expected = stack.planes[l].data[h][row, :4]
                assert np.array_equal(out.data, expected)

    def test_answer_rows_count(self, rng):
        stack = make_stack(rng, n_answer=3, requires_grad=True)
        out = attn.refined_map(stack, 3, head_selection(2, 2, [(0, 0)]))
        assert out._parents == (stack.planes[0],)
        # the gradient reaches exactly one [3 x 4] block: 3 query rows, 4 keys
        assert gradient_support(out, stack) == block(0, 0, last_rows(stack, 3), 4)

    def test_matches_index_lookup_oracle(self, rng):
        # rows 4..8: two prompt rows, then three answer rows
        stack = make_stack(rng, requires_grad=True)
        for l in range(2):
            for h in range(2):
                out = attn.refined_map(stack, 5, head_selection(2, 2, [(l, h)]))
                assert out._parents == (stack.planes[l],)
                assert gradient_support(out, stack) == block(l, h, range(4, 9), 4)
                m = stack.planes[l].data[h]
                for c in range(4):
                    assert out.data[c] == \
                        (m[4, c] + m[5, c] + m[6, c] + m[7, c] + m[8, c]) / 5


class TestQueryRowCount:
    """Every reader takes the last q query rows, 1 <= q <= the text rows the
    last plane kept."""

    @staticmethod
    def kept(stack, m):
        """The stack as a pass keeping the last m rows leaves it."""
        *early, last = stack.planes
        return attn.AttentionStack(early + [Tensor(last.data[:, -m:])], stack.spans)

    @pytest.mark.parametrize("m,q,top", [(9, 0, 5), (9, 6, 5), (9, -1, 5),
                                         (4, 5, 4), (1, 2, 1)])
    def test_outside_the_kept_text_rows_rejected(self, rng, m, q, top):
        # nine rows: four visual, two prompt, three answer
        stack = self.kept(make_stack(rng), m)
        message = (f"^{q} query rows outside 1..{top}, the text rows every "
                   "layer kept$")
        with pytest.raises(SelectionError, match=message):
            attn.all_visual_ratios(stack, q)
        with pytest.raises(SelectionError, match=message):
            attn.refined_map(stack, q, all_heads(stack))

    @pytest.mark.parametrize("m", [9, 4, 2])
    def test_a_kept_suffix_reads_as_the_full_stack(self, rng, m):
        full = make_stack(rng)
        stack = self.kept(full, m)
        for q in range(1, min(m, 5) + 1):
            assert np.array_equal(attn.all_visual_ratios(stack, q),
                                  attn.all_visual_ratios(full, q))
            assert np.array_equal(attn.refined_map(stack, q, all_heads(stack)).data,
                                  attn.refined_map(full, q, all_heads(full)).data)

    @pytest.mark.parametrize("n_answer", [1, 2, 3])
    @pytest.mark.parametrize("heads", [[(1, 1)], [(0, 1), (1, 0)], "all"])
    def test_bit_identical_to_the_row_set_readers(self, rng, n_answer, heads):
        # the last q rows named as sequence rows, over the answer rows and
        # over the answer rows with the last prompt row
        stack = make_stack(rng, n_heads=2, n_answer=n_answer, requires_grad=True)
        sel = all_heads(stack) if heads == "all" else head_selection(2, 2, heads)
        weights = Tensor(rng.normal(size=4))
        for q in (n_answer, n_answer + 1):
            rows = last_rows(stack, q)
            assert np.array_equal(attn.all_visual_ratios(stack, q),
                                  all_visual_ratios_rows(stack, rows))
            results = []
            for build, arg in ((attn.refined_map, q), (refined_map_rows, rows)):
                for plane in stack.planes:
                    plane.grad = None
                out = build(stack, arg, sel)
                sum_all(ad.mul(out, weights)).backward()
                results.append((out.data.tobytes(),
                                [None if p.grad is None else p.grad.tobytes()
                                 for p in stack.planes]))
            assert results[0] == results[1]


class TestMeanMap:
    def test_single_head_single_query_identity(self, rng):
        stack = make_stack(rng, n_layers=1, n_heads=1)
        row = stack.spans.total - 1
        out = attn.refined_map(stack, 1, all_heads(stack))
        assert np.max(np.abs(out.data - stack.planes[0].data[0][row, :4])) < 1e-15

    def test_two_heads_average(self, rng):
        stack = make_stack(rng, n_layers=1, n_heads=2)
        row = stack.spans.total - 1
        out = attn.refined_map(stack, 1, all_heads(stack))
        a = stack.planes[0].data[0][row, :4]
        b = stack.planes[0].data[1][row, :4]
        assert np.max(np.abs(out.data - (a + b) / 2)) < 1e-15

    def test_matches_triple_loop_oracle(self, rng):
        stack = make_stack(rng, n_layers=2, n_heads=2, n_answer=3)
        out = attn.refined_map(stack, 3, all_heads(stack))
        oracle = mean_map_loop(visual_views(stack, 3))
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_mass_bounded(self, seed):
        r = np.random.default_rng(seed)
        stack = make_stack(r)
        out = attn.refined_map(stack, 3, all_heads(stack)).data
        assert np.all(out >= 0.0)
        assert out.sum() <= 1.0 + 1e-12


class TestVisualRatio:
    def test_hand_arithmetic(self):
        spans = attn.Spans(2, 2, 1)
        plane = np.zeros((1, 5, 5))
        plane[0, 4] = [0.3, 0.3, 0.2, 0.2, 0.0]
        stack = attn.AttentionStack(planes=[Tensor(plane)], spans=spans)
        assert abs(attn.all_visual_ratios(stack, 1)[0, 0] - 0.6) < 1e-15

    def test_all_visual_boundary(self):
        spans = attn.Spans(2, 1, 1)
        plane = np.zeros((1, 4, 4))
        plane[0, 3] = [0.5, 0.5, 0.0, 0.0]
        stack = attn.AttentionStack(planes=[Tensor(plane)], spans=spans)
        assert attn.all_visual_ratios(stack, 1)[0, 0] == 1.0

    def test_matches_double_sum_oracle(self, rng):
        stack = make_stack(rng)
        rows = last_rows(stack, 3)
        grid = attn.all_visual_ratios(stack, 3)
        for l in range(2):
            for h in range(2):
                want = visual_ratio_loop(stack.planes[l].data[h], rows, 4, 2)
                assert abs(grid[l, h] - want) < 1e-12
                m = stack.planes[l].data[h][rows]
                vis, prm = m[:, :4].sum(), m[:, 4:6].sum()
                assert abs(grid[l, h] - vis / (vis + prm)) < 1e-15

    def test_ratio_in_unit_interval(self, rng):
        stack = make_stack(rng)
        grid = attn.all_visual_ratios(stack, 3)
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0)


class TestSelectHeads:
    def test_all_selected_boundary(self):
        sel = attn.select_heads(np.array([[0.1, 0.2], [0.3, 0.4]]), 4)
        assert sel.dtype == bool and sel.all()

    def test_none_selected_alignment_disabled(self):
        sel = attn.select_heads(np.array([[0.1, 0.2], [0.3, 0.4]]), 0)
        assert not sel.any()

    def test_tie_break_row_major(self):
        sel = attn.select_heads(np.full((2, 4), 0.5), 3)
        assert np.argwhere(sel).tolist() == [[0, 0], [0, 1], [0, 2]]

    def test_grid_holds_exactly_r_heads(self, rng):
        # the refined map takes R from the grid, so the grid must hold R
        for ratios in (rng.random((3, 4)), np.full((3, 4), 0.5),
                       rng.integers(0, 3, size=(3, 4)) / 3.0):
            for r in range(13):
                sel = attn.select_heads(ratios, r)
                assert sel.shape == (3, 4) and sel.dtype == bool
                assert int(sel.sum()) == r

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
            flat_selected = sorted(np.flatnonzero(sel.reshape(-1)))
            assert flat_selected == topk_select_loop(ratios.reshape(-1), r)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_scaling_invariance(self, seed, scale):
        r = np.random.default_rng(seed)
        ratios = r.random((2, 3))
        a = attn.select_heads(ratios, 3)
        b = attn.select_heads(ratios * scale, 3)
        assert np.array_equal(a, b)


class TestRefinedMap:
    def test_single_head_identity(self, rng):
        stack = make_stack(rng)
        out = attn.refined_map(stack, 3, head_selection(2, 2, [(1, 0)]))
        expected = stack.planes[1].data[0][last_rows(stack, 3), :4].mean(axis=0)
        assert np.max(np.abs(out.data - expected)) < 1e-15

    def test_all_heads_equals_mean_map(self, rng):
        stack = make_stack(rng)
        sel = attn.select_heads(np.ones((2, 2)), 4)
        assert np.max(np.abs(attn.refined_map(stack, 3, sel).data
                             - mean_map_loop(visual_views(stack, 3)))) < 1e-12

    def test_matches_masked_loop_oracle(self, rng):
        stack = make_stack(rng)
        ratios = attn.all_visual_ratios(stack, 3)
        sel = attn.select_heads(ratios, 2)
        out = attn.refined_map(stack, 3, sel)
        oracle = refined_map_loop(visual_views(stack, 3), sel)
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_zero_heads_rejected(self, rng):
        stack = make_stack(rng)
        sel = attn.select_heads(np.ones((2, 2)), 0)
        with pytest.raises(ParameterError):
            attn.refined_map(stack, 3, sel)

    def test_all_false_grid_rejected(self, rng):
        stack = make_stack(rng)
        with pytest.raises(ParameterError,
                           match="refined_map needs at least one selected head"):
            attn.refined_map(stack, 3, np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("heads", [
        [(1, 2)],                                            # R = 1
        [(1, 0), (1, 2)],                                    # R = 2, one layer
        [(l, h) for l in range(2) for h in range(3)],        # R = L H
    ])
    def test_bit_identical_to_all_head_view(self, rng, heads):
        stack = make_stack(rng, n_heads=3, requires_grad=True)
        sel = head_selection(2, 3, heads)
        weights = Tensor(rng.normal(size=4))
        results = []
        for build in (attn.refined_map, refined_map_all_heads):
            for plane in stack.planes:
                plane.grad = None
            out = build(stack, 3, sel)
            sum_all(ad.mul(out, weights)).backward()
            results.append((out.data, [None if p.grad is None else p.grad.copy()
                                       for p in stack.planes]))
        (new, new_grads), (ref, ref_grads) = results
        assert np.array_equal(new, ref)
        for g_new, g_ref in zip(new_grads, ref_grads):
            assert (g_new is None and g_ref is None) or np.array_equal(g_new, g_ref)

    @pytest.mark.parametrize("r", [1, 2, 6])
    def test_graph_holds_only_selected_submatrices(self, rng, r):
        stack = make_stack(rng, n_heads=3, requires_grad=True)
        rows = last_rows(stack, 3)
        sel = attn.select_heads(attn.all_visual_ratios(stack, 3), r)
        out = attn.refined_map(stack, 3, sel)
        pairs = np.argwhere(sel).tolist()
        layers = sorted({l for l, _ in pairs})
        assert out._parents == tuple(stack.planes[l] for l in layers)
        support = gradient_support(out, stack)
        assert support == set().union(*(block(l, h, rows, 4) for l, h in pairs))
        assert len({(l, h) for l, h, _, _ in support}) == r
        # no unread entry is read either: NaN outside the R blocks changes nothing
        poisoned = [np.full_like(p.data, np.nan) for p in stack.planes]
        for l, h in pairs:
            poisoned[l][h][rows, :4] = stack.planes[l].data[h][rows, :4]
        again = attn.refined_map(attn.AttentionStack(
            [Tensor(p) for p in poisoned], stack.spans), 3, sel)
        assert np.array_equal(again.data, out.data)


def greedy_steps(rng, answers=(0, 1)):
    """Stacks of greedy steps that have generated ``answers`` tokens so far,
    so each is one row longer than the last, and each step's emitting row."""
    stacks = [make_stack(rng, n_answer=a) for a in answers]
    return stacks, [s.spans.total - 1 for s in stacks]


def step_views(stacks, rows):
    """Per head, the emitting rows' visual vectors stacked over the steps."""
    n = stacks[0].spans.n_visual
    return [[np.array([s.planes[l].data[h][r, :n] for s, r in zip(stacks, rows)])
             for h in range(stacks[0].n_heads)]
            for l in range(stacks[0].n_layers)]


def step_ratios(stacks, rows):
    """Row-major [L*H] visual ratios from the loop oracle."""
    spans = stacks[0].spans
    return [generated_ratio_loop([s.planes[l].data[h] for s in stacks], rows,
                                 spans.n_visual, spans.n_prompt)
            for l in range(stacks[0].n_layers) for h in range(stacks[0].n_heads)]


def refined_per_step_loop(stacks, rows, top_r):
    """Mean over the steps of the loop oracles' refined map of each step: the
    top_r heads ranked at that step's emitting row, their rows averaged."""
    maps = []
    for stack, row in zip(stacks, rows):
        picked = topk_select_loop(step_ratios([stack], [row]), top_r)
        selected = [[stack.n_heads * l + h in picked for h in range(stack.n_heads)]
                    for l in range(stack.n_layers)]
        maps.append(refined_map_loop(step_views([stack], [row]), selected))
    return np.mean(maps, axis=0)


def favour_head(rng, stack, row, l, h):
    """Give head (l, h) a visual ratio of 0.99 at ``row``: random visual
    weights summing to 0.99, and 0.01 on the first prompt key."""
    n = stack.spans.n_visual
    w = rng.random(n)
    plane = stack.planes[l].data[h]
    plane[row] = 0.0
    plane[row, :n] = 0.99 * w / w.sum()
    plane[row, n] = 0.01


class TestGeneratedMaps:
    def test_mean_map_matches_loop(self, rng):
        stacks, rows = greedy_steps(rng)
        out = attn.generated_query_mean_map(stacks)
        assert np.max(np.abs(out - mean_map_loop(step_views(stacks, rows)))) < 1e-12

    def test_heads_ranked_per_step(self, rng):
        # the top-1 head is (0, 0) at the first step and (1, 1) at the
        # second; ranking the heads once over the pooled steps picks one
        # head for both steps and fails this
        stacks, rows = greedy_steps(rng)
        for stack, row, (l, h) in zip(stacks, rows, [(0, 0), (1, 1)]):
            favour_head(rng, stack, row, l, h)
        assert [topk_select_loop(step_ratios([s], [r]), 1)
                for s, r in zip(stacks, rows)] == [[0], [3]]
        out = attn.generated_query_refined_map(stacks, 1)
        assert np.max(np.abs(out - refined_per_step_loop(stacks, rows, 1))) < 1e-12

    @pytest.mark.parametrize("top_r", [1, 2, 4])
    def test_refined_map_matches_loop(self, rng, top_r):
        stacks, rows = greedy_steps(rng)
        out = attn.generated_query_refined_map(stacks, top_r)
        assert np.max(np.abs(out - refined_per_step_loop(stacks, rows, top_r))) \
            < 1e-12

    @pytest.mark.parametrize("maps", [
        attn.generated_query_mean_map,
        lambda stacks: attn.generated_query_refined_map(stacks, 1),
    ], ids=["mean", "refined"])
    def test_no_steps(self, maps):
        with pytest.raises(SelectionError, match="no generation steps"):
            maps([])

    def test_head_without_visual_or_prompt_mass(self, rng):
        stacks, rows = greedy_steps(rng, answers=(1, 2))
        for stack, row in zip(stacks, rows):
            plane = stack.planes[1].data[0]
            plane[row] = 0.0
            plane[row, row] = 1.0   # every step's emitting row reads only itself
        with pytest.raises(DegenerateRatioError):
            attn.generated_query_refined_map(stacks, 1)

    def test_refined_map_needs_a_head(self, rng):
        stacks, _ = greedy_steps(rng)
        with pytest.raises(ParameterError,
                           match="refined_map needs at least one selected head"):
            attn.generated_query_refined_map(stacks, 0)


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
