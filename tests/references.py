"""Reference paths built from the package's own autodiff ops.

Unlike ``oracles.py``, these share ops with the package: they are the
materialized or unfused forms of what the hot path computes in factored
or pruned form, kept so tests can compare the two. The generic ops that
left the package (the broadcasting ``add`` and ``mul``, ``matmul``,
``concat_rows``, ``take`` and the ``cross_entropy`` over every row, among
others) live here too, because these compositions are their only callers,
and so do the readers that named sequence rows before the package's took
a count of trailing rows.
"""

import math
from typing import Sequence

import numpy as np

from attnalign import autodiff as ad
from attnalign.adapters import ExpertBank, GatingNetwork, kmoe_gate_weights, \
    qmoe_weights, topb_mask_rows
from attnalign.attention import AttentionStack, Spans, select_heads
from attnalign.autodiff import Tensor
from attnalign.errors import ConfigurationError, DegenerateAttentionError, \
    ParameterError, SelectionError, ShapeError
from attnalign.training import alignment_loss


# the package's ops before its frozen base became plain arrays: add and mul
# with their broadcasting forms, matmul, concat_rows and take, which built
# the embedding front and the gather in front of the cross entropy


def add(a, b) -> Tensor:
    """Elementwise sum; also matrix + row-vector and anything + scalar."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.shape == b.shape:
        def back(g, sink):
            if a.requires_grad and b.requires_grad:
                sink(a, g)
                sink(b, g.copy())
            elif a.requires_grad:
                sink(a, g)
            elif b.requires_grad:
                sink(b, g)
    elif b.shape == () or a.shape == ():
        if a.shape == ():  # keep the array operand first
            a, b = b, a
        def back(g, sink):
            if b.requires_grad:
                sink(b, np.asarray(np.sum(g)))
            if a.requires_grad:
                sink(a, g)
    elif len(a.shape) == 2 and b.shape == (a.shape[1],):
        def back(g, sink):
            if b.requires_grad:
                sink(b, g.sum(axis=0))
            if a.requires_grad:
                sink(a, g)
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return ad._wrap(a.data + b.data, (a, b), back)


def mul(a, b) -> Tensor:
    """Elementwise product; either operand may be a scalar."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.shape == b.shape:
        def back(g, sink):
            if a.requires_grad:
                sink(a, g * b.data)
            if b.requires_grad:
                sink(b, g * a.data)
    elif b.shape == () or a.shape == ():
        if a.shape == ():
            a, b = b, a
        def back(g, sink):
            if a.requires_grad:
                sink(a, g * b.data)
            if b.requires_grad:
                sink(b, np.asarray(np.sum(g * a.data)))
    else:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return ad._wrap(a.data * b.data, (a, b), back)


def matmul(a, b) -> Tensor:
    """Matrix product of 2-d tensors; grad_a = g b^T, grad_b = a^T g."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g @ b.data.T)
        if b.requires_grad:
            sink(b, a.data.T @ g)

    return ad._wrap(a.data @ b.data, (a, b), back)


def concat_rows(parts: Sequence) -> Tensor:
    """Stack 2-d tensors with equal column counts along axis 0."""
    parts = [ad._as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows of an empty sequence")
    cols = parts[0].shape[1]
    offsets = [0]
    for p in parts:
        if len(p.shape) != 2 or p.shape[1] != cols:
            raise ShapeError(
                f"concat_rows: column mismatch {p.shape} vs ({parts[0].shape})"
            )
        offsets.append(offsets[-1] + p.shape[0])

    def back(g, sink):
        # disjoint row views of g, safe to hand to distinct parents
        for p, s, e in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sink(p, g[s:e])

    return ad._wrap(np.concatenate([p.data for p in parts], axis=0), parts, back)


def take(a, indices) -> Tensor:
    """Gather rows of a matrix or elements of a vector by index."""
    a = ad._as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take expects a 1-d index list, got shape {idx.shape}")
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"take expects a 1-d or 2-d tensor, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"take: index out of range for first axis of {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        sink(a, z)

    return ad._wrap(a.data[idx], (a,), back)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = ad._as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.intp)
    if len(logits.shape) != 2 or tgt.ndim != 1 or tgt.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs targets {tgt.shape}"
        )
    t, v = logits.shape
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise IndexError(f"cross_entropy: target outside [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(t), tgt].mean()

    def back(g, sink):
        p = np.exp(logp)
        p[np.arange(t), tgt] -= 1.0
        sink(logits, g * p / t)

    return ad._wrap(np.asarray(loss), (logits,), back)


def lm_loss_chain(logits, rows, targets) -> Tensor:
    """``cross_entropy_rows(logits, rows, targets)`` as the two nodes that
    ``lm_loss`` built before it: the row gather, then the cross entropy."""
    return cross_entropy(take(logits, list(rows)), list(targets))


def embedding_front_chain(model, visual, token_ids) -> Tensor:
    """The decoder's input rows as the generic ops built them while the base
    weights were tensors: X w_align + b_align over the patches, then the
    gathered token and position embeddings, stacked."""
    p = {name: Tensor(a) for name, a in model.params.items()}
    ids = np.asarray(token_ids, dtype=np.intp)
    x_visual = add(matmul(Tensor(visual), p["w_align"]), p["b_align"])
    x_text = add(take(p["tok_emb"], ids), take(p["pos_emb"], np.arange(ids.size)))
    return concat_rows([x_visual, x_text])


def sum_all(a) -> Tensor:
    a = ad._as_tensor(a)

    def back(g, sink):
        sink(a, np.full(a.shape, g, dtype=np.float64))

    return ad._wrap(np.asarray(a.data.sum()), (a,), back)


def plane_submatrix(a, index: int, rows, col_start: int, col_stop: int) -> Tensor:
    """Rows x column-range of one plane, in a single op."""
    a = ad._as_tensor(a)
    idx = np.asarray(rows, dtype=np.intp)
    if len(a.shape) != 3 or not (0 <= index < a.shape[0]) \
            or not (0 <= col_start <= col_stop <= a.shape[2]):
        raise ShapeError(f"plane_submatrix invalid for shape {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"plane_submatrix: row index out of range for {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        np.add.at(z[index, :, col_start:col_stop], idx, g)
        sink(a, z)

    return ad._wrap(a.data[index][idx, col_start:col_stop], (a,), back)


def quotient(a: Tensor, b: Tensor) -> Tensor:
    """a / b of two 0-d tensors."""
    def back(g, sink):
        if a.requires_grad:
            sink(a, g / b.data)
        if b.requires_grad:
            sink(b, -g * a.data / (b.data * b.data))

    return ad._wrap(a.data / b.data, (a, b), back)


def one_minus(a: Tensor) -> Tensor:
    """1 - a as two nodes: a negation, then ``add(1.0, .)``."""
    def back(g, sink):
        sink(a, -g)

    return add(1.0, ad._wrap(-a.data, (a,), back))


def transpose(a) -> Tensor:
    a = ad._as_tensor(a)
    if len(a.shape) != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {a.shape}")

    def back(g, sink):
        sink(a, g.T)

    return ad._wrap(a.data.T, (a,), back)


def scale_rows(a, s) -> Tensor:
    """Scale row i of a matrix by s[i]."""
    a, s = ad._as_tensor(a), ad._as_tensor(s)
    if len(a.shape) != 2 or s.shape != (a.shape[0],):
        raise ShapeError(f"scale_rows: shapes {a.shape} and {s.shape} do not align")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g * s.data[:, None])
        if s.requires_grad:
            sink(s, (g * a.data).sum(axis=1))

    return ad._wrap(a.data * s.data[:, None], (a, s), back)


# the nine-node attention chain that ``attention_planes`` and ``attend`` fuse


def split_heads(x, n_heads: int) -> Tensor:
    """[S x H*dh] columns, head-major, into [H x S x dh] planes."""
    x = ad._as_tensor(x)
    s, d = x.shape
    if d % n_heads:
        raise ShapeError(f"width {d} not divisible into {n_heads} heads")
    dh = d // n_heads

    def back(g, sink):
        sink(x, g.transpose(1, 0, 2).reshape(s, d))

    return ad._wrap(x.data.reshape(s, n_heads, dh).transpose(1, 0, 2), (x,), back)


def merge_heads(x) -> Tensor:
    """[H x S x dh] planes back into [S x H*dh] columns."""
    x = ad._as_tensor(x)
    h, s, dh = x.shape

    def back(g, sink):
        sink(x, g.reshape(s, h, dh).transpose(1, 0, 2))

    return ad._wrap(x.data.transpose(1, 0, 2).reshape(s, h * dh), (x,), back)


def transpose_last2(a) -> Tensor:
    a = ad._as_tensor(a)
    if len(a.shape) != 3:
        raise ShapeError(f"transpose_last2 needs a 3-d tensor, got {a.shape}")

    def back(g, sink):
        sink(a, g.swapaxes(1, 2))

    return ad._wrap(a.data.swapaxes(1, 2), (a,), back)


def bmm(a, b) -> Tensor:
    """Plane-wise matrix product of [B x m x k] and [B x k x n]."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if len(a.shape) != 3 or len(b.shape) != 3 or a.shape[0] != b.shape[0] \
            or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} and {b.shape}")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g @ b.data.swapaxes(1, 2))
        if b.requires_grad:
            sink(b, a.data.swapaxes(1, 2) @ g)

    return ad._wrap(a.data @ b.data, (a, b), back)


def softmax_heads(a, mask=None) -> Tensor:
    """Last-axis softmax over [H x S x S] planes with one shared [S x S] mask."""
    a = ad._as_tensor(a)
    if len(a.shape) != 3:
        raise ShapeError(f"softmax_heads needs a 3-d tensor, got {a.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape[1:]:
            raise ShapeError(f"mask {mask.shape} does not cover planes {a.shape[1:]}")
        ad._check_rows_visible(mask)
    y = ad._softmax_last_axis(a.data, mask)

    def back(g, sink):
        sink(a, ad._softmax_grad_into(g, y))

    return ad._wrap(y, (a,), back)


def attention_chain(q, k, v, n_heads: int, mask=None) -> tuple[Tensor, Tensor]:
    """The planes and the merged output as the decoder layer built them
    before ``attention_planes`` and ``attend``."""
    q3 = split_heads(q, n_heads)
    k3 = split_heads(k, n_heads)
    v3 = split_heads(v, n_heads)
    dh = q.shape[1] // n_heads
    att = softmax_heads(mul(bmm(q3, transpose_last2(k3)), 1.0 / np.sqrt(dh)), mask)
    return att, merge_heads(bmm(att, v3))


# the generic ops that built the two routers before their gate nodes, and
# the router chain itself


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = ad._as_tensor(a)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def back(g, sink):
        sink(a, g.reshape(a.shape))

    return ad._wrap(a.data.reshape(shape), (a,), back)


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = ad._as_tensor(a)
    if len(a.shape) != 2 or not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows[{start}:{stop}] invalid for shape {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        sink(a, z)

    return ad._wrap(a.data[start:stop], (a,), back)


def mean_pool_rows(a) -> Tensor:
    """Column-wise arithmetic mean; an [m x n] matrix pools to [n]."""
    a = ad._as_tensor(a)
    if len(a.shape) != 2 or a.shape[0] < 1:
        raise ShapeError(f"mean_pool_rows needs a nonempty 2-d tensor, got {a.shape}")
    m = a.shape[0]

    def back(g, sink):
        sink(a, np.broadcast_to(g / m, a.shape))

    return ad._wrap(a.data.mean(axis=0), (a,), back)


def softmax_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-stochastic softmax, stabilized by row-max subtraction.

    ``mask`` marks visible entries with True; masked entries come out
    exactly 0. A row with no visible entry raises DegenerateRowError.
    """
    a = ad._as_tensor(a)
    if len(a.shape) != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got {a.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"softmax mask shape {mask.shape} != input {a.shape}")
        ad._check_rows_visible(mask)
    y = ad._softmax_last_axis(a.data, mask)
    return ad._wrap(y, (a,), lambda g, sink: sink(a, ad._softmax_grad_into(g, y)))


def mlp_two_layer(x, w1, b1, w2, b2) -> Tensor:
    """gelu(x w1 + b1) w2 + b2 as one tape node (router MLPs)."""
    x, w1, b1, w2, b2 = (ad._as_tensor(t) for t in (x, w1, b1, w2, b2))
    if len(x.shape) != 2 or x.shape[1] != w1.shape[0] \
            or w1.shape[1] != w2.shape[0] \
            or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise ShapeError(
            f"mlp_two_layer: shapes {x.shape}, {w1.shape}, {b1.shape}, "
            f"{w2.shape}, {b2.shape} do not chain"
        )
    u = x.data @ w1.data
    u += b1.data
    hidden, t = ad._gelu_value(u)
    out = hidden @ w2.data
    out += b2.data

    def back(g, sink):
        if b2.requires_grad:
            sink(b2, g.sum(axis=0))
        if w2.requires_grad:
            sink(w2, hidden.T @ g)
        gu = ad._gelu_slope_into(g @ w2.data.T, u, t)
        if b1.requires_grad:
            sink(b1, gu.sum(axis=0))
        if w1.requires_grad:
            sink(w1, x.data.T @ gu)
        if x.requires_grad:
            sink(x, gu @ w1.data.T)

    return ad._wrap(out, (x, w1, b1, w2, b2), back)


def gate_logits(gate: GatingNetwork, h: Tensor) -> Tensor:
    """The router MLP's logits, [m x d_in] to [m x n_out]."""
    return mlp_two_layer(h, gate.w1, gate.b1, gate.w2, gate.b2)


def n_experts(bank: ExpertBank) -> int:
    """The number O of experts that a bank stacks."""
    return bank.A.shape[0] // bank.rank


def qmoe_weights_chain(x: Tensor, rows: range, bank: ExpertBank,
                       gate: GatingNetwork) -> Tensor:
    """``qmoe_weights`` as six nodes: slice, mean-pool, reshape, MLP,
    softmax, reshape."""
    h_prompt = slice_rows(x, rows.start, rows.stop)
    pooled = reshape(mean_pool_rows(h_prompt), (1, h_prompt.shape[1]))
    return reshape(softmax_rows(gate_logits(gate, pooled)), (n_experts(bank),))


def qmoe_apply_chain(x: Tensor, alpha: Tensor, bank: ExpertBank) -> Tensor:
    """``qmoe_apply`` with alpha gathered into one [S x O] row per token."""
    rows = take(reshape(alpha, (1, n_experts(bank))),
                   np.zeros(x.shape[0], dtype=np.intp))
    return ad.lowrank_rows_apply(x, rows, bank.A, bank.B, bank.rank)


def kmoe_gate_softmax(x: Tensor, n_tokens: int, gate: GatingNetwork) -> Tensor:
    """The key router's unmasked gate weights [n_tokens x O]: slice, MLP,
    softmax."""
    return softmax_rows(gate_logits(gate, slice_rows(x, 0, n_tokens)))


def kmoe_gate_weights_chain(x: Tensor, n_tokens: int, bank: ExpertBank,
                            gate: GatingNetwork, b: int) -> Tensor:
    """``kmoe_gate_weights`` as slice, MLP, softmax and the mask product."""
    beta = kmoe_gate_softmax(x, n_tokens, gate)
    return mul(beta, Tensor(topb_mask_rows(beta.data, b).astype(np.float64)))


def kmoe_splice_chain(k: Tensor, h: Tensor, weights: Tensor,
                      bank: ExpertBank) -> Tensor:
    """k with the key-side delta added to its first N rows, as the decoder
    layer spliced it before ``add(kmoe_apply(h, weights, bank), k)``."""
    n = weights.shape[0]
    k_vis = add(slice_rows(k, 0, n),
                   ad.lowrank_rows_apply(slice_rows(h, 0, n), weights, bank.A,
                                         bank.B, bank.rank))
    return concat_rows([k_vis, slice_rows(k, n, k.shape[0])])


def lora_apply(lora: ExpertBank, x: Tensor) -> Tensor:
    """x @ delta^T without materializing the full matrix."""
    return matmul(matmul(x, transpose(lora.A)), transpose(lora.B))


def _mixture_delta(bank: ExpertBank, w: Tensor) -> Tensor:
    """sum_o w_o B_o A_o for a length-O weight vector, as one [d_out x d_in]."""
    per_row = take(w, np.repeat(np.arange(n_experts(bank)), bank.rank))
    return matmul(bank.B, scale_rows(bank.A, per_row))


def qmoe_delta(h_prompt: Tensor, bank: ExpertBank,
               gate: GatingNetwork) -> tuple[Tensor, Tensor]:
    """Prompt-routed dense mixture, materialized as one [d x d] delta, and
    the router weights alpha.

    The delta is shared by every token's query projection this pass. The
    model's hot path applies the same mixture in factored form
    (`qmoe_apply`); both agree to 1e-12.
    """
    alpha = qmoe_weights(h_prompt, range(h_prompt.shape[0]), gate)
    return _mixture_delta(bank, alpha), alpha


def kmoe_delta_per_token(h_tokens: Tensor, bank: ExpertBank, gate: GatingNetwork,
                         b: int) -> tuple[list[Tensor], Tensor]:
    """Materialized per-token deltas of the key-side mixture, and the
    masked gate weights that built them."""
    weights = kmoe_gate_weights(h_tokens, h_tokens.shape[0], gate, b)
    o = n_experts(bank)
    deltas = [_mixture_delta(bank, reshape(take(weights, [c]), (o,)))
              for c in range(h_tokens.shape[0])]
    return deltas, weights


def adapted_projection(x: Tensor, base_w: Tensor,
                       dense_lora: ExpertBank | None = None,
                       moe_delta: Tensor | None = None,
                       per_token_deltas: list[Tensor] | None = None) -> Tensor:
    """output_row_i = x_i @ (base_w + dense_delta + moe_delta_i)^T.

    ``moe_delta`` is one matrix shared by all rows (query-side);
    ``per_token_deltas`` supplies one matrix per leading row, None for
    rows without a delta (key-side; text rows stay dense-only).
    """
    if len(x.shape) != 2 or base_w.shape[1] != x.shape[1]:
        raise ShapeError(f"projection: input {x.shape} vs weight {base_w.shape}")
    out = matmul(x, transpose(base_w))
    if dense_lora is not None:
        out = add(out, lora_apply(dense_lora, x))
    if moe_delta is not None:
        out = add(out, matmul(x, transpose(moe_delta)))
    if per_token_deltas is not None:
        if len(per_token_deltas) > x.shape[0]:
            raise ShapeError("more per-token deltas than rows")
        rows = []
        for i, delta in enumerate(per_token_deltas):
            row = slice_rows(x, i, i + 1)
            if delta is None:
                rows.append(Tensor(np.zeros((1, out.shape[1]))))
            else:
                rows.append(matmul(row, transpose(delta)))
        if len(per_token_deltas) < x.shape[0]:
            pad = Tensor(np.zeros((x.shape[0] - len(per_token_deltas), out.shape[1])))
            rows.append(pad)
        out = add(out, concat_rows(rows))
    return out


def refined_map_all_heads(stack: AttentionStack, q: int,
                          selected: np.ndarray) -> Tensor:
    """The refined map built from an L x H view: every head's [q x N]
    submatrix is sliced first, then the selected ones are pooled in
    row-major (l, h) order."""
    stack.check_rows(q)
    n = stack.spans.n_visual
    per_head = [[plane_submatrix(plane, h, range(plane.shape[1] - q, plane.shape[1]),
                                 0, n)
                 for h in range(stack.n_heads)]
                for plane in stack.planes]
    if not selected.any():
        raise ParameterError("refined_map needs at least one selected head")
    acc: Tensor | None = None
    for l in range(stack.n_layers):
        for h in range(stack.n_heads):
            if not selected[l, h]:
                continue
            v = mean_pool_rows(per_head[l][h])
            acc = v if acc is None else add(acc, v)
    return mul(acc, 1.0 / int(selected.sum()))


# the readers as they were while they named sequence rows: any set of
# them, translated into rows of a plane by ``plane_rows``, with repeats
# allowed and the scatters of their backward passes accumulating them


def answer_logit_rows(spans: Spans) -> tuple[int, ...]:
    """Rows whose logits predict the answer tokens, in order."""
    first = spans.n_visual + spans.n_prompt - 1
    return tuple(range(first, first + spans.n_answer))


def answer_query_rows(spans: Spans) -> tuple[int, ...]:
    """Query rows used during teacher-forced training: the answer positions."""
    return tuple(range(spans.n_visual + spans.n_prompt, spans.total))


def plane_rows(stack: AttentionStack, layer: int, rows) -> np.ndarray:
    """The rows of plane ``layer`` that hold the sequence rows ``rows``; a
    row before the ones it kept raises SelectionError."""
    rows = np.asarray(rows, dtype=np.intp)
    first = stack.spans.total - stack.planes[layer].shape[-2]
    if rows.size and rows.min() < first:
        raise SelectionError(f"sequence row {rows.min()} is before row "
                             f"{first}, the first that layer {layer} kept")
    return rows - first


def all_visual_ratios_rows(stack: AttentionStack, query_rows) -> np.ndarray:
    """The [L x H] grid of visual attention ratios over the given rows."""
    rows = list(query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    spans = stack.spans
    out = np.empty((stack.n_layers, stack.n_heads))
    for l, plane in enumerate(stack.planes):
        view = plane.data[:, plane_rows(stack, l, rows), :]
        vis = view[:, :, : spans.n_visual].sum(axis=(1, 2))
        prm = view[:, :, spans.n_visual: spans.n_visual + spans.n_prompt].sum(axis=(1, 2))
        out[l] = vis / (vis + prm)
    return out


def refined_map_rows(stack: AttentionStack, query_rows, selected: np.ndarray) -> Tensor:
    """The refined map over the given text query rows, one tape node."""
    rows = tuple(int(r) for r in query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    text = range(stack.spans.n_visual, stack.spans.total)
    for r in rows:
        if r not in text:
            raise SelectionError(f"query row {r} outside text spans {text}")
    pairs = np.argwhere(selected)
    if not len(pairs):
        raise ParameterError("refined_map needs at least one selected head")
    n = stack.spans.n_visual
    layers = sorted({l for l, _ in pairs})
    idx = [plane_rows(stack, l, rows) for l in range(stack.n_layers)]
    acc = None
    for l, h in pairs:
        v = stack.planes[l].data[h][idx[l], :n].mean(axis=0)
        acc = v if acc is None else acc + v

    def back(g, sink):
        # (g / R) / |Q| into each selected block; add.at keeps repeated
        # query rows accumulating
        block = np.broadcast_to(g * (1.0 / len(pairs)) / len(rows),
                                (len(rows), n))
        for l in layers:
            plane = stack.planes[l]
            if not plane.requires_grad:
                continue
            z = np.zeros_like(plane.data)
            for pl, h in pairs:
                if pl == l:
                    np.add.at(z[h, :, :n], idx[l], block)
            sink(plane, z)

    return ad._wrap(acc * (1.0 / len(pairs)), [stack.planes[l] for l in layers],
                    back)


def cross_entropy_rows(logits, rows, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under the softmax of
    the given rows of logits; target i belongs to row ``rows[i]``, and a
    row may appear more than once."""
    logits = ad._as_tensor(logits)
    idx = np.asarray(rows, dtype=np.intp)
    tgt = np.asarray(targets, dtype=np.intp)
    if len(logits.shape) != 2 or idx.ndim != 1 or tgt.shape != idx.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape}, rows {idx.shape} "
                         f"and targets {tgt.shape} disagree")
    t = idx.size
    picked = logits.data[idx]
    z = picked - picked.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(t), tgt].mean()

    def back(g, sink):
        p = np.exp(logp)
        p[np.arange(t), tgt] -= 1.0
        grad = np.zeros_like(logits.data)
        np.add.at(grad, idx, g * p / t)    # repeated rows accumulate
        sink(logits, grad)

    return ad._wrap(np.asarray(loss), (logits,), back)


def total_loss_rows(model, adapters, sample, labels, cfg,
                    keep_last: int | None = None) -> Tensor:
    """``training.total_loss`` through the row-set readers, over a pass that
    keeps the last ``keep_last`` rows, or all of them when it is None."""
    out = model.forward(sample.features, sample.prompt, sample.answer, adapters,
                        keep_last=keep_last)
    stack = out.attention
    logit_rows = plane_rows(stack, stack.n_layers - 1, answer_logit_rows(stack.spans))
    llm = cross_entropy_rows(out.logits, logit_rows, list(sample.answer))
    if not cfg.aligned:
        return llm
    rows = answer_query_rows(stack.spans)
    selected = select_heads(all_visual_ratios_rows(stack, rows), cfg.heads_r)
    align, _ = alignment_loss(refined_map_rows(stack, rows, selected),
                              [s.token_indices for s in labels])
    return ad.add(llm, ad.mul(align, cfg.lambda_align))


def generated_query_refined_map_rows(stacks, top_r: int) -> np.ndarray:
    """``attention.generated_query_refined_map`` naming each greedy step's
    emitting row, its last sequence row."""
    rows = [(s.spans.total - 1,) for s in stacks]
    maps = [refined_map_rows(s, r, select_heads(all_visual_ratios_rows(s, r), top_r)).data
            for s, r in zip(stacks, rows)]
    return np.mean(maps, axis=0)


def alignment_loss_composed(refined: Tensor, token_sets):
    """The alignment energy built from generic ops: the total mass, then per
    segment a gather, its sum, the quotient by the total, (1 - f) built
    twice, their product and the running ``add``."""
    token_sets = [tuple(s) for s in token_sets]
    if not token_sets:
        raise ConfigurationError("alignment loss needs at least one segment")
    n = refined.shape[0]
    if (refined.data < 0).any():
        raise ParameterError("refined map has negative entries")
    if refined.data.sum() <= 0:
        raise DegenerateAttentionError("refined map has zero total mass")
    for ts in token_sets:
        if max(ts) >= n:
            raise IndexError(f"segment token {max(ts)} outside map of size {n}")

    total = sum_all(refined)
    loss: Tensor | None = None
    fractions = []
    for ts in token_sets:
        frac = quotient(sum_all(take(refined, list(ts))), total)
        fractions.append(float(frac.data))
        term = mul(one_minus(frac), one_minus(frac))
        loss = term if loss is None else add(loss, term)
    return loss, tuple(fractions)


class PerTensorAdamW:
    """The optimizer before the adapters shared one flat vector: one moment
    pair per tensor, each tensor stepped from its own ``.grad`` (None
    counting as zero). Its ``step`` is the package's former ``AdamW.step``
    verbatim, so the flat step can be pinned to it bit for bit."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params: Sequence[tuple[str, Tensor]], lr: float):
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self, grad_scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            # in place, in the operation order of
            # g = g * s; m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            g = g * grad_scale
            t = np.multiply(g, 1 - self.b1)
            m *= self.b1
            m += t
            np.multiply(g, 1 - self.b2, out=t)
            t *= g
            v *= self.b2
            v += t
            update = np.divide(m, bc1, out=g)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            update /= t
            update *= self.lr
            p.data -= update
