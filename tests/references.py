"""Reference paths built from the package's own autodiff ops.

Unlike ``oracles.py``, these share ops with the package: they are the
materialized or unfused forms of what the hot path computes in factored
or pruned form, kept so tests can compare the two.
"""

import numpy as np

from attnalign import autodiff as ad
from attnalign.adapters import ExpertBank, GatingNetwork, LoRAAdapter, \
    RouterDecision, kmoe_gate_weights, qmoe_weights
from attnalign.attention import AttentionStack, HeadSelection
from attnalign.autodiff import Tensor
from attnalign.errors import ConfigurationError, DegenerateAttentionError, \
    ParameterError, SelectionError, ShapeError


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
    """1 - a as two nodes: a negation, then ``ad.add(1.0, .)``."""
    def back(g, sink):
        sink(a, -g)

    return ad.add(1.0, ad._wrap(-a.data, (a,), back))


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
    att = softmax_heads(ad.mul(bmm(q3, transpose_last2(k3)), 1.0 / np.sqrt(dh)), mask)
    return att, merge_heads(bmm(att, v3))


def lora_apply(lora: LoRAAdapter, x: Tensor) -> Tensor:
    """x @ delta^T without materializing the full matrix."""
    return ad.matmul(ad.matmul(x, transpose(lora.A)), transpose(lora.B))


def _mixture_delta(bank: ExpertBank, w: Tensor) -> Tensor:
    """sum_o w_o B_o A_o for a length-O weight vector, as one [d_out x d_in]."""
    per_row = ad.take(w, np.repeat(np.arange(len(bank)), bank.rank))
    return ad.matmul(bank.B, scale_rows(bank.A, per_row))


def qmoe_delta(h_prompt: Tensor, bank: ExpertBank,
               gate: GatingNetwork) -> tuple[Tensor, RouterDecision]:
    """Prompt-routed dense mixture, materialized as one [d x d] delta.

    The delta is shared by every token's query projection this pass. The
    model's hot path applies the same mixture in factored form
    (`qmoe_apply`); both agree to 1e-12.
    """
    alpha, decision = qmoe_weights(h_prompt, bank, gate)
    return _mixture_delta(bank, alpha), decision


def kmoe_delta_per_token(h_tokens: Tensor, bank: ExpertBank, gate: GatingNetwork,
                         b: int) -> tuple[list[Tensor], RouterDecision]:
    """Materialized per-token deltas of the key-side mixture."""
    weights, decision = kmoe_gate_weights(h_tokens, bank, gate, b)
    deltas = [_mixture_delta(bank, ad.reshape(ad.take(weights, [c]), (len(bank),)))
              for c in range(h_tokens.shape[0])]
    return deltas, decision


def adapted_projection(x: Tensor, base_w: Tensor,
                       dense_lora: LoRAAdapter | None = None,
                       moe_delta: Tensor | None = None,
                       per_token_deltas: list[Tensor] | None = None) -> Tensor:
    """output_row_i = x_i @ (base_w + dense_delta + moe_delta_i)^T.

    ``moe_delta`` is one matrix shared by all rows (query-side);
    ``per_token_deltas`` supplies one matrix per leading row, None for
    rows without a delta (key-side; text rows stay dense-only).
    """
    if len(x.shape) != 2 or base_w.shape[1] != x.shape[1]:
        raise ShapeError(f"projection: input {x.shape} vs weight {base_w.shape}")
    out = ad.matmul(x, transpose(base_w))
    if dense_lora is not None:
        out = ad.add(out, lora_apply(dense_lora, x))
    if moe_delta is not None:
        out = ad.add(out, ad.matmul(x, transpose(moe_delta)))
    if per_token_deltas is not None:
        if len(per_token_deltas) > x.shape[0]:
            raise ShapeError("more per-token deltas than rows")
        rows = []
        for i, delta in enumerate(per_token_deltas):
            row = ad.slice_rows(x, i, i + 1)
            if delta is None:
                rows.append(Tensor(np.zeros((1, out.shape[1]))))
            else:
                rows.append(ad.matmul(row, transpose(delta)))
        if len(per_token_deltas) < x.shape[0]:
            pad = Tensor(np.zeros((x.shape[0] - len(per_token_deltas), out.shape[1])))
            rows.append(pad)
        out = ad.add(out, ad.concat_rows(rows))
    return out


def refined_map_all_heads(stack: AttentionStack, query_rows,
                          selection: HeadSelection) -> Tensor:
    """The refined map built from an L x H view: every head's [|Q| x N]
    submatrix is sliced first, then the selected ones are pooled in
    row-major (l, h) order."""
    rows = tuple(int(r) for r in query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    text = stack.spans.text_range
    for r in rows:
        if r not in text:
            raise SelectionError(f"query row {r} outside text spans {text}")
    n = stack.spans.n_visual
    per_head = [[plane_submatrix(stack.planes[l], h, rows, 0, n)
                 for h in range(stack.n_heads)]
                for l in range(stack.n_layers)]
    if selection.top_r < 1:
        raise ParameterError("refined_map needs at least one selected head")
    acc: Tensor | None = None
    for l in range(stack.n_layers):
        for h in range(stack.n_heads):
            if not selection.selected[l, h]:
                continue
            v = ad.mean_pool_rows(per_head[l][h])
            acc = v if acc is None else ad.add(acc, v)
    return ad.mul(acc, 1.0 / selection.top_r)


def alignment_loss_composed(refined: Tensor, token_sets):
    """The alignment energy built from generic ops: the total mass, then per
    segment a gather, its sum, the quotient by the total, (1 - f) built
    twice, their product and the running ``ad.add``."""
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
        frac = quotient(sum_all(ad.take(refined, list(ts))), total)
        fractions.append(float(frac.data))
        term = ad.mul(one_minus(frac), one_minus(frac))
        loss = term if loss is None else ad.add(loss, term)
    return loss, tuple(fractions)
