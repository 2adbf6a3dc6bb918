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
from attnalign.errors import ParameterError, SelectionError, ShapeError


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
    per_head = [[ad.plane_submatrix(stack.planes[l], h, rows, 0, n)
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
