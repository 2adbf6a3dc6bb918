"""Low-rank adapters and routed expert mixtures for attention projections.

Every decoder linear map carries a dense LoRA delta. Query projections
additionally take a prompt-routed mixture of low-rank experts (one
mixing weight vector per forward pass, shared by all tokens), and key
projections take a token-routed sparse mixture (per visual token, only
the top-B gate weights survive, unrenormalized).

Both mixtures are one mechanism, a weighted sum of low-rank experts.
An expert bank stacks its O rank-r experts into two tensors, A [O r x
d_in] and B [d_out x O r], expert o being the row block A[o r:(o+1) r]
and the column block B[:, o r:(o+1) r]. Either router's weights go
through the one fused op ``autodiff.lowrank_rows_apply``: the query
side passes its single [O] weight vector, which every row uses, and the
key side its [N x O] matrix for the N visual rows, the text rows getting
no delta.

Each router is two tape nodes here, and the decoder layer's sum into q
or k is the third. The gate node reads the residual stream directly: it
takes the router's rows, mean-pools them (query side), runs the gate MLP
and the softmax, and masks all but the top-B weights (key side). The
apply node mixes the experts into the whole projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class AdapterConfig:
    """Adapter hyperparameters; defaults are the toy-scale settings."""

    dense_rank: int = 8
    expert_rank: int = 4
    n_q_experts: int = 4
    n_k_experts: int = 8
    top_b: int = 2
    use_qmoe: bool = True
    use_kmoe: bool = True

    def __post_init__(self):
        for name in ("dense_rank", "expert_rank", "n_q_experts", "n_k_experts"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.use_kmoe and not (1 <= self.top_b <= self.n_k_experts):
            raise ParameterError(f"top_b={self.top_b} outside [1, {self.n_k_experts}]")


class ExpertBank:
    """O equally shaped rank-r experts, stacked into two trainable tensors.

    ``A`` [O r x d_in] holds expert o's down-projection in rows o r to
    (o+1) r, and ``B`` [d_out x O r] its up-projection in the same
    columns, so expert o's delta is B[:, o r:(o+1) r] @ A[o r:(o+1) r];
    a dense LoRA is a bank of one. B starts at zero. A is drawn uniform in
    +-1/sqrt(d_in) in one call, which consumes the generator exactly as O
    successive (r x d_in) draws would.
    """

    def __init__(self, n: int, d_out: int, d_in: int, rank: int,
                 rng: np.random.Generator):
        bound = 1.0 / np.sqrt(d_in)
        self.A = Tensor(rng.uniform(-bound, bound, size=(n * rank, d_in)),
                        requires_grad=True)
        self.B = Tensor(np.zeros((d_out, n * rank)), requires_grad=True)
        self.rank = rank

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + ".A", self.A), (prefix + ".B", self.B)]


# std of the normal draws that initialize a gate MLP's weights
GATE_WEIGHT_STD = 0.2


class GatingNetwork:
    """Two-layer MLP producing one routing logit per expert."""

    def __init__(self, d_in: int, d_hidden: int, n_out: int,
                 rng: np.random.Generator):
        self.w1 = Tensor(rng.normal(0.0, GATE_WEIGHT_STD, size=(d_in, d_hidden)),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, GATE_WEIGHT_STD, size=(d_hidden, n_out)),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(n_out), requires_grad=True)

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + ".w1", self.w1), (prefix + ".b1", self.b1),
                (prefix + ".w2", self.w2), (prefix + ".b2", self.b2)]


def topb_mask_rows(weights: np.ndarray, b: int) -> np.ndarray:
    """Mask of each row's b largest entries (along the last axis); ties by
    ascending index (stable sort)."""
    n = weights.shape[-1]
    if not (1 <= b <= n):
        raise ParameterError(f"top_b={b} outside [1, {n}]")
    order = np.argsort(-weights, axis=-1, kind="stable")
    mask = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :b], True, axis=-1)
    return mask


def _gate(x: Tensor, start: int, stop: int, gate: GatingNetwork, pool: bool,
          b: int | None = None) -> Tensor:
    """softmax(MLP(rows start:stop of x)) as one tape node, the rows (axis
    -2) mean-pooled into one first when ``pool``; with ``b`` only each row's
    top-b weights survive. A pooled node is an [O] vector (per sample).

    The forward and backward repeat, in order, the arithmetic of the chain
    slice, mean-pool, two-layer MLP, softmax and mask product.
    """
    if len(x.shape) < 2 or not (0 <= start < stop <= x.shape[-2]):
        raise ShapeError(f"router rows {start}:{stop} do not fit input {x.shape}")
    w1, b1, w2, b2 = gate.w1, gate.b1, gate.w2, gate.b2
    inp = x.data[..., start:stop, :]
    if pool:   # the arithmetic of mean(axis=-2)
        inp = np.add.reduce(inp, axis=-2, keepdims=True) / (stop - start)
    u = inp @ w1.data
    u += b1.data
    hidden, t = ad._gelu_value(u)
    logits = hidden @ w2.data
    logits += b2.data
    y = ad._softmax_last_axis(logits, None)
    keepf = None
    out = y[..., 0, :] if pool else y
    if b is not None:
        keepf = topb_mask_rows(y, b).astype(np.float64)
        out = y * keepf

    def back(g, sink):
        g = g.reshape(y.shape)
        if keepf is not None:
            g = g * keepf
        g = ad._softmax_grad_into(g, y)
        if b2.requires_grad:
            sink(b2, g.sum(axis=0))
        if w2.requires_grad:
            sink(w2, hidden.T @ g)
        gu = ad._gelu_slope_into(g @ w2.data.T, u, t)
        if b1.requires_grad:
            sink(b1, gu.sum(axis=0))
        if w1.requires_grad:
            sink(w1, inp.T @ gu)
        if x.requires_grad:
            gx = gu @ w1.data.T
            z = np.zeros_like(x.data)
            z[start:stop] = gx / (stop - start) if pool else gx
            sink(x, z)

    return ad._wrap(out, (x, w1, b1, w2, b2), back)


def qmoe_weights(x: Tensor, rows: range, gate: GatingNetwork) -> Tensor:
    """Prompt-level router weights softmax(MLP(mean(x[rows]))), length O."""
    return _gate(x, rows.start, rows.stop, gate, pool=True)


def qmoe_apply(x: Tensor, alpha: Tensor, bank: ExpertBank) -> Tensor:
    """x @ delta^T for the alpha-weighted mixture, without materializing it."""
    return ad.lowrank_rows_apply(x, alpha, bank.A, bank.B, bank.rank)


def kmoe_gate_weights(x: Tensor, n_tokens: int, gate: GatingNetwork,
                      b: int) -> Tensor:
    """Per-token sparse gate weights [n_tokens x n_experts] of x's first
    n_tokens rows.

    Row c holds softmax(MLP(x_c)) with everything outside its top-b
    entries zeroed; surviving weights are not renormalized.
    """
    return _gate(x, 0, n_tokens, gate, pool=False, b=b)


def kmoe_apply(x: Tensor, weights: Tensor, bank: ExpertBank) -> Tensor:
    """Row-wise x_c @ delta_c^T in factored form for the first N rows of x,
    N being the rows of ``weights``; the later rows get a zero delta.

    Equals applying the materialized per-token deltas row by row, to
    1e-12, at a fraction of the tape size.
    """
    return ad.lowrank_rows_apply(x, weights, bank.A, bank.B, bank.rank)


class LayerAdapters:
    """All trainable pieces attached to one decoder layer."""

    def __init__(self, d_model: int, d_ff: int, cfg: AdapterConfig,
                 rng: np.random.Generator):
        r = cfg.dense_rank
        self.lora_q = ExpertBank(1, d_model, d_model, r, rng)
        self.lora_k = ExpertBank(1, d_model, d_model, r, rng)
        self.lora_v = ExpertBank(1, d_model, d_model, r, rng)
        self.lora_o = ExpertBank(1, d_model, d_model, r, rng)
        self.lora_ff1 = ExpertBank(1, d_ff, d_model, r, rng)
        self.lora_ff2 = ExpertBank(1, d_model, d_ff, r, rng)
        d_gate = d_model // 2
        self.q_bank = self.q_gate = None
        self.k_bank = self.k_gate = None
        if cfg.use_qmoe:
            self.q_bank = ExpertBank(cfg.n_q_experts, d_model, d_model,
                                     cfg.expert_rank, rng)
            self.q_gate = GatingNetwork(d_model, d_gate, cfg.n_q_experts, rng)
        if cfg.use_kmoe:
            self.k_bank = ExpertBank(cfg.n_k_experts, d_model, d_model,
                                     cfg.expert_rank, rng)
            self.k_gate = GatingNetwork(d_model, d_gate, cfg.n_k_experts, rng)

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for name in ("lora_q", "lora_k", "lora_v", "lora_o", "lora_ff1", "lora_ff2"):
            out.extend(getattr(self, name).params(f"{prefix}.{name}"))
        if self.q_bank is not None:
            out.extend(self.q_bank.params(f"{prefix}.qmoe"))
            out.extend(self.q_gate.params(f"{prefix}.qgate"))
        if self.k_bank is not None:
            out.extend(self.k_bank.params(f"{prefix}.kmoe"))
            out.extend(self.k_gate.params(f"{prefix}.kgate"))
        return out


class AdapterSet:
    """Per-layer adapters plus the routing configuration."""

    def __init__(self, n_layers: int, d_model: int, d_ff: int, cfg: AdapterConfig,
                 seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.layers = [LayerAdapters(d_model, d_ff, cfg, rng)
                       for _ in range(n_layers)]

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.params(f"adapter.layer{i}"))
        return out
