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
through the one fused op ``autodiff.lowrank_rows_apply`` as an [S x O]
matrix: the query side repeats its single weight vector on every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError


@dataclass
class AdapterConfig:
    """Adapter hyperparameters; defaults are the toy-scale settings."""

    dense_rank: int = 8
    expert_rank: int = 4
    n_q_experts: int = 4
    n_k_experts: int = 8
    top_b: int = 2
    use_qmoe: bool = True
    use_kmoe: bool = True

    def validate(self) -> None:
        if self.use_kmoe and not (1 <= self.top_b <= self.n_k_experts):
            raise ParameterError(
                f"top_b={self.top_b} outside [1, {self.n_k_experts}]"
            )
        if self.n_q_experts < 1 or self.n_k_experts < 1:
            raise ParameterError("expert counts must be >= 1")


def _factor_pair(d_out: int, d_in: int, rank: int,
                 rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Trainable A [rank x d_in] drawn uniform in +-1/sqrt(d_in), and B = 0."""
    if rank < 1:
        raise ParameterError(f"LoRA rank must be >= 1, got {rank}")
    bound = 1.0 / np.sqrt(d_in)
    return (Tensor(rng.uniform(-bound, bound, size=(rank, d_in)), requires_grad=True),
            Tensor(np.zeros((d_out, rank)), requires_grad=True))


class LoRAAdapter:
    """delta = B @ A with A [r x d_in], B [d_out x r], B zero-initialized."""

    def __init__(self, d_out: int, d_in: int, rank: int, rng: np.random.Generator):
        self.A, self.B = _factor_pair(d_out, d_in, rank, rng)

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + ".A", self.A), (prefix + ".B", self.B)]


class ExpertBank:
    """O equally shaped rank-r experts, stacked into two trainable tensors.

    ``A`` [O r x d_in] holds expert o's down-projection in rows o r to
    (o+1) r, and ``B`` [d_out x O r] its up-projection in the same
    columns, so expert o's delta is B[:, o r:(o+1) r] @ A[o r:(o+1) r].
    B starts at zero. A is drawn in one call, which consumes the generator
    exactly as O successive (r x d_in) draws would.
    """

    def __init__(self, n: int, d_out: int, d_in: int, rank: int,
                 rng: np.random.Generator):
        if n < 1:
            raise ParameterError("expert bank needs at least one expert")
        if rank < 1:
            raise ParameterError(f"expert rank must be >= 1, got {rank}")
        self.A, self.B = _factor_pair(d_out, d_in, n * rank, rng)
        self.rank = rank

    def __len__(self) -> int:
        return self.A.shape[0] // self.rank

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + ".A", self.A), (prefix + ".B", self.B)]


class GatingNetwork:
    """Two-layer MLP producing one routing logit per expert."""

    def __init__(self, d_in: int, d_hidden: int, n_out: int,
                 rng: np.random.Generator, init_std: float = 0.2):
        self.w1 = Tensor(rng.normal(0.0, init_std, size=(d_in, d_hidden)),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, init_std, size=(d_hidden, n_out)),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(n_out), requires_grad=True)

    @property
    def n_out(self) -> int:
        return self.w2.shape[1]

    def logits(self, h: Tensor) -> Tensor:
        """h is [m x d_in]; returns [m x n_out]."""
        return ad.mlp_two_layer(h, self.w1, self.b1, self.w2, self.b2)

    def params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + ".w1", self.w1), (prefix + ".b1", self.b1),
                (prefix + ".w2", self.w2), (prefix + ".b2", self.b2)]


@dataclass
class RouterDecision:
    """Routing outcome of one router call: full gate weights and the survivors.

    The query router gives [O] vectors, the key router [N x O] arrays with
    one row per visual token.
    """

    weights: np.ndarray
    kept: np.ndarray


def topb_mask_rows(weights: np.ndarray, b: int) -> np.ndarray:
    """Mask of each row's b largest entries; ties by ascending index (stable sort)."""
    m, n = weights.shape
    if not (1 <= b <= n):
        raise ParameterError(f"top_b={b} outside [1, {n}]")
    order = np.argsort(-weights, axis=1, kind="stable")
    mask = np.zeros((m, n), dtype=bool)
    np.put_along_axis(mask, order[:, :b], True, axis=1)
    return mask


def qmoe_weights(h_prompt: Tensor, bank: ExpertBank,
                 gate: GatingNetwork) -> tuple[Tensor, RouterDecision]:
    """Prompt-level router weights: softmax(MLP(mean(h_prompt))), length O."""
    if h_prompt.shape[0] < 1:
        raise ShapeError("prompt routing needs at least one prompt row")
    pooled = ad.reshape(ad.mean_pool_rows(h_prompt), (1, h_prompt.shape[1]))
    alpha = ad.reshape(ad.softmax_rows(gate.logits(pooled)), (len(bank),))
    decision = RouterDecision(weights=alpha.data.copy(),
                              kept=np.ones(len(bank), dtype=bool))
    return alpha, decision


def qmoe_apply(x: Tensor, alpha: Tensor, bank: ExpertBank) -> Tensor:
    """x @ delta^T for the alpha-weighted mixture, without materializing it."""
    rows = ad.take(ad.reshape(alpha, (1, len(bank))),
                   np.zeros(x.shape[0], dtype=np.intp))
    return ad.lowrank_rows_apply(x, rows, bank.A, bank.B, bank.rank)


def kmoe_gate_weights(h_tokens: Tensor, bank: ExpertBank, gate: GatingNetwork,
                      b: int) -> tuple[Tensor, RouterDecision]:
    """Per-token sparse gate weights [n_tokens x n_experts].

    Row c holds softmax(MLP(h_c)) with everything outside its top-b
    entries zeroed; surviving weights are not renormalized.
    """
    if not (1 <= b <= len(bank)):
        raise ParameterError(f"top_b={b} outside [1, {len(bank)}]")
    beta = ad.softmax_rows(gate.logits(h_tokens))
    keep = topb_mask_rows(beta.data, b)
    masked = ad.mul(beta, Tensor(keep.astype(np.float64)))
    return masked, RouterDecision(weights=beta.data, kept=keep)


def kmoe_apply(x: Tensor, weights: Tensor, bank: ExpertBank) -> Tensor:
    """Row-wise x_c @ delta_c^T in factored form.

    Equals applying the materialized per-token deltas row by row, to
    1e-12, at a fraction of the tape size.
    """
    return ad.lowrank_rows_apply(x, weights, bank.A, bank.B, bank.rank)


class LayerAdapters:
    """All trainable pieces attached to one decoder layer."""

    def __init__(self, d_model: int, d_ff: int, cfg: AdapterConfig,
                 rng: np.random.Generator):
        r = cfg.dense_rank
        self.lora_q = LoRAAdapter(d_model, d_model, r, rng)
        self.lora_k = LoRAAdapter(d_model, d_model, r, rng)
        self.lora_v = LoRAAdapter(d_model, d_model, r, rng)
        self.lora_o = LoRAAdapter(d_model, d_model, r, rng)
        self.lora_ff1 = LoRAAdapter(d_ff, d_model, r, rng)
        self.lora_ff2 = LoRAAdapter(d_model, d_ff, r, rng)
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
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.layers = [LayerAdapters(d_model, d_ff, cfg, rng)
                       for _ in range(n_layers)]
        self.last_decisions: dict[str, object] = {}

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.params(f"adapter.layer{i}"))
        return out
