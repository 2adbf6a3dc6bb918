"""Alignment-regularized fine-tuning of the adapters.

The objective is the answer-token cross entropy plus lambda times a
mask-energy penalty: for each weak-label segment, the squared shortfall
of the attention mass fraction it captures in the refined visual map.
Both terms share one forward pass, so alignment gradients reach the
query/key adapters through the attention softmax. The base model stays
frozen; only adapter and gate tensors move.

During ``train`` every adapter tensor's data is a view into one flat
vector in a mapping shared with the helper processes that compute part
of each batch (``cores.Split``), so helpers read the current adapters
there rather than from a copy-on-write copy of their own. The main
process updates that vector in place with one ``AdamW.step`` per batch,
and only while every helper is idle; the tensors get private copies of
their data back when ``train`` returns. Gradients come back the same way:
a helper writes each sample's flat gradient to the shared row of its batch
position during its own chunk and sends only loss terms, and the main
process reads that row only after receiving them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attention as attn
from . import autodiff as ad
from . import cores
from .adapters import AdapterConfig, AdapterSet
from .autodiff import Tensor
from .data import DataSpec, SyntheticSample, propose_segments
from .errors import CompatibilityError, ConfigurationError, \
    DegenerateAttentionError, DivergenceError, ParameterError, \
    SelectionError
from .model import ForwardOutput, ModelConfig, VisualDecoder, save_checkpoint
from .weaklabels import Segment, SyntheticOracleBackend, select_weak_labels


@dataclass(frozen=True)
class TrainConfig:
    lambda_align: float = 0.1
    epochs: int = 6
    lr: float = 2e-4
    batch_size: int = 8
    weak_k: int = 4
    heads_r: int = 2              # ceil(0.125 * L * H) for the toy 4x4 model
    seed: int = 0
    adapter: AdapterConfig = field(default_factory=AdapterConfig)

    def __post_init__(self):
        for name, low in dict(lambda_align=0, epochs=1, lr=0, batch_size=1, weak_k=1,
                              heads_r=0, seed=0).items():
            value = getattr(self, name)
            if not value >= low:      # NaN fails too
                raise ParameterError(f"{name} must be >= {low}, got {value}")
            if value == np.inf:
                raise ParameterError(f"{name} must be finite, got {value}")

    @property
    def aligned(self) -> bool:
        """Whether the alignment term is on: it needs lambda > 0 and R > 0."""
        return self.lambda_align > 0 and self.heads_r > 0


def check_heads(cfg: TrainConfig, config: ModelConfig, where: str) -> None:
    """R, which ``where`` names, may not exceed the model's L x H heads."""
    n = config.n_layers * config.n_heads
    if cfg.heads_r > n:
        raise ConfigurationError(f"{where}: heads_r={cfg.heads_r} is more than "
                                 f"the {n} attention heads of the model")


@dataclass
class LossBreakdown:
    llm: float
    align: float
    total: float


class AdamW:
    """Adam with bias-corrected moments (0.9, 0.999), eps 1e-8 and no weight
    decay, over one float64 parameter array that ``step`` updates in place.

    Every operation is elementwise, so stepping the adapters' flat vector
    gives each tensor the values a step of that tensor alone would.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad: np.ndarray, grad_scale: float = 1.0) -> None:
        """One update from ``grad``, which it leaves unchanged."""
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        m, v = self.m, self.v
        # in place, in the operation order of
        # g = g * s; m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        g = grad * grad_scale
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
        self.params -= update


def oracle_backend(spec: DataSpec, noise: float = 0.0,
                   seed: int = 0) -> SyntheticOracleBackend:
    """The weak-label backend of a dataset: prompts embed as the channel
    signature of their concept token."""
    return SyntheticOracleBackend(spec.concept_vectors, spec.concept_base,
                                  noise=noise, seed=seed)


def compute_weak_labels(samples: Sequence[SyntheticSample], spec: DataSpec,
                        k: int, noise: float = 0.0,
                        seed: int = 0) -> dict[str, tuple[Segment, ...]]:
    """The weak-label segments of every sample, fixed before training.

    Each sample's candidates are its planted segments plus the dataset's
    ``n_background_segments`` background distractors.
    """
    backend = oracle_backend(spec, noise=noise, seed=seed)
    out = {}
    for s in samples:
        candidates = propose_segments(s, spec.n_background_segments)
        out[s.id] = select_weak_labels(candidates, s.prompt, s.features,
                                       backend, k)
    return out


# ---------------------------------------------------------------------------
# losses


def alignment_loss(refined: Tensor, token_sets: Sequence[Sequence[int]]
                   ) -> tuple[Tensor, tuple[float, ...]]:
    """Sum over segments of (1 - captured mass fraction)^2, as one tape node.

    ``refined`` is a nonnegative length-N map and ``token_sets`` holds each
    segment's visual-token indices; the fraction normalizes by the map's
    total mass, so the penalty only cares how attention is distributed
    across visual tokens.
    """
    if not token_sets:
        raise ConfigurationError("alignment loss needs at least one segment")
    n = refined.shape[0]
    data = refined.data
    if (data < 0).any():
        raise ParameterError("refined map has negative entries")
    total = data.sum()
    if total <= 0:
        raise DegenerateAttentionError("refined map has zero total mass")
    for i, ts in enumerate(token_sets):
        if not len(ts):
            raise ConfigurationError(f"alignment loss segment {i} has no tokens")
        for t in (min(ts), max(ts)):
            if not 0 <= t < n:
                raise CompatibilityError(
                    f"weak-label token {t} outside the map of {n} visual tokens")

    idx = [np.asarray(ts, dtype=np.intp) for ts in token_sets]
    masses = [data[i].sum() for i in idx]
    fractions = [m / total for m in masses]
    loss = None
    for f in fractions:
        term = (1.0 - f) * (1.0 - f)
        loss = term if loss is None else loss + term

    def back(g, sink):
        # repeats, in its order, the arithmetic of the generic-op composition
        # (tests/references.py, alignment_loss_composed) so that gradients
        # stay bit-identical to it: each segment's tokens, total mass last
        grad, g_total = np.zeros(n), None
        for i, m, f in zip(idx, masses, fractions):
            d = 1.0 - f
            g_f = -(g * d) + -(g * d)
            z = np.zeros(n)
            np.add.at(z, i, g_f / total)
            grad += z           # exact even for the first: z holds no -0.0
            t = -g_f * m / (total * total)
            g_total = t if g_total is None else g_total + t
        grad += g_total
        sink(refined, grad)

    return ad._wrap(np.asarray(loss), (refined,), back), \
        tuple(float(f) for f in fractions)


def lm_loss(output: ForwardOutput, answer: Sequence[int]) -> Tensor:
    """Mean answer-token cross entropy from the predicting rows: a pass that
    kept the last n_answer + 1 rows, whose first n_answer predict the answer."""
    if output.logits.shape[0] != len(answer) + 1:
        raise SelectionError(f"lm_loss reads the last {len(answer) + 1} rows; "
                             f"the pass kept {output.logits.shape[0]}")
    return ad.cross_entropy(output.logits, answer)


def total_loss(model: VisualDecoder, adapters: AdapterSet | None,
               sample: SyntheticSample, labels: Sequence[Segment] | None,
               cfg: TrainConfig) -> tuple[Tensor, LossBreakdown]:
    """One shared forward pass feeding both loss terms.

    The top-R heads are ranked again on every pass. The pass keeps only
    the rows the two terms read: the answer-predicting logit rows and the
    answer query rows, which are the last n_answer + 1 rows.
    """
    q = len(sample.answer)
    out = model.forward(sample.features, sample.prompt, sample.answer, adapters,
                        keep_last=q + 1)
    llm = lm_loss(out, sample.answer)

    if not cfg.aligned:
        return llm, LossBreakdown(llm=float(llm.data), align=0.0,
                                  total=float(llm.data))

    if not labels:
        raise ConfigurationError("alignment requested but no weak labels supplied")
    ratios = attn.all_visual_ratios(out.attention, q)
    selected = attn.select_heads(ratios, cfg.heads_r)
    refined = attn.refined_map(out.attention, q, selected)
    align, _ = alignment_loss(refined, [s.token_indices for s in labels])
    total = ad.add(llm, ad.mul(align, cfg.lambda_align))
    return total, LossBreakdown(llm=float(llm.data), align=float(align.data),
                                total=float(total.data))


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    adapters: AdapterSet
    epoch_logs: list[dict]


def train(model: VisualDecoder, train_samples: Sequence[SyntheticSample],
          cfg: TrainConfig,
          weak_labels: dict[str, tuple[Segment, ...]] | None = None,
          eval_fn: Callable[[VisualDecoder, AdapterSet], dict] | None = None,
          out_dir: str | Path | None = None,
          recorded: dict | None = None) -> TrainResult:
    """Train adapters; deterministic for a fixed seed.

    ``eval_fn`` runs after every epoch on the current adapters and its
    dict lands in the epoch log (coverage / intensity / accuracy on a
    held-out split, typically). ``recorded`` adds what else made the run,
    such as the model seed, to its config.json. Run artifacts carry no
    timestamps or paths so reruns are byte-identical.
    """
    if not train_samples:
        raise ConfigurationError("empty training set")
    if cfg.aligned and weak_labels is None:
        raise ConfigurationError("alignment needs a weak-label set per sample")

    seeds = np.random.SeedSequence(cfg.seed).generate_state(2)
    adapters = AdapterSet(model.config.n_layers, model.config.d_model,
                          model.config.d_ff, cfg.adapter, seed=int(seeds[0]))
    shuffle_rng = np.random.default_rng(int(seeds[1]))

    params = [p for _, p in adapters.params()]
    flat, grad = _pack(params)
    optimizer = AdamW(flat, lr=cfg.lr)
    # one flat gradient per batch position, shared with the helpers
    n_positions = min(cfg.batch_size, len(train_samples))
    rows = cores.shared_zeros(n_positions * grad.size).reshape(n_positions, -1)
    main_pid = os.getpid()

    def sample_grads(item: tuple[int, int]) -> tuple[LossBreakdown, bool]:
        """One sample's loss terms, and whether its gradient is in ``rows[pos]``.

        backward() adds into ``grad``, of which the adapters' ``.grad`` are
        views: the main process lets its own samples add up there, a
        helper starts each sample from zero and copies the result to its row.
        """
        pos, idx = item
        sample = train_samples[idx]
        labels = weak_labels.get(sample.id) if weak_labels else None
        loss, breakdown = total_loss(model, adapters, sample, labels, cfg)
        if not np.isfinite(breakdown.total):
            return breakdown, False
        if os.getpid() == main_pid:
            loss.backward()
            return breakdown, False
        grad[...] = 0.0
        loss.backward()
        rows[pos] = grad
        return breakdown, True

    epoch_logs: list[dict] = []
    step = 0
    order = np.arange(len(train_samples))
    # each batch's samples are split across the cores; the main process
    # computes the first ones and adds the helpers' gradients after its
    # own, so the sum sees the samples in batch order, exactly as
    # backward() accumulates them
    try:
        with cores.Split(sample_grads, n_positions) as split:
            for epoch in range(cfg.epochs):
                shuffle_rng.shuffle(order)
                llm_sum = 0.0
                align_sum = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = [int(i) for i in order[start: start + cfg.batch_size]]
                    grad[...] = 0.0
                    results = split.map(list(enumerate(batch)))
                    for pos, (breakdown, in_row) in enumerate(results):
                        if not np.isfinite(breakdown.total):
                            raise DivergenceError(f"non-finite loss at step {step}")
                        if in_row:
                            grad += rows[pos]
                        llm_sum += breakdown.llm
                        align_sum += breakdown.align
                        step += 1
                    # every helper is idle until the next map
                    optimizer.step(grad, grad_scale=1.0 / len(batch))
                log = {
                    "epoch": epoch,
                    "train_llm": llm_sum / len(order),
                    "train_align": align_sum / len(order),
                }
                if eval_fn is not None:
                    log.update(eval_fn(model, adapters))
                epoch_logs.append(log)
    finally:
        for p in params:
            p.data = p.data.copy()   # out of the shared mapping
    # the moments and the mappings are not read again; freeing them lowers
    # the peak memory of writing the checkpoint
    del optimizer, flat, rows

    if out_dir is not None:
        _write_run_dir(Path(out_dir), model, adapters, cfg, epoch_logs,
                       recorded or {})
    return TrainResult(adapters=adapters, epoch_logs=epoch_logs)


def _pack(params: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """One flat vector of every tensor's data, in a mapping shared with
    helpers forked later, and one private flat gradient vector; each
    tensor's ``data`` and ``grad`` become views into them."""
    flat = cores.shared_zeros(sum(p.data.size for p in params))
    grad = np.zeros_like(flat)
    at = 0
    for p in params:
        n, shape = p.data.size, p.data.shape
        flat[at:at + n] = p.data.reshape(-1)
        p.data = flat[at:at + n].reshape(shape)
        p.grad = grad[at:at + n].reshape(shape)
        at += n
    return flat, grad


def _write_run_dir(out_dir: Path, model: VisualDecoder, adapters: AdapterSet,
                   cfg: TrainConfig, epoch_logs: list[dict], recorded: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = {**asdict(cfg), "model": asdict(model.config), **recorded}
    (out_dir / "config.json").write_text(
        json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
    with open(out_dir / "metrics.jsonl", "w") as fh:
        for log in epoch_logs:
            fh.write(json.dumps(log, sort_keys=True) + "\n")
    save_checkpoint(out_dir / "checkpoint.json", model, adapters,
                    extra={"train_config": asdict(cfg)})
