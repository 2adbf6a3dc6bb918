"""Alignment-regularized fine-tuning of the adapters.

The objective is the answer-token cross entropy plus lambda times a
mask-energy penalty: for each weak-label segment, the squared shortfall
of the attention mass fraction it captures in the refined visual map.
Both terms share one forward pass, so alignment gradients reach the
query/key adapters through the attention softmax. The base model stays
frozen; only adapter and gate tensors move.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import attention as attn
from . import autodiff as ad
from . import cores
from .adapters import AdapterConfig, AdapterSet
from .autodiff import Tensor
from .data import DatasetMeta, PlantedSegmentProposer, SyntheticSample
from .errors import ConfigurationError, DegenerateAttentionError, DivergenceError, \
    ParameterError
from .model import ForwardOutput, VisualDecoder, VisualInput, save_checkpoint
from .weaklabels import SyntheticOracleBackend, WeakLabelSet, select_weak_labels


@dataclass(frozen=True)
class TaskProfile:
    """Published per-dataset fine-tuning settings (full-scale reference)."""

    epochs: int
    lambda_align: float


TASK_PROFILES: dict[str, TaskProfile] = {
    "slake": TaskProfile(epochs=6, lambda_align=0.1),
    "vqa-rad": TaskProfile(epochs=9, lambda_align=0.06),
    "pathvqa": TaskProfile(epochs=3, lambda_align=0.02),
    "iu-xray": TaskProfile(epochs=6, lambda_align=0.12),
    "omnimedvqa": TaskProfile(epochs=3, lambda_align=0.03),
    "iu-xray-report": TaskProfile(epochs=12, lambda_align=0.08),
    "mimic-cxr": TaskProfile(epochs=12, lambda_align=0.05),
}

@dataclass
class TrainConfig:
    lambda_align: float = 0.1
    epochs: int = 6
    lr: float = 2e-4
    batch_size: int = 8
    weak_k: int = 4
    heads_r: int = 2              # ceil(0.125 * L * H) for the toy 4x4 model
    seed: int = 0
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    heatmap_sample_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lambda_align < 0:
            raise ParameterError(f"lambda_align must be >= 0, got {self.lambda_align}")


@dataclass
class LossBreakdown:
    llm: float
    align: float
    total: float
    segment_fractions: tuple[float, ...] = ()


class AdamW:
    """Adam with bias-corrected moments (0.9, 0.999), eps 1e-8 and no weight decay."""

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

    def zero_grads(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


def compute_weak_labels(samples: Sequence[SyntheticSample], meta: DatasetMeta,
                        k: int, noise: float = 0.0,
                        seed: int = 0) -> dict[str, WeakLabelSet]:
    """Weak labels for every sample, fixed before training and cacheable.

    Each sample's candidates are its planted segments plus the dataset's
    ``n_background_segments`` background distractors.
    """
    proposer = PlantedSegmentProposer(n_background=meta.spec.n_background_segments)
    backend = SyntheticOracleBackend(meta.concept_vectors,
                                     meta.layout.concept_base,
                                     noise=noise, seed=seed)
    out = {}
    for s in samples:
        candidates = proposer.propose_for_sample(s)
        out[s.id] = select_weak_labels(candidates, s.prompt, s.features,
                                       backend, k)
    return out


# ---------------------------------------------------------------------------
# losses


def alignment_loss(refined: Tensor,
                   labels: WeakLabelSet | Sequence) -> tuple[Tensor, tuple[float, ...]]:
    """Sum over segments of (1 - captured mass fraction)^2.

    ``refined`` is a nonnegative length-N map; the fraction normalizes
    by its total mass, so the penalty only cares how attention is
    distributed across visual tokens.
    """
    token_sets = labels.token_sets() if isinstance(labels, WeakLabelSet) else \
        [tuple(s) for s in labels]
    if not token_sets:
        raise ConfigurationError("alignment loss needs at least one segment")
    n = refined.shape[0]
    data = refined.data
    if (data < 0).any():
        raise ParameterError("refined map has negative entries")
    if data.sum() <= 0:
        raise DegenerateAttentionError("refined map has zero total mass")
    for ts in token_sets:
        if max(ts) >= n:
            raise IndexError(f"segment token {max(ts)} outside map of size {n}")

    total = ad.sum_all(refined)
    loss: Tensor | None = None
    fractions = []
    for ts in token_sets:
        frac = ad.div(ad.sum_all(ad.take(refined, list(ts))), total)
        fractions.append(float(frac.data))
        term = ad.mul(ad.sub(1.0, frac), ad.sub(1.0, frac))
        loss = term if loss is None else ad.add(loss, term)
    return loss, tuple(fractions)


def lm_loss(output: ForwardOutput, answer: Sequence[int]) -> Tensor:
    """Mean answer-token cross entropy from the predicting rows."""
    rows = output.answer_logit_rows()
    return ad.cross_entropy(ad.take(output.logits, list(rows)), list(answer))


def total_loss(model: VisualDecoder, adapters: AdapterSet | None,
               sample: SyntheticSample, labels: WeakLabelSet | None,
               cfg: TrainConfig) -> tuple[Tensor, LossBreakdown]:
    """One shared forward pass feeding both loss terms.

    The top-R heads are ranked again on every pass.
    """
    if cfg.lambda_align > 0 and cfg.heads_r == 0:
        raise ConfigurationError("alignment requested (lambda > 0) but heads_r == 0")
    out = model.forward(VisualInput(sample.features, sample.grid),
                        sample.prompt, sample.answer, adapters)
    llm = lm_loss(out, sample.answer)

    if cfg.lambda_align == 0 or cfg.heads_r == 0:
        total = llm
        breakdown = LossBreakdown(llm=float(llm.data), align=0.0,
                                  total=float(total.data))
        return total, breakdown

    if labels is None or not labels.segments:
        raise ConfigurationError("alignment requested but no weak labels supplied")
    rows = attn.answer_query_rows(out.spans)
    ratios = attn.all_visual_ratios(out.attention, rows)
    selection = attn.select_heads(ratios, cfg.heads_r)
    refined = attn.refined_map(out.attention, rows, selection)
    align, fractions = alignment_loss(refined, labels)
    total = ad.add(llm, ad.mul(align, cfg.lambda_align))
    breakdown = LossBreakdown(llm=float(llm.data), align=float(align.data),
                              total=float(total.data),
                              segment_fractions=fractions)
    return total, breakdown


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    model: VisualDecoder
    adapters: AdapterSet
    epoch_logs: list[dict]
    final_metrics: dict


def train(model: VisualDecoder, train_samples: Sequence[SyntheticSample],
          cfg: TrainConfig,
          weak_labels: dict[str, WeakLabelSet] | None = None,
          eval_fn: Callable[[VisualDecoder, AdapterSet], dict] | None = None,
          out_dir: str | Path | None = None,
          adapters: AdapterSet | None = None) -> TrainResult:
    """Train adapters; deterministic for a fixed seed.

    ``eval_fn`` runs after every epoch on the current adapters and its
    dict lands in the epoch log (coverage / intensity / accuracy on a
    held-out split, typically). Run artifacts carry no timestamps or
    paths so reruns are byte-identical.
    """
    if not train_samples:
        raise ConfigurationError("empty training set")
    if cfg.lambda_align > 0 and weak_labels is None:
        raise ConfigurationError("lambda > 0 needs a weak-label set per sample")

    seeds = np.random.SeedSequence(cfg.seed).generate_state(2)
    if adapters is None:
        adapters = AdapterSet(model.config.n_layers, model.config.d_model,
                              model.config.d_ff, cfg.adapter, seed=int(seeds[0]))
    shuffle_rng = np.random.default_rng(int(seeds[1]))

    optimizer = AdamW(adapters.params(), lr=cfg.lr)
    params = [p for _, p in optimizer.named_params]

    def sample_grads(idx: int) -> tuple[LossBreakdown, list | None]:
        """One sample's loss terms and its own leaf gradients (None if diverged)."""
        sample = train_samples[idx]
        labels = weak_labels.get(sample.id) if weak_labels else None
        loss, breakdown = total_loss(model, adapters, sample, labels, cfg)
        if not np.isfinite(breakdown.total):
            return breakdown, None
        optimizer.zero_grads()
        loss.backward()
        return breakdown, [p.grad for p in params]

    def install(state: list[np.ndarray]) -> None:
        for p, data in zip(params, state):
            p.data[...] = data

    epoch_logs: list[dict] = []
    step = 0
    order = np.arange(len(train_samples))
    # each batch's samples are split across the cores; their gradients
    # are summed here in batch order, exactly as backward() accumulates
    with cores.Split(sample_grads, min(cfg.batch_size, len(order)), install) as split:
        for epoch in range(cfg.epochs):
            shuffle_rng.shuffle(order)
            llm_sum = 0.0
            align_sum = 0.0
            for start in range(0, len(order), cfg.batch_size):
                batch = [int(i) for i in order[start: start + cfg.batch_size]]
                total: list[np.ndarray | None] = [None] * len(params)
                for breakdown, grads in split.map(batch, [p.data for p in params]):
                    if grads is None:
                        raise DivergenceError(f"non-finite loss at step {step}")
                    for i, g in enumerate(grads):
                        if g is None:
                            continue
                        if total[i] is None:
                            total[i] = g
                        else:
                            total[i] += g
                    llm_sum += breakdown.llm
                    align_sum += breakdown.align
                    step += 1
                for p, g in zip(params, total):
                    p.grad = g
                optimizer.step(grad_scale=1.0 / len(batch))
            log = {
                "epoch": epoch,
                "train_llm": llm_sum / len(order),
                "train_align": align_sum / len(order),
            }
            if eval_fn is not None:
                log.update(eval_fn(model, adapters))
            epoch_logs.append(log)

    final_metrics = {k: v for k, v in epoch_logs[-1].items() if k != "epoch"}
    result = TrainResult(model=model, adapters=adapters, epoch_logs=epoch_logs,
                         final_metrics=final_metrics)
    if out_dir is not None:
        _write_run_dir(Path(out_dir), model, adapters, cfg, epoch_logs,
                       train_samples)
    return result


def _write_run_dir(out_dir: Path, model: VisualDecoder, adapters: AdapterSet,
                   cfg: TrainConfig, epoch_logs: list[dict],
                   samples: Sequence[SyntheticSample]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = asdict(cfg)
    snapshot["model"] = asdict(model.config)
    (out_dir / "config.json").write_text(
        json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
    with open(out_dir / "metrics.jsonl", "w") as fh:
        for log in epoch_logs:
            fh.write(json.dumps(log, sort_keys=True) + "\n")
    save_checkpoint(out_dir / "checkpoint.json", model, adapters,
                    extra={"train_config": asdict(cfg)})
    wanted = set(cfg.heatmap_sample_ids)
    if wanted:
        by_id = {s.id: s for s in samples}
        for sid in sorted(wanted & by_id.keys()):
            s = by_id[sid]
            gen = model.generate_greedy(VisualInput(s.features, s.grid),
                                        s.prompt, max_len=len(s.answer),
                                        adapters=adapters)
            heat = attn.generated_query_mean_map(gen.stacks, gen.step_rows)
            attn.export_heatmaps(out_dir / "heatmaps", sid, "mean", heat, s.grid)
