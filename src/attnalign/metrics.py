"""Attention-distribution metrics and end-to-end evaluation.

Coverage is the fraction of ground-truth RoI patches whose attention
value clears a threshold; intensity is the mean attention value over
the RoI. Both read the all-head mean map taken at the emitting position
of each greedy decoding step, exactly as produced (no rescaling).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import attention as attn
from . import cores
from .adapters import AdapterSet
from .data import SyntheticSample, read_samples
from .errors import CompatibilityError, MetricError
from .model import VisualDecoder, load_checkpoint

REPORT_SCHEMA = "attnalign-report-1"
DEFAULT_TAU = 0.15
# consecutive samples of one prompt and answer length that share a no-grad
# forward; on the benchmark's A1-shaped evaluation (BENCH_grouped_eval.json)
# groups of 2 ran the most samples/s, ahead of 1 and 4, for 0.5 MiB of RSS
GROUP = 2


def _at_roi(values: np.ndarray, roi: Sequence[int],
            metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The flat map and its values at the RoI, nonempty patches of the map."""
    m = np.asarray(values, dtype=np.float64).reshape(-1)
    roi = [int(i) for i in roi]
    if not roi:
        raise MetricError(f"{metric} needs a nonempty RoI")
    bad = [i for i in roi if not 0 <= i < m.size]
    if bad:
        raise MetricError(f"RoI index {bad[0]} outside map of {m.size} patches")
    return m, m[roi]


def check_tau(tau: float) -> None:
    """A coverage threshold is a number in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise MetricError(f"tau={tau} is not a threshold in [0, 1]")


def coverage_score(values: np.ndarray, roi: Sequence[int],
                   tau: float = DEFAULT_TAU) -> float:
    """Fraction of RoI patches with attention >= tau."""
    check_tau(tau)
    m, at = _at_roi(values, roi, "coverage")
    if (m < 0).any():
        raise MetricError("coverage needs a nonnegative map")
    return float((at >= tau).sum() / at.size)


def intensity_alignment(values: np.ndarray, roi: Sequence[int]) -> float:
    """Mean attention value over the RoI patches."""
    return float(_at_roi(values, roi, "intensity")[1].mean())


@dataclass
class SampleRecord:
    id: str
    coverage: float
    intensity: float
    correct: bool
    predicted: list[int]
    answer: list[int]


@dataclass
class MetricsReport:
    coverage: float
    intensity: float
    accuracy: float
    tau: float
    per_sample: list[SampleRecord]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "aggregates": {"coverage": self.coverage, "intensity": self.intensity,
                           "accuracy": self.accuracy, "n": len(self.per_sample),
                           "tau": self.tau},
            "per_sample": [asdict(r) for r in self.per_sample],
        }


def evaluate(model: VisualDecoder, adapters: AdapterSet | None,
             samples: Sequence[SyntheticSample],
             tau: float = DEFAULT_TAU) -> MetricsReport:
    """Greedy-decode every sample and score attention against its RoI."""
    check_tau(tau)
    if not samples:
        raise MetricError("evaluation needs at least one sample")

    def score(group: range) -> list[SampleRecord]:
        gens = model.generate_greedy(np.stack([samples[i].features for i in group]),
                                     [samples[i].prompt for i in group],
                                     max_len=len(samples[group.start].answer),
                                     adapters=adapters)
        out = []
        for i, gen in zip(group, gens):
            s = samples[i]
            heat = attn.generated_query_mean_map(gen.stacks)
            out.append(SampleRecord(
                id=s.id,
                coverage=coverage_score(heat, s.roi, tau),
                intensity=intensity_alignment(heat, s.roi),
                correct=gen.tokens == s.answer,
                predicted=list(gen.tokens),
                answer=list(s.answer),
            ))
        return out

    groups: list[range] = []
    for i, s in enumerate(samples):
        prev = samples[i - 1]
        if groups and len(groups[-1]) < GROUP and (len(prev.prompt), len(prev.answer)) \
                == (len(s.prompt), len(s.answer)):
            groups[-1] = range(groups[-1].start, i + 1)
        else:
            groups.append(range(i, i + 1))
    # the groups are split across the cores; records come back in order
    with cores.Split(score, len(groups)) as split:
        records = [r for part in split.map(groups) for r in part]
    n = len(records)
    return MetricsReport(
        coverage=sum(r.coverage for r in records) / n,
        intensity=sum(r.intensity for r in records) / n,
        accuracy=sum(1.0 for r in records if r.correct) / n,
        tau=tau,
        per_sample=records,
    )


def check_compatibility(model: VisualDecoder, samples: Sequence[SyntheticSample],
                        source: str | Path = "the dataset") -> None:
    """``source`` holds samples, and sample n, its line n, must fit the model:
    an id that is a file name (heatmaps are named by it) and that no earlier
    line holds, grid, feature width, prompt and answer, and nonempty RoI and
    segments of distinct patches of the grid."""
    if not samples:
        raise CompatibilityError(f"{source} holds no samples")
    c = model.config
    lines: dict[str, int] = {}
    for n, s in enumerate(samples, start=1):
        tokens = list(s.prompt) + list(s.answer)
        bad = [t for t in tokens if not 0 <= t < c.vocab_size]
        regions = {"key 'roi'": s.roi}
        regions.update((f"item {i} of key 'segments'", g)
                       for i, g in enumerate(s.segments))
        outside = [name for name, p in regions.items()
                   if not p or min(p) < 0 or max(p) >= c.n_visual]
        repeats = [name for name, p in regions.items() if len(set(p)) < len(p)]
        if s.id in ("", ".", "..") or any(ch in s.id for ch in "/\\\0"):
            problem = f"sample id {s.id!r} is not a file name"
        elif s.id in lines:
            problem = f"sample id {s.id!r} is also the id of line {lines[s.id]}"
        elif s.grid != c.grid:
            problem = f"dataset grid {s.grid} != model grid {c.grid}"
        elif s.features.shape[1] != c.d_visual:
            problem = (f"dataset feature width {s.features.shape[1]} != model "
                       f"d_visual {c.d_visual}")
        elif not (s.prompt and s.answer):
            problem = (f"dataset sample {s.id} has an empty "
                       f"{'answer' if s.prompt else 'prompt'}")
        elif len(tokens) > c.max_text_len:
            problem = (f"dataset sample {s.id} has {len(tokens)} prompt+answer "
                       f"tokens, model max_text_len is {c.max_text_len}")
        elif bad:
            problem = f"dataset token {bad[0]} outside model vocabulary {c.vocab_size}"
        elif outside:
            problem = (f"{outside[0]} is {list(regions[outside[0]])}, not a nonempty "
                       f"list of patches in [0, {c.n_visual})")
        elif repeats:
            problem = (f"{repeats[0]} is {list(regions[repeats[0]])}, which "
                       "repeats a patch")
        else:
            lines[s.id] = n
            continue
        raise CompatibilityError(f"{source} line {n}: {problem}")


def evaluate_checkpoint(checkpoint_path: str | Path, data_path: str | Path,
                        tau: float = DEFAULT_TAU) -> MetricsReport:
    model, adapters, _ = load_checkpoint(checkpoint_path)
    samples = read_samples(data_path)
    check_compatibility(model, samples, data_path)
    return evaluate(model, adapters, samples, tau)


def save_report(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1)
                          + "\n")
