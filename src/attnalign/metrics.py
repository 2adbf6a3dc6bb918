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
from .adapters import AdapterSet
from .data import SyntheticSample, read_samples
from .errors import CompatibilityError, MetricError
from .model import VisualDecoder, VisualInput, load_checkpoint

REPORT_SCHEMA = "attnalign-report-1"
DEFAULT_TAU = 0.15


def coverage_score(values: np.ndarray, roi: Sequence[int],
                   tau: float = DEFAULT_TAU) -> float:
    """Fraction of RoI patches with attention >= tau."""
    m = np.asarray(values, dtype=np.float64).reshape(-1)
    roi = [int(i) for i in roi]
    if not roi:
        raise MetricError("coverage needs a nonempty RoI")
    if (m < 0).any():
        raise MetricError("coverage needs a nonnegative map")
    if max(roi) >= m.size:
        raise MetricError(f"RoI index {max(roi)} outside map of {m.size} patches")
    return float((m[roi] >= tau).sum() / len(roi))


def intensity_alignment(values: np.ndarray, roi: Sequence[int]) -> float:
    """Mean attention value over the RoI patches."""
    m = np.asarray(values, dtype=np.float64).reshape(-1)
    roi = [int(i) for i in roi]
    if not roi:
        raise MetricError("intensity needs a nonempty RoI")
    if max(roi) >= m.size:
        raise MetricError(f"RoI index {max(roi)} outside map of {m.size} patches")
    return float(m[roi].mean())


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
    n: int
    tau: float
    per_sample: list[SampleRecord]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "aggregates": {"coverage": self.coverage, "intensity": self.intensity,
                           "accuracy": self.accuracy, "n": self.n, "tau": self.tau},
            "per_sample": [asdict(r) for r in self.per_sample],
        }


def evaluate(model: VisualDecoder, adapters: AdapterSet | None,
             samples: Sequence[SyntheticSample],
             tau: float = DEFAULT_TAU) -> MetricsReport:
    """Greedy-decode every sample and score attention against its RoI."""
    if not samples:
        raise MetricError("evaluation needs at least one sample")
    records = []
    for s in samples:
        gen = model.generate_greedy(VisualInput(s.features, s.grid), s.prompt,
                                    max_len=len(s.answer), adapters=adapters)
        heat = attn.generated_query_mean_map(gen.stacks, gen.step_rows)
        records.append(SampleRecord(
            id=s.id,
            coverage=coverage_score(heat, s.roi, tau),
            intensity=intensity_alignment(heat, s.roi),
            correct=gen.tokens == s.answer,
            predicted=list(gen.tokens),
            answer=list(s.answer),
        ))
    n = len(records)
    return MetricsReport(
        coverage=sum(r.coverage for r in records) / n,
        intensity=sum(r.intensity for r in records) / n,
        accuracy=sum(1.0 for r in records if r.correct) / n,
        n=n,
        tau=tau,
        per_sample=records,
    )


def check_compatibility(model: VisualDecoder,
                        samples: Sequence[SyntheticSample]) -> None:
    c = model.config
    for s in samples:
        if s.grid != c.grid:
            raise CompatibilityError(f"dataset grid {s.grid} != model grid {c.grid}")
        if s.features.shape[1] != c.d_visual:
            raise CompatibilityError(
                f"dataset feature width {s.features.shape[1]} != model "
                f"d_visual {c.d_visual}")
        if not s.prompt:
            raise CompatibilityError(f"dataset sample {s.id} has an empty prompt")
        tokens = list(s.prompt) + list(s.answer)
        if len(tokens) > c.max_text_len:
            raise CompatibilityError(
                f"dataset sample {s.id} has {len(tokens)} prompt+answer tokens, "
                f"model max_text_len is {c.max_text_len}")
        bad = [t for t in tokens if not 0 <= t < c.vocab_size]
        if bad:
            raise CompatibilityError(
                f"dataset token {bad[0]} outside model vocabulary {c.vocab_size}")


def evaluate_checkpoint(checkpoint_path: str | Path, data_path: str | Path,
                        tau: float = DEFAULT_TAU) -> MetricsReport:
    model, adapters, _ = load_checkpoint(checkpoint_path)
    samples = read_samples(data_path)
    check_compatibility(model, samples)
    return evaluate(model, adapters, samples, tau)


def save_report(path: str | Path, report: MetricsReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1)
                          + "\n")
