"""Hyperparameter sweep driver.

One training run per value with a shared seed, results flattened into a
CSV table (`param,value,coverage,intensity,accuracy,L_llm,L_align`).
Every value's config is built and checked before the first run trains.
R = 0 turns the alignment term off (``TrainConfig.aligned``), so that row
trains exactly like a lambda=0 run. A param the base config leaves unread
is refused: B without K-MoE, K without alignment, R at lambda = 0 and
lambda at R = 0 would train the same run once per value.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .data import DataSpec, SyntheticSample
from .errors import ConfigurationError, ParameterError, named
from .metrics import MetricsReport, evaluate
from .model import ModelConfig, VisualDecoder
from .training import TrainConfig, TrainResult, check_heads, compute_weak_labels, \
    train

SWEEP_HEADER = ["param", "value", "coverage", "intensity", "accuracy",
                "L_llm", "L_align"]

SWEEPABLE = ("K", "R", "lambda", "B")


def run_single(model: VisualDecoder, train_samples: Sequence[SyntheticSample],
               test_samples: Sequence[SyntheticSample], spec: DataSpec,
               cfg: TrainConfig) -> tuple[TrainResult, MetricsReport]:
    """Train once under cfg and evaluate on the held-out split."""
    labels = None
    if cfg.aligned:
        labels = compute_weak_labels(train_samples, spec, cfg.weak_k,
                                     seed=cfg.seed)
    result = train(model, train_samples, cfg, weak_labels=labels)
    report = evaluate(model, result.adapters, test_samples)
    return result, report


def apply_sweep_value(cfg: TrainConfig, param: str, value) -> TrainConfig:
    if param == "K":
        return replace(cfg, weak_k=int(value))
    if param == "R":
        return replace(cfg, heads_r=int(value))
    if param == "lambda":
        return replace(cfg, lambda_align=float(value))
    if param == "B":
        return replace(cfg, adapter=replace(cfg.adapter, top_b=int(value)))
    raise ParameterError(f"sweepable params are {SWEEPABLE}, got {param!r}")


def sweep(param: str, values: Sequence, base_cfg: TrainConfig,
          model_seed: int, train_samples: Sequence[SyntheticSample],
          test_samples: Sequence[SyntheticSample], spec: DataSpec,
          model_config=None, out_csv: str | Path | None = None) -> list[dict]:
    """One run per value; rows keep the spec'd CSV column order."""
    if not values:
        raise ParameterError("sweep needs at least one value")
    model_config = model_config or ModelConfig()
    ignored_when = {
        "B": (not base_cfg.adapter.use_kmoe, "use_kmoe is false"),
        "K": (not base_cfg.aligned, f"alignment is off at lambda_align="
              f"{base_cfg.lambda_align} and heads_r={base_cfg.heads_r}"),
        "R": (base_cfg.lambda_align == 0, "lambda_align is 0"),
        "lambda": (base_cfg.heads_r == 0, "heads_r is 0")}
    ignored, reason = ignored_when.get(param, (False, ""))
    if ignored:
        raise ConfigurationError(f"sweep --param {param}: every run would ignore "
                                 f"it, since {reason}")
    cfgs = []
    for value in values:
        where = f"sweep value {param}={value}"
        with named(where):
            cfg = apply_sweep_value(base_cfg, param, value)
        check_heads(cfg, model_config, where)
        cfgs.append(cfg)
    rows = []
    for value, cfg in zip(values, cfgs):
        model = VisualDecoder(model_config, seed=model_seed)
        result, report = run_single(model, train_samples, test_samples, spec, cfg)
        last = result.epoch_logs[-1]
        rows.append({"param": param, "value": value, "coverage": report.coverage,
                     "intensity": report.intensity, "accuracy": report.accuracy,
                     "L_llm": last["train_llm"], "L_align": last["train_align"]})
    if out_csv is not None:
        write_sweep_csv(out_csv, rows)
    return rows


def write_sweep_csv(path: str | Path, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in SWEEP_HEADER})
