"""Command-line entry points.

Verbs: gen-data, train, sweep, evaluate, visualize. The first three accept
--seed and --config; the process exits 0 only when the whole requested
operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import attention as attnmod
from . import metrics as metricsmod
from .adapters import AdapterConfig
from .data import DataSpec, generate_dataset, read_meta, read_samples, \
    write_meta, write_samples
from .errors import AttnAlignError, ConfigurationError, ParameterError, named, \
    read_json, require_fields, stored_config
from .model import ModelConfig, VisualDecoder, load_checkpoint
from .sweeps import SWEEPABLE, sweep
from .training import TrainConfig, check_heads, compute_weak_labels, \
    oracle_backend, train


# the top-level keys of a train or sweep --config file, with their types
TRAIN_CONFIG_KEYS = {"model": dict, "adapter": dict, "train": dict,
                     "model_seed": int}


def _load_config(path: str | None) -> dict:
    """The JSON object of a train or sweep --config file, whose keys must be
    among ``TRAIN_CONFIG_KEYS``, each holding a value of its type there."""
    if not path:
        return {}
    where = f"config file {path}"
    doc = read_json(path, where)
    require_fields(doc, TRAIN_CONFIG_KEYS, where, partial=True)
    return doc


def _build_train_config(doc: dict, args) -> tuple[ModelConfig, TrainConfig, int]:
    where = "section {!r} of config file " + str(args.config)
    model_cfg = stored_config(ModelConfig, doc.get("model", {}),
                              where.format("model"), partial=True)
    adapter_cfg = stored_config(AdapterConfig, doc.get("adapter", {}),
                                where.format("adapter"), partial=True)
    a3moe = not getattr(args, "no_a3moe", False)
    qmoe = a3moe and not getattr(args, "no_qmoe", False)
    kmoe = a3moe and not getattr(args, "no_kmoe", False)
    adapter_cfg = replace(adapter_cfg, use_qmoe=adapter_cfg.use_qmoe and qmoe,
                          use_kmoe=adapter_cfg.use_kmoe and kmoe)
    cfg = replace(stored_config(TrainConfig, doc.get("train", {}),
                                where.format("train"), partial=True),
                  adapter=adapter_cfg)

    heads = getattr(args, "heads", None)
    for option, name, value in (
            ("--seed", "seed", args.seed), ("--heads", "heads_r", heads),
            ("--lambda", "lambda_align", getattr(args, "lambda_align", None)),
            ("--topk", "weak_k", getattr(args, "topk", None))):
        if value is not None:
            with named(f"option {option}"):
                cfg = replace(cfg, **{name: value})
    check_heads(cfg, model_cfg, where.format("train") if heads is None
                else "option --heads")
    model_seed = doc.get("model_seed", 0)
    if model_seed < 0:
        raise ConfigurationError(f"key 'model_seed' of config file {args.config} "
                                 f"is {model_seed}, not >= 0")
    return model_cfg, cfg, model_seed


def cmd_gen_data(args) -> int:
    where = f"config file {args.config}"
    spec = stored_config(DataSpec, read_json(args.config, where)
                         if args.config else {}, where, partial=True)
    if args.seed is not None:
        with named("option --seed"):
            spec = replace(spec, seed=args.seed)
    train_samples, test_samples, _ = generate_dataset(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_samples(out / "train.jsonl", train_samples)
    write_samples(out / "test.jsonl", test_samples)
    write_meta(out / "meta.json", spec)
    print(f"wrote {len(train_samples)} train / {len(test_samples)} test samples "
          f"to {out}")
    return 0


def _read_data_dir(path: str, model: VisualDecoder):
    """Both splits and the spec of a dataset directory, every sample checked
    against the model and the spec before any training starts."""
    splits = [Path(path) / name for name in ("train.jsonl", "test.jsonl")]
    samples = [read_samples(split) for split in splits]
    spec = read_meta(meta := Path(path) / "meta.json")
    for split, split_samples in zip(splits, samples):
        metricsmod.check_compatibility(model, split_samples, split)
        spec.check_samples(split_samples, split, f"dataset meta {meta}")
    return *samples, spec


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    model_cfg, cfg, model_seed = _build_train_config(doc, args)
    model = VisualDecoder(model_cfg, seed=model_seed)
    train_samples, test_samples, spec = _read_data_dir(args.data, model)

    with named("option --weak-noise"):   # the backend checks the noise
        oracle_backend(spec, noise=args.weak_noise)
    weak_labels = (compute_weak_labels(train_samples, spec, cfg.weak_k,
                                       noise=args.weak_noise, seed=cfg.seed)
                   if cfg.aligned else None)

    def eval_fn(m, adapters):
        report = metricsmod.evaluate(m, adapters, test_samples)
        return {"coverage": report.coverage, "intensity": report.intensity,
                "accuracy": report.accuracy}

    result = train(model, train_samples, cfg, weak_labels=weak_labels,
                   eval_fn=eval_fn, out_dir=args.out,
                   recorded={"model_seed": model_seed, "weak_noise": args.weak_noise})
    final = {k: v for k, v in result.epoch_logs[-1].items() if k != "epoch"}
    print(f"final metrics: {json.dumps(final, sort_keys=True)}")
    return 0


def cmd_evaluate(args) -> int:
    with named("option --tau"):
        metricsmod.check_tau(args.tau)
    report = metricsmod.evaluate_checkpoint(args.checkpoint, args.data,
                                            tau=args.tau)
    metricsmod.save_report(args.out, report)
    print(f"coverage={report.coverage:.4f} intensity={report.intensity:.4f} "
          f"accuracy={report.accuracy:.4f} n={len(report.per_sample)}")
    return 0


def cmd_sweep(args) -> int:
    values = [_sweep_value(args.param, v) for v in args.values.split(",") if v]
    doc = _load_config(args.config)
    model_cfg, cfg, model_seed = _build_train_config(doc, args)
    train_samples, test_samples, spec = _read_data_dir(
        args.data, VisualDecoder(model_cfg, seed=model_seed))
    rows = sweep(args.param, values, cfg, model_seed, train_samples,
                 test_samples, spec, model_config=model_cfg, out_csv=args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _sweep_value(param: str, text: str) -> float:
    """One item of ``--values``: a finite number, whole and >= 0 for K, R, B."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and (param == "lambda" or 0 <= value == int(value)):
        return value
    raise ConfigurationError(f"--values item {text!r} is not a number"
                             f"{'' if param == 'lambda' else ', whole and >= 0'}"
                             f", as --param {param} needs")


def cmd_visualize(args) -> int:
    if args.first < 1:
        raise ParameterError(f"option --first: {args.first} is not a sample "
                             f"count >= 1")
    model, adapters, _ = load_checkpoint(args.checkpoint)
    n_heads = model.config.n_layers * model.config.n_heads
    if args.kind == "refined" and not 1 <= args.heads <= n_heads:
        raise ParameterError(f"option --heads: top_r={args.heads} outside "
                             f"[1, {n_heads}], the L x H heads of the model")
    samples = read_samples(args.data)
    metricsmod.check_compatibility(model, samples, args.data)
    if args.ids is not None:
        wanted = [i for i in args.ids.split(",") if i]
        if not wanted:
            raise ParameterError(f"option --ids: {args.ids!r} names no sample id")
        known = {s.id for s in samples}
        if unknown := [i for i in wanted if i not in known]:
            raise ParameterError(f"option --ids: no sample has the id {unknown[0]!r}")
        samples = [s for s in samples if s.id in wanted]
    else:
        samples = samples[: args.first]
    for s in samples:
        (gen,) = model.generate_greedy(s.features[None], [s.prompt],
                                       max_len=len(s.answer), adapters=adapters)
        if args.kind == "mean":
            heat = attnmod.generated_query_mean_map(gen.stacks)
        else:
            heat = attnmod.generated_query_refined_map(gen.stacks, args.heads)
        attnmod.export_heatmaps(args.out, s.id, args.kind, heat, s.grid)
    print(f"wrote heatmaps for {len(samples)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnalign",
        description="attention-aligned adapter tuning on a toy visual decoder",
    )
    verbs = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)

    p = verbs.add_parser("gen-data", help="generate the synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = verbs.add_parser("train", help="fine-tune adapters on a dataset directory")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lambda_align", type=float, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--weak-noise", type=float, default=0.0)
    p.add_argument("--no-qmoe", action="store_true")
    p.add_argument("--no-kmoe", action="store_true")
    p.add_argument("--no-a3moe", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = verbs.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float, default=metricsmod.DEFAULT_TAU)
    p.set_defaults(fn=cmd_evaluate)

    p = verbs.add_parser("sweep", help="one training run per hyperparameter value")
    common(p)
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = verbs.add_parser("visualize", help="export attention heatmaps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ids", default=None, help="comma-separated sample ids")
    p.add_argument("--first", type=int, default=4)
    p.add_argument("--kind", choices=["mean", "refined"], default="mean")
    p.add_argument("--heads", type=int, default=2,
                   help="top-R for --kind refined")
    p.set_defaults(fn=cmd_visualize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AttnAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
