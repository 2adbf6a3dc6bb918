"""One benchmark worker: a fresh interpreter that runs one fixed job.

    python3 perfbench/worker.py --job train_aligned|train_dense --seed N --out DIR [--trace]

`run.py` starts it with the BLAS thread variables already set and `src`
on `PYTHONPATH`. The job is what `attnalign train` and then `attnalign
evaluate` do, called through the same public functions:

- `training.train` with a held-out `metrics.evaluate` after every epoch
  (the `eval_fn` that `cli.cmd_train` wires) and the run-directory write;
  `train_aligned` is the aligned arm (lambda 0.1, R=2, K=1, Q-MoE plus
  top-2-of-8 K-MoE), `train_dense` the `--no-a3moe`, lambda 0 arm.
- `load_checkpoint` of the run's checkpoint, `read_samples` of the
  held-out split, greedy `metrics.evaluate` and `save_report`, as
  `metrics.evaluate_checkpoint` and `cli.cmd_evaluate` do.

Training time is cut into epochs at the `eval_fn` callbacks, and
evaluation time at each `evaluate` call. The worker writes `result.json`
(and `spans.json` with `--trace`) to DIR. Times come from the system-wide
monotonic clock, so the parent can measure set-up from the moment it
started this process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# A1's data distribution (grid 8, 1x1 planted segments, feature noise 0.2)
# and A1's optimizer settings, at a size where one job takes seconds. The
# alignment loss only starts to fall after some 40 optimizer steps at lr
# 3e-3; at 64 steps (128 samples x 4 epochs) its last-epoch mean was below
# its first-epoch mean for every seed from 0 to 29.
DATA = dict(n_train=128, n_test=32, grid=8, d_visual=16, n_concepts=4,
            n_segments=3, n_labels=4, seg_side_min=1, seg_side_max=1,
            feature_noise=0.2)
TRAIN = dict(epochs=4, lr=3e-3, batch_size=8, weak_k=1, heads_r=2)
MODEL_SEED = 0            # `attnalign train` default
# an operation is one training or evaluated sample
OPS = TRAIN["epochs"] * (DATA["n_train"] + DATA["n_test"]) + DATA["n_test"]


def blas_threads() -> int | None:
    """Effective thread count of numpy's bundled OpenBLAS, None if not found."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(args, out: dict, run_dir: Path) -> None:
    from attnalign import data, metrics, model, training
    from attnalign.adapters import AdapterConfig

    aligned = args.job == "train_aligned"
    adapter = AdapterConfig() if aligned else AdapterConfig(use_qmoe=False,
                                                            use_kmoe=False)
    cfg = training.TrainConfig(lambda_align=0.1 if aligned else 0.0,
                               seed=args.seed, adapter=adapter, **TRAIN)
    train_s, test_s, meta = data.generate_dataset(
        data.DataSpec(seed=args.seed, **DATA))
    decoder = model.VisualDecoder(model.ModelConfig(), seed=MODEL_SEED)
    metrics.check_compatibility(decoder, train_s)
    weak = (training.compute_weak_labels(train_s, meta, cfg.weak_k, seed=cfg.seed)
            if aligned else None)

    marks: list[float] = []   # start and end of every eval_fn call

    def eval_fn(m, adapters):
        marks.append(time.monotonic())
        report = metrics.evaluate(m, adapters, test_s)
        marks.append(time.monotonic())
        return {"coverage": report.coverage, "intensity": report.intensity,
                "accuracy": report.accuracy}

    out["first_unit"] = start = time.monotonic()
    result = training.train(decoder, train_s, cfg, weak_labels=weak,
                            eval_fn=eval_fn, out_dir=run_dir)
    # an epoch's training runs from train() being called, or from the
    # previous eval_fn returning, to its own eval_fn call
    out["epochs"] = [[len(train_s), b - a]
                     for a, b in zip([start] + marks[1::2], marks[0::2])]
    out["eval_calls"] = [[len(test_s), b - a] for a, b in zip(marks[0::2], marks[1::2])]
    out["epoch_logs"] = result.epoch_logs
    out["adapter_tensors"] = len(result.adapters.params())
    out["adapter_scalars"] = sum(t.data.size for _, t in result.adapters.params())

    # score the saved checkpoint the way `attnalign evaluate` does
    data.write_samples(run_dir / "test.jsonl", test_s)
    loaded, adapters, _ = model.load_checkpoint(run_dir / "checkpoint.json")
    samples = data.read_samples(run_dir / "test.jsonl")
    metrics.check_compatibility(loaded, samples)
    t0 = time.monotonic()
    report = metrics.evaluate(loaded, adapters, samples)
    out["eval_calls"].append([len(samples), time.monotonic() - t0])
    metrics.save_report(run_dir / "report.json", report)
    out["aggregates"] = json.loads((run_dir / "report.json").read_text())["aggregates"]

    out["digests"] = {name: digest(run_dir / name)
                      for name in ("metrics.jsonl", "checkpoint.json", "report.json")}
    out["checkpoint_bytes"] = (run_dir / "checkpoint.json").stat().st_size


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", required=True, choices=["train_aligned", "train_dense"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out_dir = Path(args.out)
    run_dir = out_dir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)

    out: dict = {"job": args.job, "ops": OPS, "python": sys.version.split()[0]}
    tracer = None
    try:
        import numpy

        out["numpy"] = numpy.__version__
        out["blas_threads"] = blas_threads()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        run_job(args, out, run_dir)
    except Exception:
        out["error"] = traceback.format_exc()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
        out["trace_failed"] = tracer.failed
        out["trace_counters"] = tracer.counters
    (out_dir / "result.json").write_text(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
