"""The attnalign benchmark: one command, two workloads, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/attnalign`).

Every workload is a closed loop with one client: fresh single-process
workers (`worker.py`), each running one fixed job, are started one after
another until `--seconds` have passed (at least `MIN_WORKERS`). A job is
`attnalign train` on A1-shaped data (each 8-sample batch starts when the
previous one's optimizer step returns, with a held-out evaluation after
every epoch and the run-directory write) followed by `attnalign
evaluate` of the saved checkpoint. Each worker gets a new interpreter with
the BLAS thread variables set to 1 before numpy loads; the worker reads
the effective OpenBLAS thread count back, and a worker with more than one
thread counts as failed.

- `train_aligned`: the aligned arm (lambda 0.1, R=2, K=1, Q-MoE plus
  top-2-of-8 K-MoE); every layer does real work.
- `train_dense`: the `--no-a3moe`, lambda 0 arm; adapter routing, head
  selection, weak labels and the alignment loss are bypassed.

End-to-end metrics (`--trace 0`):

- `setup_s`, `run_s`, `peak_rss_mb`: medians over the run's workers of
  worker start to its first timed unit, worker start to exit, and the
  worker's ru_maxrss.
- `train_samples_per_s`: the median over the run's epochs of training
  samples per second. An epoch runs from `train()` being called, or from
  the previous `eval_fn` callback returning, to its own `eval_fn` call,
  so per-epoch evaluation is excluded.
- `eval_samples_per_s`: the median over `evaluate` calls (the 32-sample
  held-out split, after every epoch and on the reloaded checkpoint) of
  evaluated samples per second.
- `failed_frac` is printed with them; it is `failed / attempted` of the
  result line, and is left out of the metrics because it is 0 whenever
  the program is correct.

`--trace 1` alternates untraced and traced workers and reports per-layer
self times and counts from the traced ones (`tracing.py`), plus
`trace.overhead_frac`, the traced over the untraced median `run_s`.

Output checks, all feeding `failed`: every worker exits cleanly with one
BLAS thread; losses and held-out scores are finite; on `train_aligned`
the last epoch's `train_align` is below the first's; the report of the
reloaded checkpoint equals, bit for bit, the final held-out evaluation
that training logged; every repeat of the seed in a run (traced or not)
writes byte-identical `metrics.jsonl`, `checkpoint.json` and
`report.json`; and a traced `train_dense` worker enters none of the
spans its workload bypasses.

The last line of stdout is the JSON result; the lines before it give the
run's context (cores, versions, load, CPU steal, a CPU-speed probe) and a
readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from worker import OPS  # noqa: E402

WORKLOADS = ("train_aligned", "train_dense")
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0      # the whole command must end within 180 s
# spans a workload must never enter; the traced run checks them
BYPASSED = {
    "train_dense": ["adapters.qmoe_weights", "adapters.qmoe_apply",
                    "adapters.kmoe_gate_weights", "adapters.kmoe_apply",
                    "autodiff.lowrank_mix_apply", "autodiff.lowrank_rows_apply",
                    "autodiff.mlp_two_layer", "attention.select_heads",
                    "attention.refined_map", "training.alignment_loss",
                    "training.compute_weak_labels"],
}
LAYERS = ("autodiff", "adapters", "model", "attention", "weaklabels", "data",
          "training", "metrics")

# per-layer self time per operation (a training or evaluated sample)
SELF_MS_PER_OP = {
    "autodiff.backward_ms": ["autodiff.backward"],
    "autodiff.linear_with_lora_ms": ["autodiff.linear_with_lora"],
    "autodiff.layer_norm_rows_ms": ["autodiff.layer_norm_rows"],
    "autodiff.softmax_heads_ms": ["autodiff.softmax_heads"],
    "autodiff.gelu_ms": ["autodiff.gelu"],
    "autodiff.bmm_ms": ["autodiff.bmm"],
    "autodiff.lowrank_rows_apply_ms": ["autodiff.lowrank_rows_apply"],
    "autodiff.lowrank_mix_apply_ms": ["autodiff.lowrank_mix_apply"],
    "autodiff.mlp_two_layer_ms": ["autodiff.mlp_two_layer"],
    "model.forward_ms": ["model.forward"],
    "model.generate_ms": ["model.generate"],
    "adapters.qmoe_weights_ms": ["adapters.qmoe_weights"],
    "adapters.qmoe_apply_ms": ["adapters.qmoe_apply"],
    "adapters.kmoe_gate_weights_ms": ["adapters.kmoe_gate_weights"],
    "adapters.kmoe_apply_ms": ["adapters.kmoe_apply"],
    "attention.select_heads_ms": ["attention.all_visual_ratios",
                                  "attention.select_heads"],
    "attention.refined_map_ms": ["attention.extract_visual_view",
                                 "attention.refined_map"],
    "attention.generated_map_ms": ["attention.generated_query_mean_map"],
    "training.alignment_loss_ms": ["training.alignment_loss"],
    "training.lm_loss_ms": ["training.lm_loss"],
    "training.total_loss_ms": ["training.total_loss"],
    "metrics.evaluate_ms": ["metrics.evaluate"],
    "metrics.score_ms": ["metrics.coverage_score", "metrics.intensity_alignment"],
}
# inclusive time per worker of the set-up and save phases
INCL_MS_PER_RUN = {
    "data.generate_ms": ["data.generate_dataset"],
    "data.read_ms": ["data.read_samples"],
    "weaklabels.compute_ms": ["training.compute_weak_labels"],
    "model.checkpoint_load_ms": ["model.checkpoint_load"],
    "model.checkpoint_save_ms": ["model.checkpoint_save"],
}
# calls per worker, which show the bypasses each workload relies on
CALLS_PER_RUN = {
    "autodiff.backward_calls": "autodiff.backward",
    "training.adamw_step_calls": "training.adamw_step",
    "adapters.qmoe_weights_calls": "adapters.qmoe_weights",
    "adapters.qmoe_apply_calls": "adapters.qmoe_apply",
    "adapters.kmoe_gate_weights_calls": "adapters.kmoe_gate_weights",
    "adapters.kmoe_apply_calls": "adapters.kmoe_apply",
    "attention.select_heads_calls": "attention.select_heads",
    "attention.refined_map_calls": "attention.refined_map",
}


def cpu_steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, root: Path, work: Path, job: str, seed: int):
        self.root = root
        self.work = work
        self.job = job
        self.seed = seed
        self.env = worker_env(root)
        self.count = 0

    def run(self, trace: bool) -> dict:
        """Start one worker, wait for it, and return its result record."""
        self.count += 1
        out = self.work / f"w{self.count:03d}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--job", self.job,
               "--seed", str(self.seed), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        with open(out / "stderr.txt", "w") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            exit_t = time.monotonic()
        try:
            rec = json.loads((out / "result.json").read_text())
        except (OSError, ValueError):
            rec = {"job": self.job, "ops": OPS,
                   "error": (out / "stderr.txt").read_text()[-2000:]
                   or f"worker exited {code} without a result"}
        rec.update(name=out.name, trace=trace, code=code, run_s=exit_t - spawn)
        if "first_unit" in rec:
            rec["setup_s"] = rec["first_unit"] - spawn
        if trace and (out / "spans.json").exists():
            rec["spans"] = tracing.reduce_spans(
                json.loads((out / "spans.json").read_text()))
        return rec


# ---------------------------------------------------------------------------
# output checks


def finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def worker_problems(rec: dict) -> list[str]:
    """Reasons this worker's operations count as failed."""
    if "error" in rec:
        return ["raised: " + rec["error"].strip().splitlines()[-1]]
    problems = []
    if rec["code"] != 0:
        problems.append(f"exit code {rec['code']}")
    if rec.get("blas_threads") != 1:
        problems.append(f"OpenBLAS threads {rec.get('blas_threads')}, need 1")
    entered = [n for n in BYPASSED.get(rec["job"], []) if n in rec.get("spans", {})]
    if entered:
        problems.append(f"entered spans its workload bypasses: {entered}")
    logs = rec["epoch_logs"]
    for log in logs:
        if not finite(v for k, v in log.items() if k != "epoch"):
            problems.append(f"non-finite loss or score in epoch {log['epoch']}")
    if rec["job"] == "train_aligned" and not logs[-1]["train_align"] < logs[0]["train_align"]:
        problems.append(f"train_align did not fall: first {logs[0]['train_align']!r}, "
                        f"last {logs[-1]['train_align']!r}")
    for key in ("coverage", "intensity", "accuracy"):
        if rec["aggregates"][key] != logs[-1][key]:
            problems.append(f"reloaded checkpoint's {key} {rec['aggregates'][key]!r} "
                            f"!= final held-out {key} {logs[-1][key]!r}")
    return problems


def check(workers: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the run's workers."""
    attempted = sum(r["ops"] for r in workers)
    problems = []
    failed = 0
    for r in workers:
        mine = worker_problems(r)
        if mine:
            failed += r["ops"]
            problems.extend(f"{r['name']}: {p}" for p in mine)
    digests = {json.dumps(r.get("digests"), sort_keys=True) for r in workers}
    if len(digests) > 1:
        problems.append(f"repeats of the seed disagree: {len(digests)} distinct "
                        "output digests")
        failed = attempted
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def median_rate(units: list[list[float]]) -> float:
    """Median samples per second over (samples, seconds) units."""
    return median([n / t for n, t in units])


def end_to_end(workers: list[dict]) -> dict:
    ok = [r for r in workers if "error" not in r]
    if not ok:
        return {}
    return {
        "train_samples_per_s": (median_rate([u for r in ok for u in r["epochs"]]), "1/s"),
        "eval_samples_per_s": (median_rate([u for r in ok for u in r["eval_calls"]]), "1/s"),
        "run_s": (median([r["run_s"] for r in ok]), "s"),
        "peak_rss_mb": (median([r["maxrss_kb"] / 1024.0 for r in ok]), "MiB"),
        "setup_s": (median([r["setup_s"] for r in ok]), "s"),
    }


def unit_summary(workers: list[dict]) -> str:
    """Readable counts behind the medians."""
    ok = [r for r in workers if "error" not in r]
    return (f"workers: {len(ok)} ok of {len(workers)}; "
            f"epochs: {sum(len(r['epochs']) for r in ok)}; "
            f"evaluate calls: {sum(len(r['eval_calls']) for r in ok)}")


def cpu_probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop: the machine's speed now."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    traced = [r for r in traced if "error" not in r and "spans" in r]
    plain = [r for r in plain if "error" not in r]
    if not traced or not plain:
        return {}
    stats: dict[str, dict] = {}
    for r in traced:
        for name, e in r["spans"].items():
            acc = stats.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += e[key]
    n_runs = len(traced)
    ops = sum(r["ops"] for r in traced)

    def total(names, key):
        return sum(stats.get(n, {}).get(key, 0) for n in names)

    out = {}
    for metric, names in SELF_MS_PER_OP.items():
        out[metric] = (total(names, "self_ns") / 1e6 / ops, "ms/sample")
    named = {n for names in SELF_MS_PER_OP.values() for n in names}
    op_spans = [n for n in stats if n.startswith("autodiff.") and n != "autodiff.backward"]
    out["autodiff.other_ops_ms"] = (
        total([n for n in op_spans if n not in named], "self_ns") / 1e6 / ops,
        "ms/sample")
    out["autodiff.op_calls"] = (total(op_spans, "calls") / ops, "calls/sample")
    steps = total(["training.adamw_step"], "calls")
    out["training.adamw_step_ms"] = (
        total(["training.adamw_step"], "self_ns") / 1e6 / steps if steps else 0.0,
        "ms/batch")
    for metric, names in INCL_MS_PER_RUN.items():
        out[metric] = (total(names, "incl_ns") / 1e6 / n_runs, "ms/run")
    for metric, name in CALLS_PER_RUN.items():
        out[metric] = (total([name], "calls") / n_runs, "calls/run")
    pairs = sum(r["trace_counters"].get("kmoe_pairs", 0) for r in traced)
    kept = sum(r["trace_counters"].get("kmoe_kept", 0) for r in traced)
    out["adapters.kmoe_kept_frac"] = (kept / pairs if pairs else 0.0, "fraction")
    out["adapters.tensors"] = (median([r["adapter_tensors"] for r in traced]), "count")
    out["adapters.scalars"] = (median([r["adapter_scalars"] for r in traced]), "count")
    out["model.checkpoint_bytes"] = (median([r["checkpoint_bytes"] for r in traced]),
                                     "bytes")
    for layer in LAYERS:
        out[f"{layer}.failed"] = (sum(r["trace_failed"].get(layer, 0) for r in traced),
                                  "count")
    out["trace.overhead_frac"] = (median([r["run_s"] for r in traced])
                                  / median([r["run_s"] for r in plain]), "ratio")
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "attnalign" / "__init__.py").is_file():
        print(f"error: {root} holds no src/attnalign; run from a checkout root",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    steal0, load0, probe0 = cpu_steal_ticks(), os.getloadavg(), cpu_probe_ms()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=root / ".perfbench_work"))
    try:
        runner = Runner(root, work, args.workload, args.seed)
        # the traced run alternates untraced and traced workers
        min_workers = 2 if args.trace else MIN_WORKERS
        workers: list[dict] = []
        longest = 0.0
        while len(workers) < min_workers or time.monotonic() - started < args.seconds:
            if workers and time.monotonic() - started + 1.5 * longest > RUN_BUDGET_S:
                break
            rec = runner.run(trace=bool(args.trace) and len(workers) % 2 == 1)
            longest = max(longest, rec["run_s"])
            workers.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted, failed, problems = check(workers)
    plain = [r for r in workers if not r["trace"]]
    if args.trace:
        metrics = per_layer([r for r in workers if r["trace"]], plain)
    else:
        metrics = end_to_end(plain)
    steal1 = cpu_steal_ticks()
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": sorted({r["numpy"] for r in workers if "numpy" in r}),
        "blas_threads": [r.get("blas_threads") for r in workers],
        "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "steal_s": ((steal1 - steal0) / os.sysconf("SC_CLK_TCK")
                    if steal0 is not None and steal1 is not None else None),
        "cpu_probe_ms_start": probe0, "cpu_probe_ms_end": cpu_probe_ms(),
        "workers": len(workers), "traced_workers": sum(r["trace"] for r in workers),
        "output_digests": sorted({json.dumps(r.get("digests"), sort_keys=True)
                                  for r in workers}),
        "wall_s": time.monotonic() - started,
    }
    print("context: " + json.dumps(context, sort_keys=True))
    if args.trace and args.workload in BYPASSED:
        print(f"bypassed spans checked: {', '.join(BYPASSED[args.workload])}")
    for p in problems:
        print(f"check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if not args.trace:
        print(unit_summary(workers))
        print(f"{'failed_frac':36s} {failed / attempted:14.6g} fraction "
              f"({failed}/{attempted} operations)")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
