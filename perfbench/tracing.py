"""Span tracing for the traced benchmark run, applied from outside the package.

`install` replaces the public functions of `attnalign` at the names the
program calls them through (module attributes and class attributes), so
the package itself stays untouched. Each call records one span, `[name,
start_ns, end_ns, parent]`, in memory; the worker writes them out when it
ends. The program is single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time

# autodiff functions that build no graph node
NOT_OPS = {"no_grad", "parameter", "finite_diff_check", "finite_diff_check_params"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.failed: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def wrap(self, name: str, fn, on_call=None):
        layer = name.split(".", 1)[0]
        spans, stack, failed = self.spans, self._stack, self.failed
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[layer] = failed.get(layer, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _public_functions(module):
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already-imported package."""
    from attnalign import attention, autodiff, data, metrics, model, training

    def patch(owner, attr, span_name, on_call=None):
        setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr), on_call))

    for name, _ in _public_functions(autodiff):
        if name not in NOT_OPS:
            patch(autodiff, name, f"autodiff.{name}")
    patch(autodiff.Tensor, "backward", "autodiff.backward")

    def count_kept(x, weights, bank):
        tracer.count("kmoe_pairs", weights.data.size)
        tracer.count("kmoe_kept", (weights.data != 0).sum())

    # model.py binds the adapter routines into its own namespace
    for name in ("qmoe_weights", "qmoe_apply", "kmoe_gate_weights"):
        patch(model, name, f"adapters.{name}")
    patch(model, "kmoe_apply", "adapters.kmoe_apply", count_kept)
    patch(model.VisualDecoder, "forward", "model.forward")
    patch(model.VisualDecoder, "generate_greedy", "model.generate")
    patch(model, "load_checkpoint", "model.checkpoint_load")

    for name, _ in _public_functions(attention):
        patch(attention, name, f"attention.{name}")

    for name in ("total_loss", "lm_loss", "alignment_loss", "compute_weak_labels"):
        patch(training, name, f"training.{name}")
    patch(training, "select_weak_labels", "weaklabels.select_weak_labels")
    patch(training, "save_checkpoint", "model.checkpoint_save")
    patch(training.AdamW, "step", "training.adamw_step")

    for name, _ in _public_functions(metrics):
        patch(metrics, name, f"metrics.{name}")
    for name, _ in _public_functions(data):
        patch(data, name, f"data.{name}")


def reduce_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, inclusive and self time in nanoseconds."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), inner in zip(spans, child_ns):
        entry = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["incl_ns"] += end - start
        entry["self_ns"] += end - start - inner
    return out
