"""A toy decoder transformer over a visual-token prefix.

Patch features are linearly projected into the token space and prefixed
to the embedded text; text positions use learned absolute encodings and
causal masking while every position may attend to all visual tokens.
The base model is frozen after random init and held as plain numpy
arrays: the embedding front is numpy, wrapped once in a constant tensor,
and the decoder's ops read the base weights as data, so all learning,
and every gradient, belongs to the adapters.

A forward pass returns the logits of the last rows its caller keeps
(all by default, like ``logits_to_keep`` in causal-LM inference code)
plus the per-layer, per-head attention stack. Every layer but the last
computes all rows, which become the next layer's keys and values; the
last computes its keys and values on every row and the rest, from the
queries to the LM head, on the kept suffix only. Readers index the kept
rows from the front (the logits) or the back (the planes), never by
sequence row. A ``no_grad`` pass may run a group of same-shape samples
at once, every array gaining a leading group axis; greedy decoding does
so and hands each sample views of the group's planes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .adapters import AdapterConfig, AdapterSet, kmoe_apply, kmoe_gate_weights, \
    qmoe_apply, qmoe_weights
from .attention import AttentionStack, Spans
from .autodiff import Tensor
from .errors import CapacityError, CompatibilityError, ShapeError, decode_floats, \
    encode_floats, read_json_lines, require_fields, require_header, stored_config

CHECKPOINT_SCHEMA = "attnalign-checkpoint-4"


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_visual: int = 16
    d_model: int = 64
    vocab_size: int = 64
    grid: int = 8
    max_text_len: int = 16

    def __post_init__(self):
        for name, value in vars(self).items():   # every field is a size
            if value <= 0:
                raise ShapeError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    @property
    def n_visual(self) -> int:
        return self.grid * self.grid

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model


@dataclass
class ForwardOutput:
    logits: Tensor                     # [m x V], the last m sequence rows
    attention: AttentionStack          # its last plane keeps the same rows


@dataclass
class GenerationResult:
    tokens: tuple[int, ...]
    stacks: list[AttentionStack]   # per step; each keeps only its last, emitting row


def sequence_mask(total: int, n_visual: int) -> np.ndarray:
    """True where key k is visible from query q: k visual, or k <= q."""
    k = np.arange(total)
    return (k[None, :] < n_visual) | (k[None, :] <= k[:, None])


class VisualDecoder:
    """Frozen-base decoder; adapters are passed per call."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config

        # the base stays frozen, standing in for a pretrained backbone, so
        # weights get inference-scale (1/sqrt fan-in) rather than training init
        def w(d_out, d_in):
            return rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))

        # smooth init for the frozen positional table, like a trained LM's;
        # uncorrelated random positions would decouple adjacent text rows
        t = np.arange(c.max_text_len)[:, None]
        freq = np.exp(-np.log(10000.0) * np.arange(0, c.d_model, 2) / c.d_model)
        pos = np.zeros((c.max_text_len, c.d_model))
        pos[:, 0::2] = np.sin(t * freq)
        pos[:, 1::2] = np.cos(t * freq[: c.d_model // 2])

        self.params: dict[str, np.ndarray] = {
            "w_align": rng.normal(0.0, 1.0 / np.sqrt(c.d_visual),
                                  size=(c.d_visual, c.d_model)),
            "b_align": np.zeros(c.d_model),
            "tok_emb": rng.normal(0.0, 1.0, size=(c.vocab_size, c.d_model)),
            "pos_emb": pos,
            "ln_f.g": np.ones(c.d_model),
            "ln_f.b": np.zeros(c.d_model),
            "w_out": w(c.vocab_size, c.d_model),
        }
        for l in range(c.n_layers):
            p = f"layer{l}."
            self.params[p + "ln1.g"] = np.ones(c.d_model)
            self.params[p + "ln1.b"] = np.zeros(c.d_model)
            self.params[p + "wq"] = w(c.d_model, c.d_model)
            self.params[p + "wk"] = w(c.d_model, c.d_model)
            self.params[p + "wv"] = w(c.d_model, c.d_model)
            self.params[p + "wo"] = w(c.d_model, c.d_model)
            self.params[p + "ln2.g"] = np.ones(c.d_model)
            self.params[p + "ln2.b"] = np.zeros(c.d_model)
            self.params[p + "ff1"] = w(c.d_ff, c.d_model)
            self.params[p + "ff2"] = w(c.d_model, c.d_ff)

    # -- pieces ------------------------------------------------------------

    def encode_and_project(self, features: np.ndarray) -> np.ndarray:
        """Patch features [(B x) N x d_visual], in row-major grid order, into
        token space: X w_align + b_align."""
        c = self.config
        if features.shape[-2:] != (c.n_visual, c.d_visual):
            raise ShapeError(
                f"visual features {features.shape} != ({c.n_visual}, {c.d_visual})")
        return features @ self.params["w_align"] + self.params["b_align"]

    def _embed_text(self, ids: np.ndarray) -> np.ndarray:
        """Token plus position embeddings of the text rows [(B x) T]."""
        c = self.config
        bad = ids[(ids < 0) | (ids >= c.vocab_size)]
        if bad.size:
            raise CompatibilityError(
                f"token {bad[0]} outside model vocabulary {c.vocab_size}")
        n = ids.shape[-1]
        if n > c.max_text_len:
            raise CapacityError(f"{n} text tokens exceed max_text_len={c.max_text_len}")
        return self.params["tok_emb"][ids] + self.params["pos_emb"][:n]

    # -- forward -----------------------------------------------------------

    def forward(self, features: np.ndarray, prompt: tuple[int, ...],
                answer: tuple[int, ...] = (),
                adapters: AdapterSet | None = None,
                keep_last: int | None = None) -> ForwardOutput:
        """Logits and attention of the last ``keep_last`` sequence rows, or of
        every row when it is None.

        One sample's [N x d_visual] features come with its prompt and answer
        tokens. Under ``no_grad``, a group's [B x N x d_visual] features may
        come with B prompts and B answers, each of one length; the logits
        and planes then carry the group axis first."""
        c = self.config
        if features.ndim > 2 and ad._grad_enabled:
            raise ShapeError(f"features {features.shape} hold a group of samples, "
                             f"which only a no_grad pass may run")
        prompt = np.asarray(prompt, dtype=np.intp)
        answer = np.asarray(answer, dtype=np.intp)
        if prompt.shape[:-1] != features.shape[:-2] \
                or answer.shape[:-1] != features.shape[:-2]:
            raise ShapeError(f"prompts {prompt.shape} and answers {answer.shape} "
                             f"do not fit features {features.shape}")
        if not prompt.shape[-1]:
            raise ShapeError("prompt must contain at least one token")
        spans = Spans(c.n_visual, prompt.shape[-1], answer.shape[-1])
        if keep_last is not None and not 1 <= keep_last <= spans.total:
            raise ShapeError(f"keep_last={keep_last} outside the "
                             f"{spans.total}-row sequence")

        # the frozen embedding front records nothing: one constant tensor
        text = np.concatenate([prompt, answer], axis=-1)
        x = Tensor(np.concatenate([self.encode_and_project(features),
                                   self._embed_text(text)], axis=-2))
        mask = sequence_mask(spans.total, c.n_visual)

        planes: list[Tensor] = []
        for l in range(c.n_layers):
            last = l == c.n_layers - 1
            x, att = self._layer(l, x, spans, mask, adapters,
                                 keep_last if last else None)
            planes.append(att)
        x = ad.layer_norm_rows(x, self.params["ln_f.g"], self.params["ln_f.b"])
        logits = ad.linear_with_lora(x, self.params["w_out"])
        return ForwardOutput(logits, AttentionStack(planes, spans))

    def _layer(self, l: int, x: Tensor, spans: Spans, mask: np.ndarray,
               adapters: AdapterSet | None, keep: int | None):
        """One decoder layer; with ``keep``, the rows it returns and the
        query rows of its plane are the last ``keep`` rows only."""
        c = self.config
        p = self.params
        pre = f"layer{l}."
        la = adapters.layers[l] if adapters is not None else None
        acfg = adapters.cfg if adapters is not None else None

        def lwl(inp, w, name):
            if la is None:
                return ad.linear_with_lora(inp, w)
            lora = getattr(la, name)
            return ad.linear_with_lora(inp, w, lora.A, lora.B)

        h = ad.layer_norm_rows(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        # keys and values need every row; queries and the rest only the kept
        hq = h if keep is None else ad.tail_rows(h, keep)

        q = lwl(hq, p[pre + "wq"], "lora_q")
        if la is not None and acfg.use_qmoe:
            alpha = qmoe_weights(x, spans.prompt_range, la.q_gate)
            q = ad.add(q, qmoe_apply(hq, alpha, la.q_bank))

        k = lwl(h, p[pre + "wk"], "lora_k")
        if la is not None and acfg.use_kmoe:
            weights = kmoe_gate_weights(x, c.n_visual, la.k_gate, acfg.top_b)
            # the delta first: the tape then sums the gradients into h in
            # the order the earlier slice-and-splice chain did
            k = ad.add(kmoe_apply(h, weights, la.k_bank), k)

        if keep is not None:
            mask = mask[-keep:]
            x = ad.tail_rows(x, keep)
        att = ad.attention_planes(q, k, c.n_heads, mask)
        merged = ad.attend(att, lwl(h, p[pre + "wv"], "lora_v"))
        out = lwl(merged, p[pre + "wo"], "lora_o")
        x = ad.add(x, out)

        h2 = ad.layer_norm_rows(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        f = lwl(h2, p[pre + "ff1"], "lora_ff1")
        f = lwl(ad.gelu(f), p[pre + "ff2"], "lora_ff2")
        x = ad.add(x, f)
        return x, att

    # -- inference ---------------------------------------------------------

    def generate_greedy(self, features: np.ndarray, prompts: Sequence[Sequence[int]],
                        max_len: int,
                        adapters: AdapterSet | None = None) -> list[GenerationResult]:
        """``max_len`` greedy tokens for each of a group of samples, all in
        one forward per step: [B x N x d_visual] features and B prompts of
        one length. Sample i's stacks hold views of the group's planes."""
        if max_len < 1:
            raise CapacityError(f"max_len must be >= 1, got {max_len}")
        if len({len(p) for p in prompts}) != 1:
            raise ShapeError(f"prompts of lengths {[len(p) for p in prompts]} "
                             f"cannot share a forward pass")
        prompts = np.asarray(prompts, dtype=np.intp)
        generated = np.zeros((len(prompts), 0), dtype=np.intp)
        stacks: list[list[AttentionStack]] = [[] for _ in prompts]
        with ad.no_grad():
            for _ in range(max_len):
                # only the last row emits, so only it is computed in full
                out = self.forward(features, prompts, generated, adapters,
                                   keep_last=1)
                nxt = np.argmax(out.logits.data[:, 0], axis=-1)
                for i, steps in enumerate(stacks):
                    steps.append(AttentionStack(
                        [Tensor(p.data[i]) for p in out.attention.planes],
                        out.attention.spans))
                generated = np.concatenate([generated, nxt[:, None]], axis=1)
        return [GenerationResult(tokens=tuple(int(t) for t in tokens), stacks=steps)
                for tokens, steps in zip(generated, stacks)]


# ---------------------------------------------------------------------------
# checkpoint round trip: a JSON-lines file of a header line, then one line
# per tensor, written and read a line at a time


# the sections of a checkpoint's header besides its schema, with their types
CHECKPOINT_SECTIONS = {"model_config": dict, "adapter_config": dict, "extra": dict}
TENSOR_KEYS = {"name": str, "shape": list[int], "data": str}


def _tensors(model: VisualDecoder, adapters: AdapterSet) -> dict:
    """Every array a checkpoint stores, by name, in the order of its lines:
    the base's sorted by name, then the adapters' in ``params()`` order."""
    out = dict(sorted(model.params.items()))
    out.update((name, t.data) for name, t in adapters.params())
    return out


def save_checkpoint(path: str | Path, model: VisualDecoder, adapters: AdapterSet,
                    extra: dict | None = None) -> None:
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "model_config": asdict(model.config),
        "adapter_config": asdict(adapters.cfg),
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for name, a in _tensors(model, adapters).items():
            fh.write(json.dumps({"name": name, "shape": list(a.shape),
                                 "data": encode_floats(a)}))
            fh.write("\n")   # apart, so the line is not copied once more


def load_checkpoint(path: str | Path) -> tuple[VisualDecoder, AdapterSet, dict]:
    lines = read_json_lines(path)
    first = next(lines, None)
    if first is None:
        raise CompatibilityError(f"checkpoint {path} is empty")
    header, at = first
    require_header(header, CHECKPOINT_SCHEMA, "checkpoint", CHECKPOINT_SECTIONS, at)
    section = "section {!r} of checkpoint " + at
    config = stored_config(ModelConfig, header["model_config"],
                           section.format("model_config"))
    model = VisualDecoder(config)
    adapters = AdapterSet(config.n_layers, config.d_model, config.d_ff,
                          stored_config(AdapterConfig, header["adapter_config"],
                                        section.format("adapter_config")))
    tensors = dict(adapters.params())
    # the shape of each tensor no line has held yet
    todo = {name: a.shape for name, a in _tensors(model, adapters).items()}
    for doc, at in lines:
        where = "checkpoint " + at
        require_fields(doc, TENSOR_KEYS, where)
        name = doc["name"]
        if name not in todo:
            state = "repeated" if name in model.params or name in tensors \
                else "unexpected"
            raise CompatibilityError(f"tensor {name!r} {state} in {where}")
        shape = todo.pop(name)
        tensor = f"tensor {name!r} of {where}"
        if tuple(doc["shape"]) != shape:
            raise CompatibilityError(f"{tensor} has shape {doc['shape']}, "
                                     f"model needs {list(shape)}")
        data = decode_floats(doc["data"], shape, tensor)
        if name in tensors:
            tensors[name].data = data
        else:
            model.params[name] = data
    if todo:
        raise CompatibilityError(
            f"tensor {next(iter(todo))!r} missing from checkpoint {path}")
    return model, adapters, header["extra"]
