"""Prompt-aware weak-label selection over candidate segments.

Candidate segments (the planted segments plus background distractors,
see ``data.propose_segments``) get embedded next to the prompt by a
backend, and the K most prompt-similar ones survive an adaptive
threshold (the K-th order statistic, ties broken by ascending segment
id). A synthetic oracle backend stands in for real segment/text
encoders so the whole pipeline is verifiable at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BackendError, CompatibilityError, DegenerateEmbeddingError, \
    ParameterError, read_json_lines, require_fields


@dataclass(frozen=True)
class Segment:
    """A candidate region as a set of visual-token (patch) indices."""

    id: str
    token_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.token_indices))
        if not idx:
            raise ParameterError(f"segment {self.id!r} has no tokens")
        if len(set(idx)) != len(idx) or idx[0] < 0:
            raise ParameterError(f"segment {self.id!r} has bad token indices")
        object.__setattr__(self, "token_indices", idx)


@dataclass
class WeakLabelSet:
    """Selected segments with their similarities and the threshold used."""

    segments: tuple[Segment, ...]
    similarities: dict[str, float]
    tau: float
    k: int

    def token_sets(self) -> list[tuple[int, ...]]:
        return [s.token_indices for s in self.segments]


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateEmbeddingError("cosine similarity of a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def select_weak_labels(candidates: Sequence[Segment], prompt: Sequence[int],
                       image: np.ndarray, backend, k: int) -> WeakLabelSet:
    """Keep the k most prompt-similar candidates.

    ``backend`` embeds the prompt (``embed_prompt``) and each candidate
    (``embed_segment``); a segment it fails on is named in a BackendError.

    The adaptive threshold is the k-th largest similarity; ties at the
    threshold are resolved by ascending segment id so exactly
    min(k, len(candidates)) survive, independent of input order.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not candidates:
        raise ParameterError("no candidate segments")
    ids = [s.id for s in candidates]
    if len(set(ids)) != len(ids):
        raise ParameterError("candidate segment ids must be unique")

    prompt_vec = backend.embed_prompt(prompt)
    sims: dict[str, float] = {}
    for seg in candidates:
        try:
            sims[seg.id] = cosine_sim(backend.embed_segment(seg, image), prompt_vec)
        except Exception as exc:  # noqa: BLE001 - contract: carry the segment id
            raise BackendError(f"backend failed on segment {seg.id!r}: {exc}") from exc

    ranked = sorted(candidates, key=lambda s: (-sims[s.id], s.id))
    chosen = ranked[: min(k, len(ranked))]
    tau = sims[chosen[-1].id]
    return WeakLabelSet(segments=tuple(chosen), similarities=sims, tau=tau, k=k)


class SyntheticOracleBackend:
    """Noise-controlled stand-in for real segment/text encoders.

    Segments embed as the mean feature vector of their patches plus
    noise * N(0, 1); prompts embed as the channel signature of the
    queried concept. Noise is a deterministic function of the inputs and
    the backend seed, which is >= 0 like a training seed.
    """

    def __init__(self, concept_vectors: np.ndarray, concept_token_base: int,
                 noise: float = 0.0, seed: int = 0):
        if not noise >= 0:
            raise ParameterError(f"noise must be >= 0, got {noise}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.concept_vectors = np.asarray(concept_vectors, dtype=np.float64)
        self.concept_token_base = int(concept_token_base)
        self.noise = float(noise)
        self.seed = int(seed)

    @property
    def backend_id(self) -> str:
        return f"synthetic-oracle(noise={self.noise},seed={self.seed})"

    def embed_segment(self, segment: Segment, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        vec = image[list(segment.token_indices)].mean(axis=0)
        if self.noise > 0:   # drawn from a hash of the seed and the inputs
            digest = hashlib.sha256(b"".join([
                str(self.seed).encode(), segment.id.encode(),
                np.asarray(segment.token_indices).tobytes(), image.tobytes()])).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            vec = vec + self.noise * rng.normal(size=vec.shape)
        return vec

    def embed_prompt(self, prompt_tokens: Sequence[int]) -> np.ndarray:
        for tok in prompt_tokens:
            c = int(tok) - self.concept_token_base
            if 0 <= c < self.concept_vectors.shape[0]:
                return self.concept_vectors[c].copy()
        raise BackendError(f"prompt {tuple(prompt_tokens)} names no known concept")


# ---------------------------------------------------------------------------
# cache file: one JSON record per (image, prompt, K, backend)

def save_weak_label_cache(path: str | Path, records: Sequence[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_weak_label_cache(path: str | Path, n_visual: int) -> dict[tuple, WeakLabelSet]:
    """The weak labels of a cache file by (image, prompt, K, backend). Each
    line must hold exactly the keys that ``weak_labels_to_record`` writes,
    with values of their types, and a nonempty weak-label set whose tokens
    lie in the model's map of ``n_visual`` visual tokens."""
    out = {}
    for rec, where in read_json_lines(path):
        require_fields(rec, {"image_id": str, "prompt_id": str, "K": int,
                             "backend": str, "segments": list, "tau_K": float},
                       where)
        for i, seg in enumerate(rec["segments"]):
            require_fields(seg, {"id": str, "token_indices": list[int],
                                 "similarity": float}, f"{where} segment {i}")
        if not rec["segments"]:
            raise CompatibilityError(f"key 'segments' of {where} is [], not a "
                                     "nonempty list")
        try:
            segments = tuple(Segment(e["id"], tuple(e["token_indices"]))
                             for e in rec["segments"])
        except ParameterError as exc:
            raise CompatibilityError(f"{where}: {exc}") from None
        for s in segments:
            if s.token_indices[-1] >= n_visual:
                raise CompatibilityError(
                    f"{where}: segment {s.id!r} has token {s.token_indices[-1]} "
                    f"outside the map of {n_visual} visual tokens")
        sims = {e["id"]: float(e["similarity"]) for e in rec["segments"]}
        key = (rec["image_id"], rec["prompt_id"], rec["K"], rec["backend"])
        out[key] = WeakLabelSet(segments, sims, float(rec["tau_K"]), rec["K"])
    return out


def weak_labels_to_record(image_id: str, prompt_id: str, labels: WeakLabelSet,
                          backend_id: str) -> dict:
    return {
        "image_id": image_id,
        "prompt_id": prompt_id,
        "K": labels.k,
        "backend": backend_id,
        "segments": [
            {"id": s.id, "token_indices": list(s.token_indices),
             "similarity": labels.similarities[s.id]}
            for s in labels.segments
        ],
        "tau_K": labels.tau,
    }

