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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BackendError, DegenerateEmbeddingError, ParameterError


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


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            raise DegenerateEmbeddingError("cosine similarity of a zero vector")
        dot, norms = np.dot(u, v), nu * nv
    if not (math.isfinite(dot) and math.isfinite(norms)):
        raise DegenerateEmbeddingError(
            "cosine similarity of vectors whose dot product or norms are not "
            "finite")
    return float(dot / norms)


def select_weak_labels(candidates: Sequence[Segment], prompt: Sequence[int],
                       image: np.ndarray, backend, k: int) -> tuple[Segment, ...]:
    """The k most prompt-similar candidates, most similar first.

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
    return tuple(ranked[:k])


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
        if not math.isfinite(noise):
            raise ParameterError(f"noise must be finite, got {noise}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.concept_vectors = np.asarray(concept_vectors, dtype=np.float64)
        self.concept_token_base = int(concept_token_base)
        self.noise = float(noise)
        self.seed = int(seed)

    def embed_segment(self, segment: Segment, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        vec = image[list(segment.token_indices)].mean(axis=0)
        if self.noise > 0:   # drawn from a hash of the seed and the inputs
            digest = hashlib.sha256(b"".join([
                str(self.seed).encode(), segment.id.encode(),
                np.asarray(segment.token_indices).tobytes(), image.tobytes()])).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            with np.errstate(over="ignore"):   # cosine_sim refuses an inf
                vec = vec + self.noise * rng.normal(size=vec.shape)
        return vec

    def embed_prompt(self, prompt_tokens: Sequence[int]) -> np.ndarray:
        for tok in prompt_tokens:
            c = int(tok) - self.concept_token_base
            if 0 <= c < self.concept_vectors.shape[0]:
                return self.concept_vectors[c].copy()
        raise BackendError(f"prompt {tuple(prompt_tokens)} names no known concept")
