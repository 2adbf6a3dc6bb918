"""Synthetic planted-RoI visual question answering task.

Each sample is a patch grid carrying a few disjoint rectangular
segments. Every segment encodes a concept and a label in dedicated
feature channels, the only place they are kept; the prompt asks for one
concept and the answer is the label token planted in that concept's
segment. Distractor segments carry conflicting labels, so the answer is
only recoverable by reading the queried segment's patches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CompatibilityError, GenerationError, decode_floats, \
    encode_floats, read_document, read_json_lines, require_fields, stored_config
from .weaklabels import Segment

DATASET_SCHEMA = "attnalign-dataset-4"

# concept channels dominate so prompt-segment cosine ranks the queried
# segment first even with label mass and feature noise present
CONCEPT_SCALE = 3.0
LABEL_SCALE = 1.0


@dataclass(frozen=True)
class DataSpec:
    """Everything that defines a dataset; the token layout and the concept
    signatures are derived from it, never stored."""

    n_train: int = 2000
    n_test: int = 500
    grid: int = 8
    d_visual: int = 16
    n_concepts: int = 4
    n_segments: int = 3
    n_labels: int = 4
    seg_side_min: int = 2
    seg_side_max: int = 2
    feature_noise: float = 0.1
    n_background_segments: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, low in dict(seed=0, feature_noise=0, n_train=0, n_test=0,
                              n_background_segments=0, grid=1).items():
            if not getattr(self, name) >= low:
                raise GenerationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not np.isfinite(self.feature_noise):
            raise GenerationError(f"feature_noise must be finite, got {self.feature_noise}")
        if self.n_segments < 1 or not 1 <= self.seg_side_min <= self.seg_side_max:
            raise GenerationError("need n_segments >= 1 and "
                                  "1 <= seg_side_min <= seg_side_max")
        if self.n_concepts < 2:
            raise GenerationError("need at least 2 concepts")
        if self.n_segments > self.n_concepts:
            raise GenerationError("more segments than concepts")
        if self.n_segments > self.n_labels:
            raise GenerationError("more segments than labels")
        if self.d_visual < self.n_concepts + self.n_labels:
            raise GenerationError(
                f"d_visual={self.d_visual} too small for "
                f"{self.n_concepts} concepts + {self.n_labels} labels"
            )
        worst = self.n_segments * self.seg_side_max ** 2
        if worst >= self.grid * self.grid / 2:
            raise GenerationError(
                f"segments could cover {worst} of {self.grid * self.grid} patches; "
                "must stay under half"
            )

    # the vocabulary holds the label tokens, then the concepts', then ask
    def label_token(self, label: int) -> int:
        return label

    @property
    def concept_base(self) -> int:
        return self.n_labels

    def concept_token(self, concept: int) -> int:
        return self.concept_base + concept

    @property
    def ask_token(self) -> int:
        return self.n_labels + self.n_concepts

    @property
    def concept_vectors(self) -> np.ndarray:
        """[n_concepts x d_visual] channel signatures: concept c is channel c."""
        return np.eye(self.n_concepts, self.d_visual)

    def check_samples(self, samples: Sequence[SyntheticSample],
                      source: str | Path, meta: str) -> None:
        """Sample n of ``source``, its line n, must be one that this spec,
        which ``meta`` names, generates: of its grid and feature width, an
        ask for one of its concepts, answered by one of its labels."""
        allowed = {"grid": {self.grid}, "feature width": {self.d_visual},
                   "prompt": {(self.ask_token, self.concept_token(c))
                              for c in range(self.n_concepts)},
                   "answer": {(self.label_token(i),) for i in range(self.n_labels)}}
        for n, s in enumerate(samples, start=1):
            got = {"grid": s.grid, "feature width": s.features.shape[1],
                   "prompt": s.prompt, "answer": s.answer}
            if bad := [part for part in allowed if got[part] not in allowed[part]]:
                raise CompatibilityError(
                    f"{source} line {n} does not fit {meta}: its {bad[0]} is "
                    f"{got[bad[0]]}, not one of {sorted(allowed[bad[0]])}")


@dataclass
class SyntheticSample:
    id: str
    grid: int
    features: np.ndarray               # [N x d_visual]
    segments: tuple[tuple[int, ...], ...]   # the planted patches; one is the RoI
    prompt: tuple[int, ...]
    answer: tuple[int, ...]
    roi: tuple[int, ...]


def _place_rectangles(rng: np.random.Generator, spec: DataSpec) -> list[tuple[int, ...]]:
    """Disjoint rectangles as token-index tuples; raises when packing fails."""
    g = spec.grid
    occupied = np.zeros((g, g), dtype=bool)
    rects = []
    for _ in range(spec.n_segments):
        placed = False
        for _attempt in range(200):
            w = int(rng.integers(spec.seg_side_min, spec.seg_side_max + 1))
            h = int(rng.integers(spec.seg_side_min, spec.seg_side_max + 1))
            x0 = int(rng.integers(0, g - w + 1))
            y0 = int(rng.integers(0, g - h + 1))
            if occupied[y0:y0 + h, x0:x0 + w].any():
                continue
            occupied[y0:y0 + h, x0:x0 + w] = True
            rects.append(tuple(y * g + x
                               for y in range(y0, y0 + h)
                               for x in range(x0, x0 + w)))
            placed = True
            break
        if not placed:
            raise GenerationError("could not place disjoint segments")
    return rects


def _make_sample(idx: int, prefix: str, rng: np.random.Generator,
                 spec: DataSpec) -> SyntheticSample:
    n = spec.grid * spec.grid
    rects = _place_rectangles(rng, spec)
    concepts = rng.permutation(spec.n_concepts)[: spec.n_segments]
    labels = rng.permutation(spec.n_labels)[: spec.n_segments]
    queried_slot = int(rng.integers(0, spec.n_segments))

    features = rng.normal(0.0, spec.feature_noise, size=(n, spec.d_visual))
    for tokens, concept, label in zip(rects, concepts, labels):
        features[list(tokens), concept] += CONCEPT_SCALE
        features[list(tokens), spec.n_concepts + label] += LABEL_SCALE
    return SyntheticSample(
        id=f"{prefix}{idx:06d}", grid=spec.grid, features=features,
        segments=tuple(rects), roi=rects[queried_slot],
        prompt=(spec.ask_token, spec.concept_token(int(concepts[queried_slot]))),
        answer=(spec.label_token(int(labels[queried_slot])),))


def generate_dataset(spec: DataSpec) -> tuple[list[SyntheticSample],
                                              list[SyntheticSample], DataSpec]:
    """Deterministic train/test split, plus the spec that describes it."""
    rng = np.random.default_rng(spec.seed)
    train = [_make_sample(i, "tr", rng, spec) for i in range(spec.n_train)]
    test = [_make_sample(i, "te", rng, spec) for i in range(spec.n_test)]
    return train, test, spec


# ---------------------------------------------------------------------------
# candidate proposal for the weak-label pipeline


BACKGROUND_SIDE = 2


def propose_segments(sample: SyntheticSample, n_background: int) -> list[Segment]:
    """The planted segments plus ``n_background`` deterministic background squares.

    Background squares avoid the planted tokens, mimicking a proposer
    that respects region boundaries; partial overlaps would otherwise
    inherit concept signal from the planted region.
    """
    out = [Segment(id=f"seg{i}", token_indices=s)
           for i, s in enumerate(sample.segments)]
    planted = set().union(*sample.segments)
    # stable across processes, unlike the builtin string hash
    digest = hashlib.sha256(("bg:" + sample.id).encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    g, side = sample.grid, BACKGROUND_SIDE
    placed = 0
    for _ in range(50 * n_background):
        if placed >= n_background:
            break
        x0 = int(rng.integers(0, g - side + 1))
        y0 = int(rng.integers(0, g - side + 1))
        tokens = tuple(y * g + x
                       for y in range(y0, y0 + side)
                       for x in range(x0, x0 + side))
        if planted.intersection(tokens):
            continue
        out.append(Segment(id=f"bg{placed}", token_indices=tokens))
        placed += 1
    return out


# ---------------------------------------------------------------------------
# file round trips (JSON-lines samples, JSON meta)


# the keys of a sample line, with their types
SAMPLE_KEYS = {"id": str, "grid": int, "d_visual": int, "prompt": list[int],
               "answer": list[int], "roi": list[int],
               "segments": list[list[int]], "features_b64": str}


def _sample_to_dict(sample: SyntheticSample) -> dict:
    return {
        "id": sample.id,
        "grid": sample.grid,
        "d_visual": sample.features.shape[1],
        "prompt": list(sample.prompt),
        "answer": list(sample.answer),
        "roi": list(sample.roi),
        "segments": [list(s) for s in sample.segments],
        "features_b64": encode_floats(sample.features),
    }


def _sample_from_dict(doc: dict, where: str) -> SyntheticSample:
    """The sample of one JSON line; ``where`` names the file and the line.
    The line must hold exactly the keys that ``_sample_to_dict`` writes,
    with values of their types."""
    require_fields(doc, SAMPLE_KEYS, where)
    g = doc["grid"]
    return SyntheticSample(
        id=doc["id"], grid=g,
        features=decode_floats(doc["features_b64"], (g * g, doc["d_visual"]),
                               f"key 'features_b64' of {where}"),
        segments=tuple(tuple(s) for s in doc["segments"]),
        prompt=tuple(doc["prompt"]), answer=tuple(doc["answer"]),
        roi=tuple(doc["roi"]))


def write_samples(path: str | Path, samples: Sequence[SyntheticSample]) -> None:
    with open(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps(_sample_to_dict(s), sort_keys=True) + "\n")


def read_samples(path: str | Path) -> list[SyntheticSample]:
    return [_sample_from_dict(doc, where) for doc, where in read_json_lines(path)]


def write_meta(path: str | Path, spec: DataSpec) -> None:
    doc = {"schema": DATASET_SCHEMA, "spec": asdict(spec)}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_meta(path: str | Path) -> DataSpec:
    """The spec of a meta.json, held to the rules of a checkpoint: the
    current schema, exactly its sections and fields, and a valid spec."""
    doc, where = read_document(path, DATASET_SCHEMA, "dataset meta",
                               {"spec": dict})
    return stored_config(DataSpec, doc["spec"], f"section 'spec' of {where}")
