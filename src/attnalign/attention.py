"""Head statistics, refined and generated visual maps, heatmap export.

One forward pass yields an AttentionStack of L*H row-stochastic maps
over the full sequence. We rank heads by the share of attention their
text queries put on visual keys, then carve the text-query x visual-key
submatrices of the top-R heads only and fold them into the refined map
that the alignment loss consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateRatioError, ParameterError, SelectionError


@dataclass(frozen=True)
class Spans:
    """Index ranges of the [visual | prompt | answer] sequence layout."""

    n_visual: int
    n_prompt: int
    n_answer: int

    @property
    def total(self) -> int:
        return self.n_visual + self.n_prompt + self.n_answer

    @property
    def prompt_range(self) -> range:
        return range(self.n_visual, self.n_visual + self.n_prompt)

    @property
    def answer_range(self) -> range:
        return range(self.n_visual + self.n_prompt, self.total)

    @property
    def text_range(self) -> range:
        return range(self.n_visual, self.total)


@dataclass
class AttentionStack:
    """Per-layer [H x S x S] attention planes from one forward pass."""

    planes: list[Tensor]
    spans: Spans

    @property
    def n_layers(self) -> int:
        return len(self.planes)

    @property
    def n_heads(self) -> int:
        return self.planes[0].shape[0]


@dataclass
class HeadSelection:
    """Top-R head indicator over the L x H grid."""

    ratios: np.ndarray
    selected: np.ndarray
    top_r: int

    def pairs(self) -> list[tuple[int, int]]:
        return [tuple(p) for p in np.argwhere(self.selected)]


def answer_query_rows(spans: Spans) -> tuple[int, ...]:
    """Query rows used during teacher-forced training: the answer positions."""
    return tuple(spans.answer_range)


def all_visual_ratios(stack: AttentionStack,
                      query_rows: Sequence[int]) -> np.ndarray:
    """The [L x H] grid of visual attention ratios (vectorized)."""
    rows = list(query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    spans = stack.spans
    out = np.empty((stack.n_layers, stack.n_heads))
    for l, plane in enumerate(stack.planes):
        sub = plane.data[:, rows, :]
        vis = sub[:, :, : spans.n_visual].sum(axis=(1, 2))
        prm = sub[:, :, spans.n_visual: spans.n_visual + spans.n_prompt].sum(axis=(1, 2))
        denom = vis + prm
        if (denom == 0.0).any():
            bad = int(np.flatnonzero(denom == 0.0)[0])
            raise DegenerateRatioError(
                f"head ({l},{bad}) has zero visual+prompt mass on rows {rows}"
            )
        out[l] = vis / denom
    return out


def select_heads(ratios: np.ndarray, top_r: int) -> HeadSelection:
    """Indicator of the top_r largest ratios; ties by ascending (l, h)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    n_layers, n_heads = ratios.shape
    total = n_layers * n_heads
    if not (0 <= top_r <= total):
        raise ParameterError(f"top_r={top_r} outside [0, {total}]")
    flat = ratios.reshape(-1)
    order = np.lexsort((np.arange(total), -flat))
    selected = np.zeros(total, dtype=bool)
    selected[order[:top_r]] = True
    return HeadSelection(ratios=ratios.copy(),
                         selected=selected.reshape(n_layers, n_heads),
                         top_r=top_r)


def refined_map(stack: AttentionStack, query_rows: Sequence[int],
                selection: HeadSelection) -> Tensor:
    """Average the selected heads' query-mean visual vectors into a length-N map.

    Only the selected heads' [|Q| x N] submatrices (query rows x visual
    key columns) enter the tape, in row-major (l, h) order. Differentiable
    in the attention values; the selection itself is a constant of the pass.
    """
    rows = tuple(int(r) for r in query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    text = stack.spans.text_range
    for r in rows:
        if r not in text:
            raise SelectionError(f"query row {r} outside text spans {text}")
    if selection.top_r < 1:
        raise ParameterError("refined_map needs at least one selected head")
    n = stack.spans.n_visual
    acc: Tensor | None = None
    for l, h in selection.pairs():
        v = ad.mean_pool_rows(ad.plane_submatrix(stack.planes[l], h, rows, 0, n))
        acc = v if acc is None else ad.add(acc, v)
    return ad.mul(acc, 1.0 / selection.top_r)


def generated_query_mean_map(stacks: Sequence[AttentionStack],
                             step_rows: Sequence[int]) -> np.ndarray:
    """Mean map over the emitting row of each greedy step (inference view)."""
    if not stacks:
        raise SelectionError("no generation steps to average")
    n = stacks[0].spans.n_visual
    acc = np.zeros(n)
    count = 0
    for stack, row in zip(stacks, step_rows):
        for plane in stack.planes:
            acc += plane.data[:, row, :n].sum(axis=0)
            count += plane.shape[0]
    return acc / count


def generated_head_maps(stacks: Sequence[AttentionStack],
                        step_rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-head step-averaged visual vectors [L,H,N] and their ratios [L,H]."""
    if not stacks:
        raise SelectionError("no generation steps to average")
    spans = stacks[0].spans
    n = spans.n_visual
    n_l, n_h = stacks[0].n_layers, stacks[0].n_heads
    vis = np.zeros((n_l, n_h, n))
    prm = np.zeros((n_l, n_h))
    for stack, row in zip(stacks, step_rows):
        for l in range(n_l):
            m = stack.planes[l].data
            vis[l] += m[:, row, :n]
            prm[l] += m[:, row, n: n + spans.n_prompt].sum(axis=1)
    vis /= len(stacks)
    prm /= len(stacks)
    denom = vis.sum(axis=2) + prm
    if (denom == 0.0).any():
        raise DegenerateRatioError("a head carries no visual or prompt mass")
    return vis, vis.sum(axis=2) / denom


def generated_query_refined_map(stacks: Sequence[AttentionStack],
                                step_rows: Sequence[int], top_r: int) -> np.ndarray:
    """Top-R refined map over generated positions (visualization use)."""
    vis, ratios = generated_head_maps(stacks, step_rows)
    selection = select_heads(ratios, top_r)
    if selection.top_r < 1:
        raise ParameterError("refined map needs top_r >= 1")
    picked = [vis[l, h] for l, h in selection.pairs()]
    return np.mean(picked, axis=0)


# ---------------------------------------------------------------------------
# heatmap export


def map_to_grid(values: np.ndarray, grid: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.size != grid * grid:
        raise ParameterError(f"map of {values.size} values does not fill {grid}x{grid}")
    return values.reshape(grid, grid)


def write_heatmap_csv(path: str | Path, grid_values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in grid_values:
            writer.writerow([repr(float(v)) for v in row])


def write_heatmap_pgm(path: str | Path, grid_values: np.ndarray) -> None:
    """Plain (P2) 8-bit PGM, scaled so the maximum value maps to 255."""
    g = np.asarray(grid_values, dtype=np.float64)
    peak = g.max()
    scaled = np.zeros_like(g, dtype=np.intp) if peak <= 0 else np.rint(
        g / peak * 255).astype(np.intp)
    lines = ["P2", f"{g.shape[1]} {g.shape[0]}", "255"]
    lines += [" ".join(str(int(v)) for v in row) for row in scaled]
    Path(path).write_text("\n".join(lines) + "\n")


def export_heatmaps(out_dir: str | Path, sample_id: str, kind: str,
                    values: np.ndarray, grid: int) -> list[Path]:
    """Write `<sample_id>.<kind>.csv` and `.pgm` under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = map_to_grid(values, grid)
    csv_path = out_dir / f"{sample_id}.{kind}.csv"
    pgm_path = out_dir / f"{sample_id}.{kind}.pgm"
    write_heatmap_csv(csv_path, g)
    write_heatmap_pgm(pgm_path, g)
    return [csv_path, pgm_path]
