"""Head statistics, refined and generated visual maps, heatmap export.

One forward pass yields an AttentionStack of L*H row-stochastic maps
over the full sequence; the last layer's maps hold only the last query
rows, those the pass kept. We rank heads by the share of attention their
text queries put on visual keys, then carve the text-query x visual-key
submatrices of the top-R heads only and fold them into the refined map
that the alignment loss consumes. Every reader takes a count q and reads
the last q query rows of each plane: the answer rows in training, the
emitting row of a greedy step.
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


@dataclass
class AttentionStack:
    """Per-layer attention planes from one forward pass: [H x S x S] for every
    layer but the last, whose [H x m x S] plane holds the last m query rows,
    those the pass kept."""

    planes: list[Tensor]
    spans: Spans

    def check_rows(self, q: int) -> None:
        """Refuse a count of trailing query rows that some plane did not
        keep or that reaches back into the visual rows."""
        top = min(self.planes[-1].shape[-2], self.spans.n_prompt + self.spans.n_answer)
        if not 1 <= q <= top:
            raise SelectionError(f"{q} query rows outside 1..{top}, the text "
                                 "rows every layer kept")

    @property
    def n_layers(self) -> int:
        return len(self.planes)

    @property
    def n_heads(self) -> int:
        return self.planes[0].shape[0]


def all_visual_ratios(stack: AttentionStack, q: int) -> np.ndarray:
    """The [L x H] grid of visual attention ratios over the last q query
    rows (vectorized)."""
    stack.check_rows(q)
    n = stack.spans.n_visual
    prompt = slice(n, n + stack.spans.n_prompt)
    out = np.empty((stack.n_layers, stack.n_heads))
    for l, plane in enumerate(stack.planes):
        # each row's sums, then the rows in order: numpy sums a slice of two
        # or more rows over both axes in another order, an ulp away
        vis = prm = 0.0
        for row in plane.data[:, -q:, :].swapaxes(0, 1):
            vis = vis + row[:, :n].sum(axis=1)
            prm = prm + row[:, prompt].sum(axis=1)
        denom = vis + prm
        if (denom == 0.0).any():
            bad = int(np.flatnonzero(denom == 0.0)[0])
            raise DegenerateRatioError(f"head ({l},{bad}) has zero visual+prompt "
                                       f"mass on the last {q} query rows")
        out[l] = vis / denom
    return out


def select_heads(ratios: np.ndarray, top_r: int) -> np.ndarray:
    """The [L x H] bool grid of the top_r largest ratios; ties by ascending
    (l, h)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    n_layers, n_heads = ratios.shape
    total = n_layers * n_heads
    if not (0 <= top_r <= total):
        raise ParameterError(f"top_r={top_r} outside [0, {total}]")
    flat = ratios.reshape(-1)
    order = np.lexsort((np.arange(total), -flat))
    selected = np.zeros(total, dtype=bool)
    selected[order[:top_r]] = True
    return selected.reshape(n_layers, n_heads)


def refined_map(stack: AttentionStack, q: int, selected: np.ndarray) -> Tensor:
    """Average over the heads ``selected`` marks in its [L x H] bool grid
    the mean visual vector of each head's last q query rows: a length-N map.

    One tape node over the planes of the layers holding a selected head.
    Only the selected heads' [q x N] submatrices (query rows x visual
    key columns) are read, in row-major (l, h) order, and only they
    receive gradient. Differentiable in the attention values; the
    selection itself is a constant of the pass.
    """
    stack.check_rows(q)
    pairs = np.argwhere(selected)
    if not len(pairs):
        raise ParameterError("refined_map needs at least one selected head")
    n = stack.spans.n_visual
    layers = sorted({l for l, _ in pairs})
    acc = None
    for l, h in pairs:
        v = stack.planes[l].data[h, -q:, :n].mean(axis=0)
        acc = v if acc is None else acc + v

    def back(g, sink):
        # (g / R) / q into each selected block, one zeroed plane per layer
        block = g * (1.0 / len(pairs)) / q
        for l in layers:
            plane = stack.planes[l]
            if not plane.requires_grad:
                continue
            z = np.zeros_like(plane.data)
            for pl, h in pairs:
                if pl == l:
                    z[h, -q:, :n] += block
            sink(plane, z)

    return ad._wrap(acc * (1.0 / len(pairs)), [stack.planes[l] for l in layers],
                    back)


def generated_query_mean_map(stacks: Sequence[AttentionStack]) -> np.ndarray:
    """Mean map over the emitting row of each greedy step (inference view):
    a step's last sequence row emits the next token, and it is the last
    row of every plane, since every plane keeps a suffix of rows."""
    if not stacks:
        raise SelectionError("no generation steps to average")
    n = stacks[0].spans.n_visual
    acc = np.zeros(n)
    count = 0
    for stack in stacks:
        for plane in stack.planes:
            acc += plane.data[:, -1, :n].sum(axis=0)
            count += plane.shape[0]
    return acc / count


def generated_query_refined_map(stacks: Sequence[AttentionStack],
                                top_r: int) -> np.ndarray:
    """Top-R refined map over generated positions (visualization use): each
    greedy step ranks the heads and refines the map at its emitting row, as
    ``total_loss`` does on every pass, and the steps' maps are averaged."""
    if not stacks:
        raise SelectionError("no generation steps to average")
    maps = [refined_map(s, 1, select_heads(all_visual_ratios(s, 1), top_r)).data
            for s in stacks]
    return np.mean(maps, axis=0)


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
