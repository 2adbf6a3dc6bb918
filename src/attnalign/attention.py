"""Head statistics, refined and generated visual maps, heatmap export.

One forward pass yields an AttentionStack of L*H row-stochastic maps
over the full sequence; the last layer's maps hold only the last query
rows, those the pass kept. We rank heads by the share of attention their
text queries put on visual keys, then carve the text-query x visual-key
submatrices of the top-R heads only and fold them into the refined map
that the alignment loss consumes. Every reader names sequence rows, and
``AttentionStack.plane_rows`` translates them into rows of a plane.
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
    """Per-layer attention planes from one forward pass: [H x S x S] for every
    layer but the last, whose [H x m x S] plane holds the last m query rows,
    those the pass kept."""

    planes: list[Tensor]
    spans: Spans

    def plane_rows(self, layer: int, rows: Sequence[int]) -> np.ndarray:
        """The rows of plane ``layer`` that hold the sequence rows ``rows``; a
        row before the ones it kept raises SelectionError."""
        rows = np.asarray(rows, dtype=np.intp)
        first = self.spans.total - self.planes[layer].shape[-2]
        if rows.size and rows.min() < first:
            raise SelectionError(f"sequence row {rows.min()} is before row "
                                 f"{first}, the first that layer {layer} kept")
        return rows - first

    @property
    def n_layers(self) -> int:
        return len(self.planes)

    @property
    def n_heads(self) -> int:
        return self.planes[0].shape[0]


def answer_logit_rows(spans: Spans) -> tuple[int, ...]:
    """Rows whose logits predict the answer tokens, in order."""
    first = spans.n_visual + spans.n_prompt - 1
    return tuple(range(first, first + spans.n_answer))


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
        view = plane.data[:, stack.plane_rows(l, rows), :]
        vis = view[:, :, : spans.n_visual].sum(axis=(1, 2))
        prm = view[:, :, spans.n_visual: spans.n_visual + spans.n_prompt].sum(axis=(1, 2))
        denom = vis + prm
        if (denom == 0.0).any():
            bad = int(np.flatnonzero(denom == 0.0)[0])
            raise DegenerateRatioError(
                f"head ({l},{bad}) has zero visual+prompt mass on rows {rows}"
            )
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


def refined_map(stack: AttentionStack, query_rows: Sequence[int],
                selected: np.ndarray) -> Tensor:
    """Average the query-mean visual vectors of the heads ``selected`` marks
    in its [L x H] bool grid into a length-N map.

    One tape node over the planes of the layers holding a selected head.
    Only the selected heads' [|Q| x N] submatrices (query rows x visual
    key columns) are read, in row-major (l, h) order, and only they
    receive gradient. Differentiable in the attention values; the
    selection itself is a constant of the pass.
    """
    rows = tuple(int(r) for r in query_rows)
    if not rows:
        raise SelectionError("query set is empty")
    text = stack.spans.text_range
    for r in rows:
        if r not in text:
            raise SelectionError(f"query row {r} outside text spans {text}")
    pairs = np.argwhere(selected)
    if not len(pairs):
        raise ParameterError("refined_map needs at least one selected head")
    n = stack.spans.n_visual
    layers = sorted({l for l, _ in pairs})
    # every layer's rows, so a row the last layer did not keep always raises
    idx = [stack.plane_rows(l, rows) for l in range(stack.n_layers)]
    acc = None
    for l, h in pairs:
        v = stack.planes[l].data[h][idx[l], :n].mean(axis=0)
        acc = v if acc is None else acc + v

    def back(g, sink):
        # (g / R) / |Q| into each selected block, one zeroed plane per layer;
        # add.at keeps repeated query rows accumulating
        block = np.broadcast_to(g * (1.0 / len(pairs)) / len(rows),
                                (len(rows), n))
        for l in layers:
            plane = stack.planes[l]
            if not plane.requires_grad:
                continue
            z = np.zeros_like(plane.data)
            for pl, h in pairs:
                if pl == l:
                    np.add.at(z[h, :, :n], idx[l], block)
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
    rows = [(s.spans.total - 1,) for s in stacks]
    maps = [refined_map(s, r, select_heads(all_visual_ratios(s, r), top_r)).data
            for s, r in zip(stacks, rows)]
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
