"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors are 0-d scalars, 1-d vectors or 2-d matrices over float64 (plus
[B x m x n] planes for the batched head ops); there is no broadcasting
beyond the handful of patterns the models here need. Each differentiable
op records its parents and a backward closure on the output tensor, so
the op graph doubles as the tape and is rebuilt on every forward pass
(selection-dependent graph topology makes a static graph useless).
``Tensor.backward()`` walks the graph once in reverse topological order
and accumulates gradients additively into every ``requires_grad`` leaf;
callers zero gradients between steps.

Backward-closure contract (performance-critical): a closure receives the
output gradient ``g``, which it owns exclusively, and hands each parent
a contribution via ``sink``. Contributions are adopted without copying,
so a closure must never pass overlapping writable memory to two
different parents (``g`` itself may go to at most one), must skip
parents with ``requires_grad`` False before doing expensive work, and
must not touch a contribution after sinking it.

Kernel rules (the elementwise ops are bound by memory traffic, not by
FLOPs, at the sizes used here):

- Make as few passes over memory as possible, writing into buffers the
  op owns (``out=`` and in-place ufuncs) instead of chaining
  temporaries; a backward closure writes only into its own ``g`` or
  into arrays it allocates.
- Values only the backward reads (the gelu slope, say) are computed
  inside the closure, so a ``no_grad`` or frozen-input call never pays
  for them.
- Every output element sees the same IEEE operation sequence as the
  plain expression it replaces (kept in ``tests/oracles.py``), so
  results are bit-identical to it. The only rewrites allowed are
  swapping the operands of a single ``*`` or ``+``, dropping an exact
  ``* 1.0`` and adding ``+ 0.0`` / ``- inf`` to apply a mask; never
  re-associate an expression.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateRowError, NumericError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional gradient and backward rule.

    Data is immutable by convention once the tensor participates in a
    graph; only ``grad`` mutates, and only through accumulation.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # adopt when possible; g is exclusively ours at this point
            self.grad = g if g.flags.writeable and g.shape == self.data.shape \
                else np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output.

        Gradients land on ``requires_grad`` leaves (tensors without a
        recorded op). Intermediate gradients live only for the duration
        of the call, so running backward twice on the same graph after a
        grad reset reproduces identical leaf gradients.
        """
        if self.shape != ():
            raise ShapeError(f"backward needs a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            return
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            nid = id(node)
            if nid in seen:
                continue
            seen.add(nid)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones((), dtype=np.float64)}

        def sink(parent: Tensor, contrib) -> None:
            # adoption contract: see module docstring
            if not parent.requires_grad:
                return
            key = id(parent)
            cur = grads.get(key)
            if cur is None:
                grads[key] = contrib
            elif cur.flags.writeable:
                cur += contrib
            else:
                grads[key] = cur + contrib

        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                if not g.flags.writeable:
                    g = np.array(g)
                node._backward(g, sink)
            else:
                node._accumulate(g)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:   # a plain loop: a generator costs more per call
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
    return out


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    """Elementwise sum; also matrix + row-vector and anything + scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def back(g, sink):
            if a.requires_grad and b.requires_grad:
                sink(a, g)
                sink(b, g.copy())
            elif a.requires_grad:
                sink(a, g)
            elif b.requires_grad:
                sink(b, g)
    elif b.shape == () or a.shape == ():
        if a.shape == ():  # keep the array operand first
            a, b = b, a
        def back(g, sink):
            if b.requires_grad:
                sink(b, np.asarray(np.sum(g)))
            if a.requires_grad:
                sink(a, g)
    elif len(a.shape) == 2 and b.shape == (a.shape[1],):
        def back(g, sink):
            if b.requires_grad:
                sink(b, g.sum(axis=0))
            if a.requires_grad:
                sink(a, g)
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _wrap(a.data + b.data, (a, b), back)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def back(g, sink):
        sink(a, -g)

    return _wrap(-a.data, (a,), back)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    """Elementwise product; either operand may be a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def back(g, sink):
            if a.requires_grad:
                sink(a, g * b.data)
            if b.requires_grad:
                sink(b, g * a.data)
    elif b.shape == () or a.shape == ():
        if a.shape == ():
            a, b = b, a
        def back(g, sink):
            if a.requires_grad:
                sink(a, g * b.data)
            if b.requires_grad:
                sink(b, np.asarray(np.sum(g * a.data)))
    else:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _wrap(a.data * b.data, (a, b), back)


def div(a, b) -> Tensor:
    """Elementwise quotient; denominator may be a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def back(g, sink):
            if a.requires_grad:
                sink(a, g / b.data)
            if b.requires_grad:
                sink(b, -g * a.data / (b.data * b.data))
    elif b.shape == ():
        def back(g, sink):
            if a.requires_grad:
                sink(a, g / b.data)
            if b.requires_grad:
                sink(b, np.asarray(np.sum(-g * a.data) / (b.data * b.data)))
    else:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    return _wrap(a.data / b.data, (a, b), back)


def matmul(a, b) -> Tensor:
    """Matrix product of 2-d tensors; grad_a = g b^T, grad_b = a^T g."""
    a, b = _as_tensor(a), _as_tensor(b)
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g @ b.data.T)
        if b.requires_grad:
            sink(b, a.data.T @ g)

    return _wrap(a.data @ b.data, (a, b), back)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def back(g, sink):
        sink(a, g.reshape(a.shape))

    return _wrap(a.data.reshape(shape), (a,), back)


# ---------------------------------------------------------------------------
# structure: concatenation, slicing, gathering


def concat_rows(parts: Sequence) -> Tensor:
    """Stack 2-d tensors with equal column counts along axis 0."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows of an empty sequence")
    cols = parts[0].shape[1]
    offsets = [0]
    for p in parts:
        if len(p.shape) != 2 or p.shape[1] != cols:
            raise ShapeError(
                f"concat_rows: column mismatch {p.shape} vs ({parts[0].shape})"
            )
        offsets.append(offsets[-1] + p.shape[0])

    def back(g, sink):
        # disjoint row views of g, safe to hand to distinct parents
        for p, s, e in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sink(p, g[s:e])

    return _wrap(np.concatenate([p.data for p in parts], axis=0), parts, back)


def take(a, indices) -> Tensor:
    """Gather rows of a matrix or elements of a vector by index."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take expects a 1-d index list, got shape {idx.shape}")
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"take expects a 1-d or 2-d tensor, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"take: index out of range for first axis of {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        sink(a, z)

    return _wrap(a.data[idx], (a,), back)


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if len(a.shape) != 2 or not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows[{start}:{stop}] invalid for shape {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        sink(a, z)

    return _wrap(a.data[start:stop], (a,), back)


# ---------------------------------------------------------------------------
# reductions and row ops


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def back(g, sink):
        sink(a, np.full(a.shape, g, dtype=np.float64))

    return _wrap(np.asarray(a.data.sum()), (a,), back)


def mean_pool_rows(a) -> Tensor:
    """Column-wise arithmetic mean; an [m x n] matrix pools to [n]."""
    a = _as_tensor(a)
    if len(a.shape) != 2 or a.shape[0] < 1:
        raise ShapeError(f"mean_pool_rows needs a nonempty 2-d tensor, got {a.shape}")
    m = a.shape[0]

    def back(g, sink):
        sink(a, np.broadcast_to(g / m, a.shape))

    return _wrap(a.data.mean(axis=0), (a,), back)


def softmax_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-stochastic softmax, stabilized by row-max subtraction.

    ``mask`` marks visible entries with True; masked entries come out
    exactly 0. A row with no visible entry raises DegenerateRowError.
    """
    a = _as_tensor(a)
    if len(a.shape) != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got {a.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"softmax mask shape {mask.shape} != input {a.shape}")
        _check_rows_visible(mask)
    y = _softmax_last_axis(a.data, mask)
    return _wrap(y, (a,), _softmax_backward(a, y))


def _check_rows_visible(mask: np.ndarray) -> None:
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise DegenerateRowError(f"softmax row {bad} is fully masked")


def _softmax_last_axis(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """exp(x - rowmax) / rowsum in one owned buffer; masked entries are 0.

    The mask enters as an additive 0 / -inf term, so a visible entry
    keeps x exactly and a masked one becomes exp(-inf) = 0.
    """
    if mask is None:
        y = x - x.max(axis=-1, keepdims=True)
    else:
        y = x + np.where(mask, 0.0, -np.inf)
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_backward(a: Tensor, y: np.ndarray) -> Callable:
    def back(g, sink):
        dot = (g * y).sum(axis=-1, keepdims=True)
        g -= dot
        g *= y
        sink(a, g)

    return back


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_K = 0.044715


def _gelu_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0.5 x (1 + t) and t = tanh(C (x + K x^3)), the value its slope reuses."""
    t = x * x
    t *= x
    t *= _GELU_K
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = x * 0.5
    y *= t + 1.0
    return y, t


def _gelu_slope_into(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g *= 0.5 (1 + t) + 0.5 x ((1 - t^2) C (1 + 3 K x^2)); returns g."""
    s = t * t
    np.subtract(1.0, s, out=s)
    w = x * x
    w *= 3 * _GELU_K
    w += 1.0
    w *= _GELU_C
    s *= w
    np.multiply(x, 0.5, out=w)
    s *= w
    np.add(t, 1.0, out=w)
    w *= 0.5
    s += w
    g *= s
    return g


def gelu(a) -> Tensor:
    """Smooth ReLU-family activation (tanh form)."""
    a = _as_tensor(a)
    y, t = _gelu_value(a.data)

    def back(g, sink):
        sink(a, _gelu_slope_into(g, a.data, t))

    return _wrap(y, (a,), back)


def mlp_two_layer(x, w1, b1, w2, b2) -> Tensor:
    """gelu(x w1 + b1) w2 + b2 as one tape node (router MLPs)."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if len(x.shape) != 2 or x.shape[1] != w1.shape[0] \
            or w1.shape[1] != w2.shape[0] \
            or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise ShapeError(
            f"mlp_two_layer: shapes {x.shape}, {w1.shape}, {b1.shape}, "
            f"{w2.shape}, {b2.shape} do not chain"
        )
    u = x.data @ w1.data
    u += b1.data
    hidden, t = _gelu_value(u)
    out = hidden @ w2.data
    out += b2.data

    def back(g, sink):
        if b2.requires_grad:
            sink(b2, g.sum(axis=0))
        if w2.requires_grad:
            sink(w2, hidden.T @ g)
        gu = _gelu_slope_into(g @ w2.data.T, u, t)
        if b1.requires_grad:
            sink(b1, gu.sum(axis=0))
        if w1.requires_grad:
            sink(w1, x.data.T @ gu)
        if x.requires_grad:
            sink(x, gu @ w1.data.T)

    return _wrap(out, (x, w1, b1, w2, b2), back)


def layer_norm_rows(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-row standardization with learnable gain and bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if len(a.shape) != 2 or gain.shape != (a.shape[1],) or bias.shape != (a.shape[1],):
        raise ShapeError(
            f"layer_norm_rows: shapes {a.shape}, {gain.shape}, {bias.shape} disagree"
        )
    x = a.data
    n = x.shape[1]
    mu = x.sum(axis=1, keepdims=True)
    mu /= n
    xhat = x - mu
    y = xhat * xhat
    var = y.sum(axis=1, keepdims=True)
    var /= n
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data

    def back(g, sink):
        if gain.requires_grad:
            sink(gain, (g * xhat).sum(axis=0))
        if bias.requires_grad:
            sink(bias, g.sum(axis=0))
        if a.requires_grad:
            # inv / n (n gx_hat - sum(gx_hat) - xhat sum(gx_hat xhat)),
            # gx_hat = g gain
            g *= gain.data
            r = g * xhat
            dot = r.sum(axis=1, keepdims=True)
            total = g.sum(axis=1, keepdims=True)
            g *= n
            g -= total
            g -= np.multiply(xhat, dot, out=r)
            g *= inv / n
            sink(a, g)

    return _wrap(y, (a, gain, bias), back)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = _as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.intp)
    if len(logits.shape) != 2 or tgt.ndim != 1 or tgt.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs targets {tgt.shape}"
        )
    t, v = logits.shape
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise IndexError(f"cross_entropy: target outside [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(t), tgt].mean()

    def back(g, sink):
        p = np.exp(logp)
        p[np.arange(t), tgt] -= 1.0
        sink(logits, g * p / t)

    return _wrap(np.asarray(loss), (logits,), back)


# ---------------------------------------------------------------------------
# batched head ops: [H x S x S] planes for multi-head attention


def split_heads(x, n_heads: int) -> Tensor:
    """[S x H*dh] columns, head-major, into [H x S x dh] planes."""
    x = _as_tensor(x)
    s, d = x.shape
    if d % n_heads:
        raise ShapeError(f"width {d} not divisible into {n_heads} heads")
    dh = d // n_heads

    def back(g, sink):
        sink(x, g.transpose(1, 0, 2).reshape(s, d))

    return _wrap(x.data.reshape(s, n_heads, dh).transpose(1, 0, 2), (x,), back)


def merge_heads(x) -> Tensor:
    """[H x S x dh] planes back into [S x H*dh] columns."""
    x = _as_tensor(x)
    h, s, dh = x.shape

    def back(g, sink):
        sink(x, g.reshape(s, h, dh).transpose(1, 0, 2))

    return _wrap(x.data.transpose(1, 0, 2).reshape(s, h * dh), (x,), back)


def transpose_last2(a) -> Tensor:
    a = _as_tensor(a)
    if len(a.shape) != 3:
        raise ShapeError(f"transpose_last2 needs a 3-d tensor, got {a.shape}")

    def back(g, sink):
        sink(a, g.swapaxes(1, 2))

    return _wrap(a.data.swapaxes(1, 2), (a,), back)


def bmm(a, b) -> Tensor:
    """Plane-wise matrix product of [B x m x k] and [B x k x n]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if len(a.shape) != 3 or len(b.shape) != 3 or a.shape[0] != b.shape[0] \
            or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} and {b.shape}")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g @ b.data.swapaxes(1, 2))
        if b.requires_grad:
            sink(b, a.data.swapaxes(1, 2) @ g)

    return _wrap(a.data @ b.data, (a, b), back)


def softmax_heads(a, mask: np.ndarray | None = None) -> Tensor:
    """Last-axis softmax over [H x S x S] planes with one shared [S x S] mask."""
    a = _as_tensor(a)
    if len(a.shape) != 3:
        raise ShapeError(f"softmax_heads needs a 3-d tensor, got {a.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape[1:]:
            raise ShapeError(f"mask {mask.shape} does not cover planes {a.shape[1:]}")
        _check_rows_visible(mask)
    y = _softmax_last_axis(a.data, mask)
    return _wrap(y, (a,), _softmax_backward(a, y))


def plane_submatrix(a, index: int, rows, col_start: int, col_stop: int) -> Tensor:
    """Rows x column-range of one plane, in a single op."""
    a = _as_tensor(a)
    idx = np.asarray(rows, dtype=np.intp)
    if len(a.shape) != 3 or not (0 <= index < a.shape[0]) \
            or not (0 <= col_start <= col_stop <= a.shape[2]):
        raise ShapeError(f"plane_submatrix invalid for shape {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"plane_submatrix: row index out of range for {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        np.add.at(z[index, :, col_start:col_stop], idx, g)
        sink(a, z)

    return _wrap(a.data[index][idx, col_start:col_stop], (a,), back)


# ---------------------------------------------------------------------------
# fused adapter ops (single tape nodes; backward rules spelled out by hand)


def linear_with_lora(x, w, lora_a=None, lora_b=None) -> Tensor:
    """x @ w^T plus the low-rank correction (x A^T) B^T."""
    x, w = _as_tensor(x), _as_tensor(w)
    if len(x.shape) != 2 or len(w.shape) != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} vs weight {w.shape}")
    if lora_a is None:
        def back0(g, sink):
            if x.requires_grad:
                sink(x, g @ w.data)
            if w.requires_grad:
                sink(w, g.T @ x.data)
        return _wrap(x.data @ w.data.T, (x, w), back0)

    a, b = _as_tensor(lora_a), _as_tensor(lora_b)
    if a.shape[1] != x.shape[1] or b.shape != (w.shape[0], a.shape[0]):
        raise ShapeError(
            f"lora shapes A {a.shape} / B {b.shape} do not fit weight {w.shape}"
        )
    u = x.data @ a.data.T
    out = x.data @ w.data.T
    out += u @ b.data.T

    def back(g, sink):
        gb_in = g @ b.data          # [S x r]
        if x.requires_grad:
            gx = g @ w.data
            gx += gb_in @ a.data
            sink(x, gx)
        if w.requires_grad:
            sink(w, g.T @ x.data)
        if a.requires_grad:
            sink(a, gb_in.T @ x.data)
        if b.requires_grad:
            sink(b, g.T @ u)

    return _wrap(out, (x, w, a, b), back)


def lowrank_rows_apply(x, weights, a, b, rank: int) -> Tensor:
    """Row-wise mixture of stacked low-rank experts in two GEMMs.

    Expert o is the row block A[o r:(o+1) r] of ``a`` [O r x d_in] and the
    column block B[:, o r:(o+1) r] of ``b`` [d_out x O r]. Row c of the
    result is x_c @ (sum_o weights[c, o] B_o A_o)^T, computed as
    ((x A^T) * repeat(weights, r)) B^T.
    """
    x, weights, a, b = (_as_tensor(t) for t in (x, weights, a, b))
    if len(x.shape) != 2 or len(weights.shape) != 2 or len(b.shape) != 2 \
            or weights.shape[0] != x.shape[0] \
            or a.shape != (weights.shape[1] * rank, x.shape[1]) \
            or b.shape[1] != a.shape[0]:
        raise ShapeError(
            f"lowrank_rows_apply: x {x.shape}, weights {weights.shape}, "
            f"A {a.shape}, B {b.shape} do not fit rank {rank}"
        )
    s, n_exp = weights.shape
    u = x.data @ a.data.T                                   # [S x O r]
    wr = np.repeat(weights.data, rank, axis=1)              # [S x O r]
    z = u * wr

    def back(g, sink):
        gz = g @ b.data                                     # [S x O r]
        if weights.requires_grad:
            sink(weights, (gz * u).reshape(s, n_exp, rank).sum(axis=2))
        gu = gz * wr
        if x.requires_grad:
            sink(x, gu @ a.data)
        if a.requires_grad:
            sink(a, gu.T @ x.data)
        if b.requires_grad:
            sink(b, g.T @ z)

    return _wrap(z @ b.data.T, (x, weights, a, b), back)


# ---------------------------------------------------------------------------
# gradient verification


def _scalar_value(y) -> float:
    if not isinstance(y, Tensor) or y.shape != ():
        raise ShapeError("finite_diff_check needs a scalar Tensor result")
    val = float(y.data)
    if not np.isfinite(val):
        raise NumericError(f"objective evaluated to non-finite value {val}")
    return val


def finite_diff_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Worst-coordinate gradient error of f at x.

    Returns max_i |analytic_i - central_i| / max(1, |central_i|), where
    central_i is the central difference (f(x + step e_i) - f(x - step
    e_i)) / (2 step). Mutates x.data in place during probing and
    restores it; x.grad is left holding the analytic gradient.
    """
    return finite_diff_check_params(lambda: f(x), [x], step)


def finite_diff_check_params(f, params: Iterable[Tensor], step: float = 1e-4) -> float:
    """Worst gradient error of a no-argument objective over many leaves."""
    params = list(params)
    for p in params:
        p.zero_grad()
    y = f()
    _scalar_value(y)
    y.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = _scalar_value(f())
            flat[i] = orig - step
            fm = _scalar_value(f())
            flat[i] = orig
            central = (fp - fm) / (2.0 * step)
            err = abs(gf[i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst
