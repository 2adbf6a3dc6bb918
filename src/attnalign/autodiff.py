"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors are 0-d scalars, 1-d vectors or 2-d matrices over float64, plus
the [H x m x S] planes of multi-head attention (m query rows against S
keys). ``add`` and ``mul`` take two operands of one shape and nothing
broadcasts. The decoder's forward ops also take a leading batch axis, a
group of same-shape samples that a ``no_grad`` pass runs at once; they
index from the end (``...``), so a 2-d input runs the very expressions
it always did, and their backward closures only ever see one sample.
Only the adapters train: the frozen decoder weights enter
``linear_with_lora`` and ``layer_norm_rows`` as plain arrays, so no op
carries gradient code for them. Only the two attention ops know that
head h owns columns h dh:(h+1) dh of q, k and v. The two router gates
are single nodes too; ``adapters.py`` builds them from this module's
private row kernels (the gelu and softmax halves).

Each differentiable op records its parents and a backward closure on
the output tensor, so the op graph doubles as the tape and is rebuilt
on every forward pass (selection-dependent graph topology makes a
static graph useless).
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
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateRowError, ShapeError

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
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g, sink):
        sink(a, g)      # sink ignores a parent that needs no gradient
        sink(b, g.copy() if a.requires_grad else g)

    return _wrap(a.data + b.data, (a, b), back)


def mul(a, b) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g, sink):
        if a.requires_grad:
            sink(a, g * b.data)
        if b.requires_grad:
            sink(b, g * a.data)

    return _wrap(a.data * b.data, (a, b), back)


def tail_rows(a, m: int) -> Tensor:
    """The last m rows (axis -2) of a matrix; the backward adds g into the
    tail of zeros of a's shape."""
    a = _as_tensor(a)
    if len(a.shape) < 2 or not 1 <= m <= a.shape[-2]:
        raise ShapeError(f"tail_rows: the last {m} rows of {a.shape}")

    def back(g, sink):
        z = np.zeros_like(a.data)
        z[..., -m:, :] += g
        sink(a, z)

    return _wrap(a.data[..., -m:, :], (a,), back)


# ---------------------------------------------------------------------------
# row kernels shared by the fused nodes, here and in adapters.py


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


def _softmax_grad_into(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g = y (g - sum(g y)) along the last axis, in place; returns g."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    g -= dot
    g *= y
    return g


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


def layer_norm_rows(a, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> Tensor:
    """Per-row standardization with the frozen [d] arrays gain and bias."""
    a = _as_tensor(a)
    if len(a.shape) < 2 or gain.shape != (a.shape[-1],) or bias.shape != (a.shape[-1],):
        raise ShapeError(
            f"layer_norm_rows: shapes {a.shape}, {gain.shape}, {bias.shape} disagree"
        )
    x = a.data
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    y = xhat * xhat
    var = y.sum(axis=-1, keepdims=True)
    var /= n
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias

    def back(g, sink):
        # inv / n (n gx_hat - sum(gx_hat) - xhat sum(gx_hat xhat)),
        # gx_hat = g gain
        g *= gain
        r = g * xhat
        dot = r.sum(axis=1, keepdims=True)
        total = g.sum(axis=1, keepdims=True)
        g *= n
        g -= total
        g -= np.multiply(xhat, dot, out=r)
        g *= inv / n
        sink(a, g)

    return _wrap(y, (a,), back)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under the softmax of
    the first rows of logits; target i belongs to row i."""
    logits = _as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.intp)
    if len(logits.shape) != 2 or tgt.ndim != 1 or not 0 < tgt.size <= logits.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} and targets "
                         f"{tgt.shape} disagree; need 1 to {logits.shape[0]} targets")
    t, v = tgt.size, logits.shape[1]
    if tgt.min() < 0 or tgt.max() >= v:
        raise ShapeError(f"cross_entropy: target outside [0, {v})")
    picked = logits.data[:t]
    z = picked - picked.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(t), tgt].mean()

    def back(g, sink):
        p = np.exp(logp)
        p[np.arange(t), tgt] -= 1.0
        grad = np.zeros_like(logits.data)
        grad[:t] += g * p / t
        sink(logits, grad)

    return _wrap(np.asarray(loss), (logits,), back)


# ---------------------------------------------------------------------------
# multi-head attention: [m x H*dh] query and [S x H*dh] key/value columns,
# head-major, against [H x m x S] planes (each with any leading batch axes)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[... x S x H*dh] columns as an [... x H x S x dh] view; head h owns
    columns h dh:(h+1) dh."""
    *lead, s, d = x.shape
    return x.reshape(*lead, s, n_heads, d // n_heads).swapaxes(-3, -2)


def _columns(x: np.ndarray) -> np.ndarray:
    """[... x H x S x dh] planes back into [... x S x H*dh] columns."""
    *lead, h, s, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, s, h * dh)


def attention_planes(q, k, n_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q_h k_h^T / sqrt(dh)) of every head: the [H x m x S] planes of
    m query rows against S keys, under one [m x S] mask that all heads (and
    samples) share. True marks a visible key, a masked entry comes out
    exactly 0, and a row with no visible key raises DegenerateRowError."""
    q, k = _as_tensor(q), _as_tensor(k)
    if len(q.shape) < 2 or len(k.shape) != len(q.shape) or q.shape[:-2] != k.shape[:-2] \
            or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention_planes: q {q.shape} and k {k.shape} disagree")
    m, d = q.shape[-2:]
    s = k.shape[-2]
    if d % n_heads:
        raise ShapeError(f"width {d} not divisible into {n_heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (m, s):
            raise ShapeError(f"mask {mask.shape} does not cover planes {(m, s)}")
        _check_rows_visible(mask)
    scale = 1.0 / np.sqrt(d // n_heads)
    q3, k3 = _heads(q.data, n_heads), _heads(k.data, n_heads)
    scores = q3 @ k3.swapaxes(-1, -2)
    scores *= scale
    y = _softmax_last_axis(scores, mask)

    def back(g, sink):
        g = _softmax_grad_into(g, y)
        g *= scale
        if q.requires_grad:
            sink(q, _columns(g @ k3))
        if k.requires_grad:
            sink(k, _columns((q3.swapaxes(1, 2) @ g).swapaxes(1, 2)))

    return _wrap(y, (q, k), back)


def attend(planes, v) -> Tensor:
    """planes_h @ v_h of every head, [H x m x S] planes against [S x H*dh]
    values, merged into [m x H*dh] columns."""
    planes, v = _as_tensor(planes), _as_tensor(v)
    if len(v.shape) < 2 or planes.shape[:-3] != v.shape[:-2] \
            or len(planes.shape) != len(v.shape) + 1 \
            or planes.shape[-1] != v.shape[-2] or v.shape[-1] % planes.shape[-3]:
        raise ShapeError(f"attend: planes {planes.shape} do not fit values {v.shape}")
    h = planes.shape[-3]
    v3 = _heads(v.data, h)

    def back(g, sink):
        g3 = _heads(g, h)
        if planes.requires_grad:
            sink(planes, g3 @ v3.swapaxes(1, 2))
        if v.requires_grad:
            sink(v, _columns(planes.data.swapaxes(1, 2) @ g3))

    return _wrap(_columns(planes.data @ v3), (planes, v), back)


# ---------------------------------------------------------------------------
# fused adapter ops (single tape nodes; backward rules spelled out by hand)


def linear_with_lora(x, w: np.ndarray, lora_a=None, lora_b=None) -> Tensor:
    """x @ w^T for the frozen array w, plus the low-rank correction (x A^T) B^T."""
    x = _as_tensor(x)
    if len(x.shape) < 2 or len(w.shape) != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} vs weight {w.shape}")
    if lora_a is None:
        return _wrap(x.data @ w.T, (x,), lambda g, sink: sink(x, g @ w))

    a, b = _as_tensor(lora_a), _as_tensor(lora_b)
    if a.shape[1] != x.shape[-1] or b.shape != (w.shape[0], a.shape[0]):
        raise ShapeError(
            f"lora shapes A {a.shape} / B {b.shape} do not fit weight {w.shape}"
        )
    u = x.data @ a.data.T
    out = x.data @ w.T
    out += u @ b.data.T

    def back(g, sink):
        gb_in = g @ b.data          # [S x r]
        if x.requires_grad:
            gx = g @ w
            gx += gb_in @ a.data
            sink(x, gx)
        if a.requires_grad:
            sink(a, gb_in.T @ x.data)
        if b.requires_grad:
            sink(b, g.T @ u)

    return _wrap(out, (x, a, b), back)


def lowrank_rows_apply(x, weights, a, b, rank: int) -> Tensor:
    """Row-wise mixture of stacked low-rank experts in two GEMMs.

    Expert o is the row block A[o r:(o+1) r] of ``a`` [O r x d_in] and the
    column block B[:, o r:(o+1) r] of ``b`` [d_out x O r]. ``weights`` with
    one axis fewer than x (an [O] vector for an [S x d_in] x) are shared by
    every row; otherwise they are [m x O] weights for the first m rows of
    axis -2, the rows from m on getting a zero delta. Row c < m of the
    result is x_c @ (sum_o w_c[o] B_o A_o)^T, computed as
    ((x[:m] A^T) * repeat(w, r)) B^T; the GEMMs see only those m rows.
    """
    x, weights, a, b = (_as_tensor(t) for t in (x, weights, a, b))
    shared = len(weights.shape) == len(x.shape) - 1
    s = x.shape[-2] if len(x.shape) >= 2 else -1
    m = s if shared or len(weights.shape) < 2 else weights.shape[-2]
    n_exp = weights.shape[-1] if weights.shape else -1
    if len(x.shape) < 2 or len(weights.shape) not in (len(x.shape) - 1, len(x.shape)) \
            or weights.shape[:len(x.shape) - 2] != x.shape[:-2] \
            or len(b.shape) != 2 or m > s \
            or a.shape != (n_exp * rank, x.shape[-1]) or b.shape[1] != a.shape[0]:
        raise ShapeError(
            f"lowrank_rows_apply: x {x.shape}, weights {weights.shape}, "
            f"A {a.shape}, B {b.shape} do not fit rank {rank}"
        )
    rows = x.data[..., :m, :]
    u = rows @ a.data.T                                     # [m x O r]
    wr = np.repeat(weights.data, rank, axis=-1)             # [(m x) O r]
    if shared:
        wr = wr[..., None, :]       # one row of weights for all rows
    z = u * wr

    def pad(y):                     # zero rows for x's rows from m on
        if m == s:
            return y
        out = np.zeros(y.shape[:-2] + (s, y.shape[-1]))
        out[..., :m, :] = y
        return out

    def back(g, sink):
        g = g[:m]
        gz = g @ b.data                                     # [m x O r]
        if weights.requires_grad:
            gw = (gz * u).reshape(m, n_exp, rank).sum(axis=2)
            sink(weights, gw.sum(axis=0) if shared else gw)
        gu = gz * wr
        if x.requires_grad:
            sink(x, pad(gu @ a.data))
        if a.requires_grad:
            sink(a, gu.T @ rows)
        if b.requires_grad:
            sink(b, g.T @ z)

    return _wrap(pad(z @ b.data.T), (x, weights, a, b), back)
