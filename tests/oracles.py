"""Independent reference computations for the test suite.

Everything here is written against raw numpy arrays with explicit
loops, sharing no code with the package, so agreement between the two
is meaningful evidence. The finite-difference checker at the end drives
the package only through a scalar objective and its leaf gradients.
"""

from decimal import Decimal, getcontext

import numpy as np

from attnalign.autodiff import Tensor
from attnalign.errors import AttnAlignError, ShapeError


def softmax_row_decimal(row, prec: int = 50):
    """Exp-normalize one row at extended precision."""
    getcontext().prec = prec
    vals = [Decimal(float(v)) for v in row]
    m = max(vals)
    exps = [(v - m).exp() for v in vals]
    total = sum(exps)
    return np.array([float(e / total) for e in exps])


def cosine_decimal(u, v, prec: int = 50):
    getcontext().prec = prec
    du = [Decimal(float(x)) for x in u]
    dv = [Decimal(float(x)) for x in v]
    dot = sum(a * b for a, b in zip(du, dv))
    nu = sum(a * a for a in du).sqrt()
    nv = sum(b * b for b in dv).sqrt()
    return float(dot / (nu * nv))


def mean_map_loop(per_head_views):
    """Triple-loop average over layers, heads, query rows."""
    n_l = len(per_head_views)
    n_h = len(per_head_views[0])
    n_q, n = per_head_views[0][0].shape
    acc = np.zeros(n)
    for l in range(n_l):
        for h in range(n_h):
            for q in range(n_q):
                acc += per_head_views[l][h][q]
    return acc / (n_l * n_h * n_q)


def refined_map_loop(per_head_views, selected):
    n = per_head_views[0][0].shape[1]
    acc = np.zeros(n)
    count = 0
    for l in range(len(per_head_views)):
        for h in range(len(per_head_views[0])):
            if not selected[l][h]:
                continue
            acc += per_head_views[l][h].mean(axis=0)
            count += 1
    return acc / count


def visual_ratio_loop(full_map, rows, n_visual, n_prompt):
    vis = 0.0
    tot = 0.0
    for q in rows:
        for c in range(n_visual):
            vis += full_map[q, c]
        for c in range(n_visual + n_prompt):
            tot += full_map[q, c]
    return vis / tot


def generated_ratio_loop(step_maps, step_rows, n_visual, n_prompt):
    """One head's visual ratio over greedy steps: the emitting row of each
    step's map, visual mass over visual plus prompt mass."""
    vis = 0.0
    tot = 0.0
    for full_map, q in zip(step_maps, step_rows):
        for c in range(n_visual):
            vis += full_map[q, c]
        for c in range(n_visual + n_prompt):
            tot += full_map[q, c]
    return vis / tot


def topk_select_loop(values, k, ids=None):
    """Indices of the k largest values; ties by ascending id/index."""
    n = len(values)
    ids = list(range(n)) if ids is None else list(ids)
    order = sorted(range(n), key=lambda i: (-values[i], ids[i]))
    return sorted(order[:k])


def coverage_loop(grid_values, roi, grid, tau):
    hits = 0
    for token in roi:
        i, j = divmod(token, grid)
        if grid_values[i][j] >= tau:
            hits += 1
    return hits / len(roi)


def intensity_loop(values, roi):
    total = 0.0
    for token in roi:
        total += values[token]
    return total / len(roi)


# ---------------------------------------------------------------------------
# reference classifiers that certify the planted task


def roi_oracle_predict(sample, spec):
    """Reads the RoI directly: argmax of the label channels' mean activation."""
    mean = sample.features[list(sample.roi)].mean(axis=0)
    label = int(np.argmax(mean[spec.n_concepts: spec.n_concepts + spec.n_labels]))
    return spec.label_token(label)


def blind_majority_token(samples):
    """Most frequent answer token; the best RoI-blind constant guess."""
    counts = {}
    for s in samples:
        counts[s.answer[0]] = counts.get(s.answer[0], 0) + 1
    return max(sorted(counts), key=lambda t: counts[t])


def classifier_accuracy(samples, predict):
    hits = sum(1 for s in samples if predict(s) == s.answer[0])
    return hits / len(samples)


# ---------------------------------------------------------------------------
# plain-expression kernels: the formulas the in-place autodiff kernels must
# reproduce bit for bit; each returns the forward value and, given the
# output gradient g, the gradient of every input


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_K = 0.044715


def gelu_value_slope(x):
    x2 = x * x
    t = np.tanh(_GELU_C * (x + _GELU_K * (x2 * x)))
    du = _GELU_C * (1.0 + 3 * _GELU_K * x2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * ((1.0 - t * t) * du)


def mlp_two_layer_ref(x, w1, b1, w2, b2, g):
    """gelu(x w1 + b1) w2 + b2 and the gradients of (x, w1, b1, w2, b2)."""
    u = x @ w1 + b1
    hidden, slope = gelu_value_slope(u)
    out = hidden @ w2 + b2
    gu = (g @ w2.T) * slope
    return out, (gu @ w1.T, x.T @ gu, gu.sum(axis=0), hidden.T @ g,
                 g.sum(axis=0))


def softmax_ref(x, mask, g):
    """Last-axis masked softmax of rows or [H x S x S] planes, and its gradient."""
    if mask is not None:
        masked = np.where(mask, x, -np.inf)
        rowmax = masked.max(axis=-1, keepdims=True)
        e = np.exp(np.where(mask, x - rowmax, 0.0)) * mask
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, y * (g - dot)


def layer_norm_ref(x, gain, bias, g, eps=1e-5):
    """Row standardization with gain and bias, and the gradient of x."""
    n = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    y = xhat * gain + bias
    gx_hat = g * gain
    gx = inv / n * (n * gx_hat
                    - gx_hat.sum(axis=1, keepdims=True)
                    - xhat * (gx_hat * xhat).sum(axis=1, keepdims=True))
    return y, gx


def linear_with_lora_ref(x, w, a, b, g):
    """x w^T + (x A^T) B^T and the gradients of (x, A, B)."""
    u = x @ a.T
    out = x @ w.T + u @ b.T
    gb_in = g @ b
    return out, (g @ w + gb_in @ a, gb_in.T @ x, g.T @ u)


def adamw_ref(p, m, v, grads, lr, grad_scale, b1=0.9, b2=0.999, eps=1e-8):
    """Successive Adam steps, one per gradient, as plain expressions."""
    for t, g in enumerate(grads, start=1):
        g = g * grad_scale
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        update = (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        p = p - lr * update
    return p, m, v


# ---------------------------------------------------------------------------
# straight-line forward pass (no autodiff, explicit head loops)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                    * (x + 0.044715 * x * x * x)))


def _layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _softmax_masked(row, visible):
    out = np.zeros_like(row)
    vis = row[visible]
    e = np.exp(vis - vis.max())
    out[visible] = e / e.sum()
    return out


def _lora(x, adapter):
    if adapter is None:
        return 0.0
    return (x @ adapter.A.data.T) @ adapter.B.data.T


def expert_delta(bank, o):
    """Expert o's [d_out x d_in] delta from its row block of A and column block of B."""
    r = bank.rank
    return bank.B.data[:, o * r:(o + 1) * r] @ bank.A.data[o * r:(o + 1) * r]


def _gate_logits(x, gate):
    hidden = _gelu(x @ gate.w1.data + gate.b1.data)
    return hidden @ gate.w2.data + gate.b2.data


def _topb_indices(beta, b):
    order = sorted(range(len(beta)), key=lambda o: (-beta[o], o))
    return set(order[:b])


def straight_line_forward(model, visual, prompt, answer, adapters=None):
    """Reimplements forward with indexed loops; returns (logits, maps[l][h])."""
    cfg = model.config
    p = model.params
    n = cfg.n_visual
    text_ids = np.array(list(prompt) + list(answer), dtype=int)
    x_vis = np.asarray(visual) @ p["w_align"] + p["b_align"]
    x_text = p["tok_emb"][text_ids] + p["pos_emb"][: len(text_ids)]
    x = np.concatenate([x_vis, x_text], axis=0)
    total = x.shape[0]
    n_prompt = len(prompt)

    visible = np.zeros((total, total), dtype=bool)
    for q in range(total):
        for k in range(total):
            visible[q, k] = k < n or k <= q

    all_maps = []
    for l in range(cfg.n_layers):
        la = adapters.layers[l] if adapters is not None else None
        acfg = adapters.cfg if adapters is not None else None
        pre = f"layer{l}."
        x_in = x
        h = _layer_norm(x_in, p[pre + "ln1.g"], p[pre + "ln1.b"])

        q_mat = h @ p[pre + "wq"].T + _lora(h, la.lora_q if la else None)
        if la is not None and acfg.use_qmoe:
            pooled = x_in[n: n + n_prompt].mean(axis=0)
            logits = _gate_logits(pooled[None, :], la.q_gate)[0]
            e = np.exp(logits - logits.max())
            alpha = e / e.sum()
            delta = np.zeros((cfg.d_model, cfg.d_model))
            for o in range(len(alpha)):
                delta += alpha[o] * expert_delta(la.q_bank, o)
            q_mat = q_mat + h @ delta.T

        k_mat = h @ p[pre + "wk"].T + _lora(h, la.lora_k if la else None)
        if la is not None and acfg.use_kmoe:
            gate_logits = _gate_logits(x_in[:n], la.k_gate)
            for c in range(n):
                e = np.exp(gate_logits[c] - gate_logits[c].max())
                beta = e / e.sum()
                delta = np.zeros((cfg.d_model, cfg.d_model))
                for o in _topb_indices(beta, acfg.top_b):
                    delta += beta[o] * expert_delta(la.k_bank, o)
                k_mat[c] = k_mat[c] + h[c] @ delta.T

        v_mat = h @ p[pre + "wv"].T + _lora(h, la.lora_v if la else None)

        dh = cfg.d_model // cfg.n_heads
        merged = np.zeros_like(h)
        layer_maps = []
        for head in range(cfg.n_heads):
            sl = slice(head * dh, (head + 1) * dh)
            qh, kh, vh = q_mat[:, sl], k_mat[:, sl], v_mat[:, sl]
            att = np.zeros((total, total))
            for row in range(total):
                att[row] = _softmax_masked(qh[row] @ kh.T / np.sqrt(dh),
                                           visible[row])
            layer_maps.append(att)
            merged[:, sl] = att @ vh
        all_maps.append(layer_maps)
        x = x_in + merged @ p[pre + "wo"].T + _lora(merged,
                                                    la.lora_o if la else None)
        h2 = _layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        f = _gelu(h2 @ p[pre + "ff1"].T + _lora(h2, la.lora_ff1 if la else None))
        x = x + f @ p[pre + "ff2"].T + _lora(f, la.lora_ff2 if la else None)

    x = _layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    logits = x @ p["w_out"].T
    return logits, all_maps


# ---------------------------------------------------------------------------
# gradient verification


class NumericError(AttnAlignError):
    """The objective under a finite-difference check is not finite."""


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


def finite_diff_check_params(f, params, step: float = 1e-4) -> float:
    """Worst gradient error of a no-argument objective over many leaves."""
    params = list(params)
    for p in params:
        p.grad = None
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
