"""Independent oracles used by the test suite.

Everything here is deliberately written the slow, obvious way: explicit
Python loops over matrix entries and forward-difference evaluation of the
loss function. None of it calls the library's vectorized forward or
backward code paths, so agreement is evidence, not tautology. The
exceptions are references the library no longer runs: the graph ops
``relu``, ``sum_all``, ``layer_norm_rows``, ``broadcast_add``, ``sub``,
``mul``, ``scale``, ``sigmoid`` and ``gather_rows`` that the fused nodes
must match bit for bit; ``composed_mca2``, the context-aware attention
block on the composed gate ops, with every intermediate;
``decode_logits``, the teacher-forced pass, and ``loop_decode_greedy``,
the decoding loop the cached decoder replaced; ``graph_decode_greedy``,
the cached decoder as graph ops, which the array decoder must match bit
for bit; ``loop_adam_step``, the tensor-by-tensor Adam step the flat-buffer
optimiser replaced; and ``loop_train_step``, the one-graph-per-instance
minibatch that whole-batch packs replaced.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from maf.errors import ShapeError
from maf.tensor import Segments, Tensor, _node, add, attention, gate_mix, matmul

FD_STEP = 1e-5


def numeric_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def gradients_close(analytic: np.ndarray, numeric: np.ndarray,
                    rtol: float, atol: float) -> tuple[bool, float]:
    """Check |a - n| <= atol + rtol * max(|a|, |n|) entrywise.

    Returns (ok, worst) where worst is the largest violation ratio
    |a - n| / (atol + rtol * max(|a|, |n|)); <= 1 means pass.
    """
    diff = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    ratio = diff / bound
    worst = float(ratio.max()) if ratio.size else 0.0
    return worst <= 1.0, worst


# ---- explicit-loop linear algebra ------------------------------------------


def loop_matmul(a, b):
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def loop_softmax_rows(x):
    out = []
    for row in x:
        m = max(row)
        e = [math.exp(v - m) for v in row]
        s = sum(e)
        out.append([v / s for v in e])
    return out


def loop_sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# ---- graph ops the fused nodes replaced ----------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(np.maximum(a.data, 0.0), "relu", (a,), lambda g: ((a, g * mask),))


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, returned as a 1x1 scalar tensor."""
    return _node(np.array([[a.data.sum()]]), "sum_all", (a,),
                 lambda g: ((a, np.full_like(a.data, g[0, 0])),))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an output gradient back down to a broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True)


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """a + b where an axis of size 1 stretches to match: ``tensor.add``
    before it took equal shapes only, for a bias row or a gate column."""
    if any(x != y and 1 not in (x, y) for x, y in zip(a.shape, b.shape)):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def back(g):
        return (
            (a, _unbroadcast(g, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(g, b.shape) if b.requires_grad else None),
        )

    return _node(a.data + b.data, "add", (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def back(g):
        return (
            (a, _unbroadcast(g, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(-g, b.shape) if b.requires_grad else None),
        )

    return _node(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data

    def back(g):
        return (
            (a, _unbroadcast(g * b_data, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(g * a_data, b.shape) if b.requires_grad else None),
        )

    return _node(a_data * b_data, "mul", (a, b), back)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function, outputs strictly inside (0, 1)."""
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node(out, "sigmoid", (a,), lambda g: ((a, g * out * (1.0 - out)),))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    c = float(c)
    return _node(a.data * c, "scale", (a,), lambda g: ((a, g * c),))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]."""
    idx = np.asarray(ids, dtype=np.int64)

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return ((table, gt),)

    return _node(table.data[idx], "gather_rows", (table,), back)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer norm with learned gain and bias (both 1 x d), in the
    arithmetic of ``tensor.add_layer_norm`` and with its eps."""
    s, d = x.data, x.shape[1]
    sc = s - s.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((sc ** 2).sum(axis=1, keepdims=True) / d + 1e-5)
    shat = sc * inv

    def back(g):
        dshat = g * gain.data
        gx = inv * (dshat - dshat.sum(axis=1, keepdims=True) / d
                    - shat * ((dshat * shat).sum(axis=1, keepdims=True) / d))
        return ((x, gx), (gain, (g * shat).sum(axis=0, keepdims=True)),
                (bias, g.sum(axis=0, keepdims=True)))

    return _node(shat * gain.data + bias.data, "layer_norm_rows", (x, gain, bias), back)


# ---- context-aware attention, equation by equation ---------------------------


def composed_mca2(h: Tensor, c: Tensor, p, gate_override: float | None = None) -> SimpleNamespace:
    """``mca2.mca2_forward`` with each gate as the composed ops the fused
    ``tensor.gate`` replaced, ``sigmoid(add(matmul, matmul))``; ``gate_override``
    pins both gates as there. Returns every intermediate: q, k, v, ctx_k,
    ctx_v, gate_k, gate_v, k_mixed, v_mixed and the output."""
    q, k, v = matmul(h, p.w_q), matmul(h, p.w_k), matmul(h, p.w_v)
    ctx_k, ctx_v = matmul(c, p.ctx_k), matmul(c, p.ctx_v)
    if gate_override is None:
        gate_k = sigmoid(add(matmul(k, p.gate_k_text), matmul(ctx_k, p.gate_k_ctx)))
        gate_v = sigmoid(add(matmul(v, p.gate_v_text), matmul(ctx_v, p.gate_v_ctx)))
    else:
        gate_k = gate_v = Tensor(np.full((h.shape[0], 1), float(gate_override)))
    k_mixed, v_mixed = gate_mix(gate_k, k, ctx_k), gate_mix(gate_v, v, ctx_v)
    return SimpleNamespace(q=q, k=k, v=v, ctx_k=ctx_k, ctx_v=ctx_v, gate_k=gate_k,
                           gate_v=gate_v, k_mixed=k_mixed, v_mixed=v_mixed,
                           output=attention(q, k_mixed, v_mixed))


def loop_mca2(h, c, p) -> np.ndarray:
    """Explicit-loop forward of the full context-aware attention block
    (single head). ``p`` maps parameter names to list-of-list matrices:
    w_q, w_k, w_v, ctx_k, ctx_v, gate_k_text, gate_k_ctx, gate_v_text,
    gate_v_ctx.
    """
    n = len(h)
    d = len(p["w_q"][0])

    q = loop_matmul(h, p["w_q"])
    k = loop_matmul(h, p["w_k"])
    v = loop_matmul(h, p["w_v"])
    ck = loop_matmul(c, p["ctx_k"])
    cv = loop_matmul(c, p["ctx_v"])

    gate_k, gate_v = [], []
    for i in range(n):
        zk = sum(k[i][j] * p["gate_k_text"][j][0] for j in range(d))
        zk += sum(ck[i][j] * p["gate_k_ctx"][j][0] for j in range(d))
        gate_k.append(loop_sigmoid_scalar(zk))
        zv = sum(v[i][j] * p["gate_v_text"][j][0] for j in range(d))
        zv += sum(cv[i][j] * p["gate_v_ctx"][j][0] for j in range(d))
        gate_v.append(loop_sigmoid_scalar(zv))

    k_mixed = [[(1.0 - gate_k[i]) * k[i][j] + gate_k[i] * ck[i][j] for j in range(d)]
               for i in range(n)]
    v_mixed = [[(1.0 - gate_v[i]) * v[i][j] + gate_v[i] * cv[i][j] for j in range(d)]
               for i in range(n)]

    inv = 1.0 / math.sqrt(d)
    logits = [[sum(q[i][t] * k_mixed[j][t] for t in range(d)) * inv for j in range(n)]
              for i in range(n)]
    weights = loop_softmax_rows(logits)
    out = [[sum(weights[i][j] * v_mixed[j][t] for j in range(n)) for t in range(d)]
           for i in range(n)]
    return np.array(out)


def loop_gif(h, h_audio, h_video, w_audio, w_video, b_audio, b_video) -> np.ndarray:
    """Explicit-loop forward of the gated fusion layer."""
    n, d = len(h), len(h[0])
    out = [[0.0] * d for _ in range(n)]
    for i in range(n):
        cat_a = list(h[i]) + list(h_audio[i])
        cat_v = list(h[i]) + list(h_video[i])
        for j in range(d):
            ga = sum(cat_a[t] * w_audio[t][j] for t in range(2 * d)) + b_audio[0][j]
            gv = sum(cat_v[t] * w_video[t][j] for t in range(2 * d)) + b_video[0][j]
            out[i][j] = h[i][j] + ga * h_audio[i][j] + gv * h_video[i][j]
    return np.array(out)


def loop_attend(q, k, v, d_k, mask=None) -> np.ndarray:
    """Single-head attention; ``mask`` (n x m) is added to the scaled logits."""
    n, d = len(q), len(q[0])
    m = len(k)
    inv = 1.0 / math.sqrt(d_k)
    logits = [[sum(q[i][t] * k[j][t] for t in range(d)) * inv
               + (0.0 if mask is None else mask[i][j]) for j in range(m)]
              for i in range(n)]
    weights = loop_softmax_rows(logits)
    dv = len(v[0])
    return np.array([[sum(weights[i][j] * v[j][t] for j in range(m)) for t in range(dv)]
                     for i in range(n)])


def loop_held_attention(q, k, v, heads, rows, cols, causal, g):
    """Output and q/k/v gradients (for output gradient ``g``) of packed
    attention, from padded ``S x heads x L x w`` stacks built one segment
    at a time and held from the forward pass to the backward one. The
    arithmetic is the kernel's, padding rows repeat row 0 as there, so the
    kernel, which gathers its stacks again in backward, must match this
    bit for bit."""
    s, lq, lk = len(rows), max(rows), max(cols)
    d_v = v.shape[1]
    c = 1.0 / math.sqrt(q.shape[1] // heads)

    def starts(lengths):
        return np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)

    def stack(x, lengths, width):
        out = np.empty((s, width, x.shape[1]))
        for i, (start, n) in enumerate(zip(starts(lengths), lengths)):
            out[i, :n] = x[start:start + n]
            out[i, n:] = x[0]
        return out.reshape(s, width, heads, -1).transpose(0, 2, 1, 3)

    def rows_of(xs, lengths):
        flat = xs.transpose(0, 2, 1, 3).reshape(s, xs.shape[2], -1)
        return np.concatenate([flat[i, :n] for i, n in enumerate(lengths)])

    qs, ks, vs = stack(q, rows, lq), stack(k, cols, lk), stack(v, cols, lk)
    fill = np.zeros((s, 1, lq, lk))
    for i, m in enumerate(cols):
        fill[i, :, :, m:] = -1e9
    if causal:
        fill += np.triu(np.full((lq, lk), -1e9), k=1)
    logits = (qs @ ks.swapaxes(-1, -2)) * c + fill
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = rows_of(w @ vs, rows)

    g_rows = np.zeros((s, lq, d_v))
    for i, (start, n) in enumerate(zip(starts(rows), rows)):
        g_rows[i, :n] = g[start:start + n]
    g_out = g_rows.reshape(s, lq, heads, -1).transpose(0, 2, 1, 3)
    gw = g_out @ vs.swapaxes(-1, -2)
    gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * c
    return (out, rows_of(gs @ ks, rows), rows_of(gs.swapaxes(-1, -2) @ qs, cols),
            rows_of(w.swapaxes(-1, -2) @ g_out, cols))


def loop_bucket_means(frames, n) -> np.ndarray:
    """Temporal alignment oracle: contiguous buckets, larger buckets first;
    fewer frames than rows repeats frames over row groups."""
    f = len(frames)
    d = len(frames[0])

    def sizes(total, groups):
        base, rem = divmod(total, groups)
        return [base + 1] * rem + [base] * (groups - rem)

    out = []
    if f >= n:
        start = 0
        for s in sizes(f, n):
            rows = frames[start:start + s]
            out.append([sum(r[j] for r in rows) / s for j in range(d)])
            start += s
    else:
        for j, s in enumerate(sizes(n, f)):
            out.extend([list(frames[j])] * s)
    return np.array(out)


# ---- greedy decoding without a cache ------------------------------------------


def decode_logits(enc_out, target_in_ids, cfg, params) -> Tensor:
    """Teacher-forced decoder pass over one target: one causal pass, one
    logit row per input token. Training runs the same layers on packs."""
    from maf.model import _decoder_stack, _embed, sinusoidal_positions

    n = len(target_in_ids)
    x = _embed(target_in_ids, sinusoidal_positions(n, cfg.d), params)
    return _decoder_stack(x, enc_out, cfg, params, Segments([n], [n], causal=True),
                          Segments([n], [enc_out.shape[0]]))


def loop_decode_greedy(enc_out, cfg, params):
    """Greedy decoding that reruns the teacher-forced decoder on the whole
    growing prefix at every step and keeps its last row, up to
    ``max_target_len`` steps. Returns the generated ids and the logit row
    of every step taken."""
    from maf.text import Vocabulary

    ids = [Vocabulary.BOS_ID]
    rows = []
    for _ in range(cfg.max_target_len):
        rows.append(decode_logits(enc_out, ids, cfg, params).data[-1])
        nxt = int(np.argmax(rows[-1]))
        if nxt == Vocabulary.EOS_ID:
            break
        ids.append(nxt)
    return ids[1:], rows


def graph_decode_greedy(enc_out, cfg, params):
    """The cached greedy decoder as graph ops: each step embeds one token,
    appends its self-attention K/V to per-layer buffers and runs the
    decoder layers of training on that one row, each attention on a
    one-segment layout. Returns the generated ids and the logit row of
    every step taken; on trainable ``params`` the ops record a graph,
    which nothing walks."""
    from maf.model import _decoder_layer, _embed, _project_kv, sinusoidal_positions
    from maf.text import Vocabulary

    limit, d = cfg.max_target_len, cfg.d
    positions = sinusoidal_positions(limit, d)
    keys = [np.empty((limit, d)) for _ in params.dec]
    values = [np.empty((limit, d)) for _ in params.dec]
    ids, rows = [], []
    token = Vocabulary.BOS_ID
    cross_kv = [_project_kv(enc_out, layer.cross_attn) for layer in params.dec]
    cross_layout = Segments([1], [enc_out.shape[0]])
    for t in range(limit):
        x = _embed([token], positions[t:t + 1], params)
        for layer, kv, k_rows, v_rows in zip(params.dec, cross_kv, keys, values):
            k, v = _project_kv(x, layer.self_attn)
            k_rows[t], v_rows[t] = k.data[0], v.data[0]
            x = _decoder_layer(x, (Tensor(k_rows[:t + 1]), Tensor(v_rows[:t + 1])), kv,
                               layer, cfg.heads, Segments([1], [t + 1]), cross_layout)
        rows.append(broadcast_add(matmul(x, params.out_proj), params.out_bias).data[0])
        token = int(np.argmax(rows[-1]))
        if token == Vocabulary.EOS_ID:
            break
        ids.append(token)
    return ids, rows


# ---- Adam one tensor at a time ---------------------------------------------------


def loop_adam_step(named, m: dict, v: dict, t: int, lr: float, grad_clip: float) -> None:
    """Step ``t`` (1-based) of Adam with bias correction and global-norm
    clipping, tensor by tensor: the clip norm is a sum of per-tensor sums,
    and each updated ``data`` is replaced, not written in place. ``m`` and
    ``v`` map parameter names to moments, zeros before the first step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for _, p in named))
    factor = grad_clip / total if total > grad_clip else 1.0
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in named:
        g = p.grad
        if factor != 1.0:
            g = g * factor
        m[name] = beta1 * m.get(name, np.zeros_like(p.data)) + (1.0 - beta1) * g
        v[name] = beta2 * v.get(name, np.zeros_like(p.data)) + (1.0 - beta2) * (g * g)
        p.data = p.data - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


# ---- a minibatch one instance at a time --------------------------------------------


def loop_train_step(items, cfg, params) -> float:
    """``model._batch_backward`` one instance at a time: a one-instance
    graph per item, each backpropagated scaled by 1/B. Returns the mean of
    the instance losses."""
    from maf.model import _instance_loss
    from maf.tensor import backward

    total = 0.0
    for item in items:
        loss = _instance_loss(*item, cfg, params)
        backward(scale(loss, 1.0 / len(items)))
        total += loss.item()
    return total / len(items)
