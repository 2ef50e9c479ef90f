"""Dense float64 matrices with reverse-mode automatic differentiation.

The computation graph is recorded on the tensors themselves: every
operation stores its kind, references to its input tensors, and a closure
holding whatever values its backward rule needs. Calling ``backward`` on a
scalar result walks that graph once in reverse topological order and
accumulates gradients into every ``requires_grad`` leaf.

Only the ops the model runs live here; the composed ops that the fused
nodes replace are references in ``tests/oracles.py``.

Conventions used throughout the package:

* storage is row-major ``float64``; a Tensor is a 2-D matrix by
  construction (a scalar is ``1 x 1``), so ops take their Tensor operands
  as given and do not re-check them;
* ``add`` takes two equal shapes; only a fused op's 1-row bias or
  n x 1 gate is broadcast, as its docstring says;
* a tensor that has been recorded in a graph is never mutated in place
  while the graph lives (the optimizer updates leaf ``.data`` in place,
  but only after every graph has been freed);
* ``backward`` walks a graph once and frees it as it goes: each node
  below the loss drops its parents and backward closure as soon as it
  has been walked, so a second ``backward`` through the same graph
  raises ``ContractError``; build the graph again instead. Leaf
  gradients accumulate additively across graphs until ``zero_grad``
  clears them;
* an op records a graph node only if one of its inputs has
  ``requires_grad``; a trained model's parameters are frozen (no
  ``requires_grad``), so the encoder runs on them with no graph;
* the fused ops ``linear``, ``embed``, ``gate``, ``gate_mix``,
  ``gated_stream``, ``add_layer_norm``, ``feed_forward`` and
  ``attention`` are one graph node each where composed ops would be
  several: the same arithmetic in the same order, so the same bits, with
  no intermediate product kept that backward does not read;
* the forwards of the fused ops ``feed_forward`` and ``attention`` are
  private array functions (``_attention`` takes the stacked heads of any
  layout), which the ops call and greedy decoding calls directly, with no
  Tensor at all; decoding's step is one 1-D row, so it calls them on it
  as they are, and ``_add_layer_norm_row``, ``add_layer_norm``'s forward
  for one row, with the same bits;
* a parameter tree is first built of ``Slot``s, shapes with no storage,
  which ``allocate`` fills: its size is known before anything is
  allocated.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "add",
    "matmul",
    "linear",
    "concat_last",
    "Segments",
    "attention",
    "embed",
    "gate",
    "gate_mix",
    "gated_stream",
    "add_layer_norm",
    "feed_forward",
    "cross_entropy_rows",
    "backward",
    "zeros",
    "glorot_uniform",
    "Slot",
    "allocate",
    "named_parameters",
]


class Tensor:
    """A 2-D float64 matrix plus the bookkeeping needed for backprop; the
    constructor is the one place the 2-D shape is checked.

    ``op`` names the operation that produced the tensor (``"leaf"`` for
    inputs and parameters), ``parents`` are the input tensors, and the
    private backward closure maps the output gradient to per-parent
    gradient contributions. Only tensors with ``requires_grad`` keep their
    parent links, so constant subgraphs cost nothing at backward time.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"a Tensor is a 2-D matrix, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Iterable[tuple["Tensor", np.ndarray | None]]] | None = None

    # ---- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        head = np.array2string(self.data, precision=4, threshold=8)
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})\n{head}"


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = tuple(parents)
        out._backward = backward_fn
    else:
        # constant subgraph: keep the value, drop the graph
        out.requires_grad = False
        out.parents = ()
        out._backward = None
    return out


# ---- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of two equal shapes; each receives the output gradient as is."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def back(g):
        return ((a, g if a.requires_grad else None), (b, g if b.requires_grad else None))

    return _node(a.data + b.data, "add", (a, b), back)


# ---- linear algebra ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def back(g):
        return (
            (a, g @ b_data.T if a.requires_grad else None),
            (b, a_data.T @ g if b.requires_grad else None),
        )

    return _node(out, "matmul", (a, b), back)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two matrices along the last (column) axis."""
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_last: row counts disagree, {a.shape} vs {b.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    split = a.shape[1]

    def back(g):
        return (
            (a, g[:, :split] if a.requires_grad else None),
            (b, g[:, split:] if b.requires_grad else None),
        )

    return _node(out, "concat_last", (a, b), back)


# ---- fused ops ---------------------------------------------------------------

# added to each row's variance inside the layer norm's square root
_LN_EPS = 1e-5


def _add_layer_norm_row(x: np.ndarray, y: np.ndarray, gain: np.ndarray,
                        bias: np.ndarray) -> np.ndarray:
    """``add_layer_norm``'s output for one row, all four arguments 1-D: its
    arithmetic in its order, with the mean and 1/std as scalars, so 8
    array calls where the matrix form makes 13."""
    s = x + y
    d = s.shape[0]
    # ndarray.mean is np.add.reduce / d behind a Python wrapper, which on
    # one row costs as much as the arithmetic
    sc = s - np.add.reduce(s) / d
    inv = 1.0 / math.sqrt(np.add.reduce(sc ** 2) / d + _LN_EPS)
    return sc * inv * gain + bias


def _feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                  b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``feed_forward``'s forward on arrays: the output and the hidden
    activations its backward reads."""
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2, hidden


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer norm of the residual sum ``x + y``, with learned gain
    and bias (both 1 x d), as one node: the sum is never a tensor, and x
    and y receive the same gradient."""
    if y.shape != x.shape:
        raise ShapeError(f"add_layer_norm: shapes {x.shape} and {y.shape} differ")
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ShapeError(f"add_layer_norm: gain/bias must be (1, {d}), got {gain.shape} "
                         f"and {bias.shape}")
    s = x.data + y.data
    sc = s - s.mean(1, keepdims=True)
    inv = 1.0 / np.sqrt((sc ** 2).mean(1, keepdims=True) + _LN_EPS)
    shat = sc * inv

    def back(g):
        gs = None
        if x.requires_grad or y.requires_grad:
            dshat = g * gain.data
            gs = inv * (
                dshat
                - dshat.sum(axis=1, keepdims=True) / d
                - shat * ((dshat * shat).sum(axis=1, keepdims=True) / d)
            )
        ggain = (g * shat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        return ((x, gs), (y, gs), (gain, ggain), (bias, gbias))

    return _node(shat * gain.data + bias.data, "add_layer_norm", (x, y, gain, bias), back)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max(x w1 + b1, 0) w2 + b2 as one node; the biases are 1-row matrices."""
    if x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"feed_forward: inner dimensions disagree, {x.shape} @ {w1.shape} "
                         f"@ {w2.shape}")
    if b1.shape != (1, w1.shape[1]) or b2.shape != (1, w2.shape[1]):
        raise ShapeError(f"feed_forward: biases must be (1, {w1.shape[1]}) and "
                         f"(1, {w2.shape[1]}), got {b1.shape} and {b2.shape}")
    out, hidden = _feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)

    def back(g):
        # hidden > 0 exactly where the pre-activation is > 0, NaN included,
        # so the graph keeps hidden only
        gh = (g @ w2.data.T) * (hidden > 0)
        return (
            (x, gh @ w1.data.T if x.requires_grad else None),
            (w1, x.data.T @ gh if w1.requires_grad else None),
            (b1, gh.sum(axis=0, keepdims=True) if b1.requires_grad else None),
            (w2, hidden.T @ g if w2.requires_grad else None),
            (b2, g.sum(axis=0, keepdims=True) if b2.requires_grad else None),
        )

    return _node(out, "feed_forward", (x, w1, b1, w2, b2), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w + b as one node, b a 1-row bias: ``add(matmul(x, w), b)``'s
    arithmetic, with no x w product kept for backward."""
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions disagree, {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear: bias must be (1, {w.shape[1]}), got {b.shape}")
    x_data, w_data = x.data, w.data

    def back(g):
        return (
            (x, g @ w_data.T if x.requires_grad else None),
            (w, x_data.T @ g if w.requires_grad else None),
            (b, g.sum(axis=0, keepdims=True) if b.requires_grad else None),
        )

    return _node(x_data @ w_data + b.data, "linear", (x, w, b), back)


def embed(table: Tensor, ids: Sequence[int], c: float, positions: np.ndarray) -> Tensor:
    """Embedding rows table[ids] * c + positions as one node, whose one
    parent is the table: the row lookup, the scale by the constant c and
    the sum with the constant position rows in that order, with none of
    their products kept for backward. Repeated ids add their gradients
    into one table row."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embed: ids must be a flat sequence, got shape {idx.shape}")
    if idx.size == 0:
        raise ContractError("embed: empty id sequence")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ContractError(f"embed: id out of range for table with {table.shape[0]} rows")
    if positions.shape != (idx.size, table.shape[1]):
        raise ShapeError(f"embed: positions must be ({idx.size}, {table.shape[1]}), "
                         f"got {positions.shape}")
    c = float(c)

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g * c)
        return ((table, gt),)

    return _node(table.data[idx] * c + positions, "embed", (table,), back)


def gate_mix(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """(1 - g) a + g b as one node, the n x 1 gate g broadcast across the
    columns of the n x d a and b: the arithmetic of the composed
    subtract, multiply and add ops, with none of their products kept for
    backward."""
    n, d = a.shape
    if b.shape != a.shape or g.shape != (n, 1):
        raise ShapeError(f"gate_mix: needs an ({n}, 1) gate and two ({n}, {d}) inputs, "
                         f"got {g.shape}, {a.shape} and {b.shape}")
    g_data, a_data, b_data = g.data, a.data, b.data

    def back(grad):
        gg = None
        if g.requires_grad:
            gg = ((grad * b_data).sum(axis=1, keepdims=True)
                  - (grad * a_data).sum(axis=1, keepdims=True))
        return (
            (g, gg),
            (a, grad * (1.0 - g_data) if a.requires_grad else None),
            (b, grad * g_data if b.requires_grad else None),
        )

    return _node((1.0 - g_data) * a_data + g_data * b_data, "gate_mix", (g, a, b), back)


def gate(a: Tensor, w_a: Tensor, b: Tensor, w_b: Tensor) -> Tensor:
    """logistic(a w_a + b w_b) as one node, the logistic in its numerically
    stable form: the arithmetic of the composed products, sum and logistic,
    with neither product nor their sum kept for backward."""
    if (a.shape[1], b.shape[1]) != (w_a.shape[0], w_b.shape[0]) \
            or (a.shape[0], w_a.shape[1]) != (b.shape[0], w_b.shape[1]):
        raise ShapeError(f"gate: cannot sum the products {a.shape} @ {w_a.shape} and "
                         f"{b.shape} @ {w_b.shape}")
    z = a.data @ w_a.data + b.data @ w_b.data
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        gz = g * out * (1.0 - out)
        return (
            (a, gz @ w_a.data.T if a.requires_grad else None),
            (w_a, a.data.T @ gz if w_a.requires_grad else None),
            (b, gz @ w_b.data.T if b.requires_grad else None),
            (w_b, b.data.T @ gz if w_b.requires_grad else None),
        )

    return _node(out, "gate", (a, w_a, b, w_b), back)


def gated_stream(h: Tensor, s: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """([h | s] w + b) * s as one node, b a 1-row bias: the stream s scaled
    by a linear gate on h and s. The node keeps the gate, not [h | s],
    which backward builds again from the inputs' data."""
    (n, split), d = h.shape, s.shape[1]
    if s.shape[0] != n or w.shape != (split + d, d) or b.shape != (1, d):
        raise ShapeError(f"gated_stream: needs ({split + d}, {d}) w and (1, {d}) b for h {h.shape} "
                         f"and s ({n}, {d}), got s {s.shape}, w {w.shape} and b {b.shape}")
    g_s = np.concatenate([h.data, s.data], axis=1) @ w.data + b.data

    def back(g):
        gg = g * s.data
        g_cat = gg @ w.data.T if h.requires_grad or s.requires_grad else None
        return (
            (h, g_cat[:, :split] if h.requires_grad else None),
            # s reaches the output twice: as the gated stream and through its gate
            (s, g * g_s + g_cat[:, split:] if s.requires_grad else None),
            (w, np.concatenate([h.data, s.data], axis=1).T @ gg if w.requires_grad else None),
            (b, gg.sum(axis=0, keepdims=True) if b.requires_grad else None),
        )

    return _node(g_s * s.data, "gated_stream", (h, s, w, b), back)


# additive logit for a key a query must not see: softmax gives it weight 0
_MASKED = -1e9


class Segments:
    """Row layout of a packed attention: segment i owns ``rows[i]``
    consecutive query rows and ``cols[i]`` consecutive key/value rows, and
    its queries see its own keys only. With ``causal``, query j of a
    segment sees that segment's keys 0..j. Build it once per layout and
    pass it to every ``attention`` over those rows.

    The kernel stacks the segments into an ``S x heads x L x w`` array,
    L the longest segment, so the index arrays and the additive fill of
    padding keys and causal positions are computed here, once, with no
    per-segment loop: a layout may hold hundreds of segments.
    """

    __slots__ = ("n", "m", "_q_idx", "_k_idx", "_q_sel", "_k_sel", "_fill")

    def __init__(self, rows: Sequence[int], cols: Sequence[int], causal: bool = False):
        rows_a, cols_a = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if rows_a.ndim != 1 or rows_a.shape != cols_a.shape or rows_a.size == 0:
            raise ContractError(f"Segments: rows {list(rows)} and cols {list(cols)} must be "
                                f"non-empty and of equal length")
        if rows_a.min() < 1 or cols_a.min() < 1:
            raise ContractError("Segments: every segment needs at least one row and one column")
        self.n, self.m = int(rows_a.sum()), int(cols_a.sum())
        lq, lk = int(rows_a.max()), int(cols_a.max())
        # padding keys, S x 1 x 1 x lk: the kernel broadcasts it over heads and queries
        fill = np.where(np.arange(lk) < cols_a[:, None], 0.0, _MASKED)[:, None, None, :]
        if causal:
            fill = fill + np.triu(np.full((lq, lk), _MASKED), k=1)
        self._fill = fill
        self._q_idx, self._q_sel = _segment_index(rows_a, lq)
        self._k_idx, self._k_sel = _segment_index(cols_a, lk)


def _segment_index(lengths: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """For segments of ``lengths`` rows stacked in order: the S x width
    row index of the padded stack (padding repeats row 0) and the flat
    stack positions of the real rows, in row order."""
    pos = np.arange(width)
    real = pos < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    return np.where(real, starts[:, None] + pos, 0), np.flatnonzero(real)


def _split_heads(xs: np.ndarray, heads: int) -> np.ndarray:
    """S x L x (heads w) to the S x heads x L x w stack."""
    return xs.reshape(xs.shape[0], xs.shape[1], heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(xs: np.ndarray, sel: np.ndarray | None) -> np.ndarray:
    """S x heads x L x w stack to rows x (heads w), real rows only."""
    s, heads, length, w = xs.shape
    flat = xs.transpose(0, 2, 1, 3).reshape(s * length, heads * w)
    return flat if sel is None else flat[sel]


def _attention(qs: np.ndarray, ks: np.ndarray, vs: np.ndarray, c: float,
               fill: np.ndarray | None, q_sel: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``attention``'s forward on an S x heads stack: the output rows
    softmax(Q K^T * c + fill) V, real query rows ``q_sel`` only (None:
    all), and the softmax weights its backward reads. The logits are
    shifted by their row max."""
    logits = (qs @ ks.swapaxes(-1, -2)) * c
    if fill is not None:
        logits += fill
    # ndarray.max and .sum without their Python wrappers, which cost as much
    # as the arithmetic on a decoder step's one-query stacks
    e = np.exp(logits - np.maximum.reduce(logits, -1, keepdims=True))
    w = e / np.add.reduce(e, -1, keepdims=True)
    return _merge_heads(w @ vs, q_sel), w


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
              layout: Segments | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as a single graph node.

    ``q`` is n x d, ``k`` is m x d and ``v`` is m x d_v. The columns of each
    split into ``heads`` equal blocks; block h of the output is
    softmax(Q_h K_h^T / sqrt(d / heads)) V_h, with a row-max shift inside
    the softmax. ``layout`` splits the rows into segments that attend
    within themselves only (see ``Segments``); None is ``Segments([n],
    [m])``, one segment holding every row, with no causal fill.

    Every (segment, head) pair is one matrix of an ``S x heads`` stack, so
    the softmax and its analytic backward are a few batched products:
    with dW = dO V^T, dS = W * (dW - rowsum(dW * W)) / sqrt(d_k),
    dQ = dS K, dK = dS^T Q and dV = W^T dO. Keys hidden from a query get
    the logit -1e9, so weight 0; padded query rows are dropped from the
    output, so they get no gradient.
    """
    (n, d), (m, d_v) = q.shape, v.shape
    if k.shape[1] != d:
        raise ShapeError(f"attention: query/key widths disagree, {q.shape} vs {k.shape}")
    if k.shape[0] != m:
        raise ShapeError(f"attention: key/value row counts disagree, {k.shape} vs {v.shape}")
    if heads < 1 or d % heads or d_v % heads:
        raise ShapeError(f"attention: {heads} heads do not divide widths {d} and {d_v}")
    if layout is None:
        layout = Segments([n], [m])
    elif (layout.n, layout.m) != (n, m):
        raise ShapeError(f"attention: layout covers {layout.n} queries and {layout.m} keys, "
                         f"got {n} and {m}")
    q_idx, k_idx, q_sel, k_sel = layout._q_idx, layout._k_idx, layout._q_sel, layout._k_sel
    c = 1.0 / math.sqrt(d // heads)
    q_data, k_data, v_data = q.data, k.data, v.data

    # backward gathers the stacks again from the inputs' data, which the
    # graph keeps anyway as parent data, rather than hold them
    def stacks():
        return (_split_heads(q_data[q_idx], heads), _split_heads(k_data[k_idx], heads),
                _split_heads(v_data[k_idx], heads))

    out, w = _attention(*stacks(), c, layout._fill, q_sel)

    def back(g):
        # padded query rows get zero gradient
        g_rows = np.zeros((w.shape[0], w.shape[2], d_v))
        g_rows.reshape(-1, d_v)[q_sel] = g
        g_out = _split_heads(g_rows, heads)
        gq = gk = None
        if q.requires_grad or k.requires_grad:  # constant q and k (pooling) need no dS
            qs, ks, vs = stacks()
            gw = g_out @ vs.swapaxes(-1, -2)
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * c
            gq = _merge_heads(gs @ ks, q_sel) if q.requires_grad else None
            gk = _merge_heads(gs.swapaxes(-1, -2) @ qs, k_sel) if k.requires_grad else None
        gv = _merge_heads(w.swapaxes(-1, -2) @ g_out, k_sel) if v.requires_grad else None
        return ((q, gq), (k, gk), (v, gv))

    return _node(out, "attention", (q, k, v), back)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Each row's log-softmax, shifted by the row max."""
    z = x - x.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def cross_entropy_rows(logits: Tensor, targets: Sequence[int], weights: Sequence[float]) -> Tensor:
    """Weighted mean negative log-likelihood over rows of a logit matrix.

    ``targets[i]`` is the correct class for row i and ``weights[i]`` its
    contribution (a row of weight 0 adds nothing). The result is
    sum(w_i * nll_i) / sum(w_i).
    """
    idx = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    rows, classes = logits.shape
    if idx.shape != (rows,) or w.shape != (rows,):
        raise ShapeError(
            f"cross_entropy_rows: targets/weights must have shape ({rows},), "
            f"got {idx.shape} and {w.shape}"
        )
    if idx.min() < 0 or idx.max() >= classes:
        raise ContractError(f"cross_entropy_rows: target id out of range for {classes} classes")
    denom = w.sum()
    if denom <= 0:
        raise ContractError("cross_entropy_rows: weights sum to zero, nothing to score")
    logits_data = logits.data
    nll = -_log_softmax(logits_data)[np.arange(rows), idx]
    out = np.array([[float((nll * w).sum() / denom)]])

    # backward computes the log-softmax again from the logits, which the
    # graph keeps anyway as parent data, rather than hold a second copy
    def back(g):
        p = np.exp(_log_softmax(logits_data))
        p[np.arange(rows), idx] -= 1.0
        return ((logits, p * (w / denom)[:, None] * g[0, 0]),)

    return _node(out, "cross_entropy_rows", (logits,), back)


# ---- backward -------------------------------------------------------------


def _walked(g):
    raise ContractError("backward: this graph node was freed by an earlier backward")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf below loss,
    freeing the graph as the walk goes.

    The loss must be a scalar (single-element) tensor produced by a
    recorded graph. Each graph node is visited exactly once, in reverse
    topological order. Once walked, a node keeps its ``data`` but drops its
    parents and backward closure, whether or not a gradient reached it, so
    a step's peak memory is its forward graph alone. A graph is walked
    once: a second ``backward`` that reaches a walked node raises
    ``ContractError`` before anything is accumulated. Leaf ``.grad`` keeps
    adding across graphs until ``zero_grad`` clears it.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: loss is not connected to any requires_grad tensor")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _walked:
            raise ContractError("backward: the graph below this loss has already been walked "
                                "and freed; build it again to backpropagate again")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # popping lets each node go as soon as it has been walked: its children
    # have dropped their parent links already, and the list no longer holds it
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = flow.pop(id(node), None)
        back = node._backward
        if back is None:
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        node._backward, node.parents = _walked, ()
        if g is None:
            continue
        for parent, pg in back(g):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in flow:
                flow[pid] = flow[pid] + pg
            else:
                flow[pid] = pg


# ---- constructors ----------------------------------------------------------


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Fan-balanced uniform init, U(+-sqrt(6 / (fan_in + fan_out)))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


# ---- parameter containers ----------------------------------------------------


class Slot(NamedTuple):
    """A trainable parameter before it is allocated: its shape and its
    start values, "glorot" (``glorot_uniform``), "zeros" or "ones"."""

    rows: int
    cols: int
    fill: str = "glorot"

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols


def allocate(slots, rng: np.random.Generator | None):
    """A dataclass tree of ``Slot``s with each one replaced by a trainable
    Tensor. Slots are filled in ``named_parameters`` order, so the glorot
    ones draw from ``rng`` in that order."""
    if isinstance(slots, Slot):
        if slots.fill == "glorot":
            return glorot_uniform(rng, slots.rows, slots.cols)
        fill = np.ones if slots.fill == "ones" else np.zeros
        return Tensor(fill(slots.shape), requires_grad=True)
    if isinstance(slots, list):
        return [allocate(item, rng) for item in slots]
    if is_dataclass(slots):
        return replace(slots, **{f.name: allocate(getattr(slots, f.name), rng) for f in fields(slots)})
    return slots


def named_parameters(params) -> list[tuple[str, Tensor]]:
    """Every Tensor in a dataclass tree (every Slot, in a tree not yet
    allocated), named by its path, in declaration order: fields by name,
    list items by index, ``None`` skipped (``enc.0.attn.w_q``). Checkpoint
    layout and the order of the optimizer's clip-norm sum follow this
    order."""
    return list(_walk(params, ""))


def _walk(value, name: str) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, (Tensor, Slot)):
        yield name, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, f"{name}.{i}")
    elif is_dataclass(value):
        for f in fields(value):
            yield from _walk(getattr(value, f.name), f"{name}.{f.name}" if name else f.name)
