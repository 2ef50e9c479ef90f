"""Dense float64 matrices with reverse-mode automatic differentiation.

The computation graph is recorded on the tensors themselves: every
operation stores its kind, references to its input tensors, and a closure
holding whatever values its backward rule needs. Calling ``backward`` on a
scalar result walks that graph once in reverse topological order and
accumulates gradients into every ``requires_grad`` leaf.

Conventions used throughout the package:

* storage is row-major ``float64``; everything is a 2-D matrix and scalars
  are represented as ``1 x 1``;
* elementwise ops broadcast by trailing-dimension rules: both operands
  need the same number of axes, and an axis of size 1 stretches to match;
* a tensor that has been recorded in a graph is never mutated in place
  (optimizers update leaf ``.data`` only between graph builds);
* gradients accumulate additively across ``backward`` calls until
  ``zero_grad`` clears them;
* inside ``with no_grad():`` no graph is recorded at all, which is how
  inference runs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "add",
    "sub",
    "mul",
    "matmul",
    "scale",
    "sigmoid",
    "relu",
    "concat_last",
    "attention",
    "gather_rows",
    "sum_all",
    "layer_norm_rows",
    "cross_entropy_rows",
    "backward",
    "no_grad",
    "zeros",
    "glorot_uniform",
    "named_parameters",
]


class Tensor:
    """A float64 matrix plus the bookkeeping needed for backprop.

    ``op`` names the operation that produced the tensor (``"leaf"`` for
    inputs and parameters), ``parents`` are the input tensors, and the
    private backward closure maps the output gradient to per-parent
    gradient contributions. Only tensors with ``requires_grad`` keep their
    parent links, so constant subgraphs cost nothing at backward time.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
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
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        head = np.array2string(self.data, precision=4, threshold=8)
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})\n{head}"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# Process-wide, like the package: one thread records graphs at a time.
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: every op result is a constant
    (``requires_grad`` False, no parents, no backward closure), whatever
    its inputs. The flag is process-wide, not per thread. Nesting works,
    and the previous state comes back on exit, on an exception too."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = tuple(parents)
        out._backward = backward_fn
    else:
        # constant subgraph: keep the value, drop the graph
        out.requires_grad = False
        out.parents = ()
        out._backward = None
    return out


def _require_matrix(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise ShapeError(f"{op} expects 2-D tensors, got shape {t.data.shape}")


# ---- broadcasting helpers ----------------------------------------------


def _broadcast_shape(sa: tuple[int, ...], sb: tuple[int, ...], op: str) -> tuple[int, ...]:
    if len(sa) != len(sb):
        raise ShapeError(f"{op}: operands need the same rank, got {sa} and {sb}")
    out = []
    for x, y in zip(sa, sb):
        if x == y:
            out.append(x)
        elif x == 1:
            out.append(y)
        elif y == 1:
            out.append(x)
        else:
            raise ShapeError(f"{op}: shapes {sa} and {sb} do not broadcast")
    return tuple(out)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an output gradient back down to a broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True)


# ---- elementwise arithmetic ---------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _broadcast_shape(a.shape, b.shape, "add")
    out = a.data + b.data

    def back(g):
        return (
            (a, _unbroadcast(g, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(g, b.shape) if b.requires_grad else None),
        )

    return _node(out, "add", (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _broadcast_shape(a.shape, b.shape, "sub")
    out = a.data - b.data

    def back(g):
        return (
            (a, _unbroadcast(g, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(-g, b.shape) if b.requires_grad else None),
        )

    return _node(out, "sub", (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _broadcast_shape(a.shape, b.shape, "mul")
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def back(g):
        return (
            (a, _unbroadcast(g * b_data, a.shape) if a.requires_grad else None),
            (b, _unbroadcast(g * a_data, b.shape) if b.requires_grad else None),
        )

    return _node(out, "mul", (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    a = _coerce(a)
    c = float(c)
    out = a.data * c

    def back(g):
        return ((a, g * c),)

    return _node(out, "scale", (a,), back)


# ---- linear algebra ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _require_matrix(a, "matmul")
    _require_matrix(b, "matmul")
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
    a, b = _coerce(a), _coerce(b)
    _require_matrix(a, "concat_last")
    _require_matrix(b, "concat_last")
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


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row lookup (embedding): out[i] = table[ids[i]]."""
    table = _coerce(table)
    _require_matrix(table, "gather_rows")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: ids must be a flat sequence, got shape {idx.shape}")
    if idx.size == 0:
        raise ContractError("gather_rows: empty id sequence")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ContractError(f"gather_rows: id out of range for table with {table.shape[0]} rows")
    out = table.data[idx].copy()

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return ((table, gt),)

    return _node(out, "gather_rows", (table,), back)


# ---- nonlinearities -------------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function, outputs strictly inside (0, 1)."""
    a = _coerce(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        return ((a, g * out * (1.0 - out)),)

    return _node(out, "sigmoid", (a,), back)


def relu(a: Tensor) -> Tensor:
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0

    def back(g):
        return ((a, g * mask),)

    return _node(out, "relu", (a,), back)


# ---- reductions and fused ops --------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, returned as a 1x1 scalar tensor."""
    a = _coerce(a)
    out = np.array([[a.data.sum()]])

    def back(g):
        return ((a, np.full_like(a.data, g[0, 0])),)

    return _node(out, "sum_all", (a,), back)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalization with learned gain and bias (both 1 x d)."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    _require_matrix(x, "layer_norm_rows")
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise ShapeError(
            f"layer_norm_rows: gain/bias must be (1, {d}), got {gain.shape} and {bias.shape}"
        )
    # row means as sum / d: what ndarray.mean computes, without its Python wrapper
    xc = x.data - x.data.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc ** 2).sum(axis=1, keepdims=True) / d + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def back(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data
            gx = inv * (
                dxhat
                - dxhat.sum(axis=1, keepdims=True) / d
                - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / d)
            )
        ggain = (g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        return ((x, gx), (gain, ggain), (bias, gbias))

    return _node(out, "layer_norm_rows", (x, gain, bias), back)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as a single graph node.

    ``q`` is n x d, ``k`` is m x d and ``v`` is m x d_v. The columns of each
    split into ``heads`` equal blocks; block h of the output is
    softmax(Q_h K_h^T / sqrt(d / heads) + mask) V_h, with a row-max shift
    inside the softmax. ``mask`` is an optional n x m additive constant
    (no gradient), e.g. large negatives above the diagonal for causal
    attention. The backward pass is analytic and reuses the stored softmax
    weights: with dW = dO V^T, dS = W * (dW - rowsum(dW * W)) / sqrt(d_k),
    dQ = dS K, dK = dS^T Q and dV = W^T dO, per head.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    for t in (q, k, v):
        _require_matrix(t, "attention")
    (n, d), (m, d_v) = q.shape, v.shape
    if k.shape[1] != d:
        raise ShapeError(f"attention: query/key widths disagree, {q.shape} vs {k.shape}")
    if k.shape[0] != m:
        raise ShapeError(f"attention: key/value row counts disagree, {k.shape} vs {v.shape}")
    if heads < 1 or d % heads or d_v % heads:
        raise ShapeError(f"attention: {heads} heads do not divide widths {d} and {d_v}")
    if mask is not None and mask.shape != (n, m):
        raise ShapeError(f"attention: mask must be {(n, m)}, got {mask.shape}")
    d_k, h_v = d // heads, d_v // heads
    c = 1.0 / math.sqrt(d_k)
    qk_cols = [slice(h * d_k, (h + 1) * d_k) for h in range(heads)]
    v_cols = [slice(h * h_v, (h + 1) * h_v) for h in range(heads)]
    q_data, k_data, v_data = q.data, k.data, v.data

    out = np.empty((n, d_v))
    weights = []
    for qk, vc in zip(qk_cols, v_cols):
        logits = (q_data[:, qk] @ k_data[:, qk].T) * c
        if mask is not None:
            logits = logits + mask
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        out[:, vc] = w @ v_data[:, vc]
        weights.append(w)

    def back(g):
        gq = np.empty_like(q_data) if q.requires_grad else None
        gk = np.empty_like(k_data) if k.requires_grad else None
        gv = np.empty_like(v_data) if v.requires_grad else None
        for w, qk, vc in zip(weights, qk_cols, v_cols):
            g_out = g[:, vc]
            if gv is not None:
                gv[:, vc] = w.T @ g_out
            gw = g_out @ v_data[:, vc].T
            gs = w * (gw - (gw * w).sum(axis=1, keepdims=True)) * c
            if gq is not None:
                gq[:, qk] = gs @ k_data[:, qk]
            if gk is not None:
                gk[:, qk] = gs.T @ q_data[:, qk]
        return ((q, gq), (k, gk), (v, gv))

    return _node(out, "attention", (q, k, v), back)


def cross_entropy_rows(logits: Tensor, targets: Sequence[int], weights: Sequence[float]) -> Tensor:
    """Weighted mean negative log-likelihood over rows of a logit matrix.

    ``targets[i]`` is the correct class for row i and ``weights[i]`` its
    contribution (0 masks a padding row out entirely). The result is
    sum(w_i * nll_i) / sum(w_i), so appending zero-weight rows leaves the
    value untouched.
    """
    logits = _coerce(logits)
    _require_matrix(logits, "cross_entropy_rows")
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
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(rows), idx]
    out = np.array([[float((nll * w).sum() / denom)]])

    def back(g):
        p = np.exp(logp)
        p[np.arange(rows), idx] -= 1.0
        return ((logits, p * (w / denom)[:, None] * g[0, 0]),)

    return _node(out, "cross_entropy_rows", (logits,), back)


# ---- backward -------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf below loss.

    The loss must be a scalar (single-element) tensor produced by a
    recorded graph. Each graph node is visited exactly once, in reverse
    topological order; repeated calls keep adding into leaf ``.grad``.
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in node._backward(g):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in flow:
                flow[pid] = flow[pid] + pg
            else:
                flow[pid] = pg


# ---- constructors ----------------------------------------------------------


def zeros(rows: int, cols: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=requires_grad)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Fan-balanced uniform init, U(+-sqrt(6 / (fan_in + fan_out)))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)), requires_grad=True)


# ---- parameter containers ----------------------------------------------------


def named_parameters(params) -> list[tuple[str, Tensor]]:
    """Every Tensor in a dataclass tree, named by its path, in declaration
    order: fields by name, list items by index, ``None`` skipped
    (``enc.0.attn.w_q``). Checkpoint layout and the order of the
    optimizer's clip-norm sum follow this order."""
    return list(_walk(params, ""))


def _walk(value, name: str) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, f"{name}.{i}")
    elif is_dataclass(value):
        for f in fields(value):
            yield from _walk(getattr(value, f.name), f"{name}.{f.name}" if name else f.name)
