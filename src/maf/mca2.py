"""Context-aware attention for one modality.

Given textual hidden states H (n x d) and an aligned modality context
C (n x d_c), this layer runs scaled dot-product attention whose keys and
values are per-position convex mixtures of textual content and projected
context:

    Q = H W_q          K = H W_k          V = H W_v
    gate_k = logistic(K w_kt + (C U_k) w_kc)        (n x 1)
    gate_v = logistic(V w_vt + (C U_v) w_vc)        (n x 1)
    K' = (1 - gate_k) * K + gate_k * (C U_k)
    V' = (1 - gate_v) * V + gate_v * (C U_v)
    out = softmax(Q K'^T / sqrt(d)) V'

The gates are scalars per sequence position, broadcast across feature
columns, so each position decides how much of its key/value content is
replaced by modality context. With the gate weights at zero every gate
is exactly 0.5; pinning the gates to zero recovers plain self-attention
over (Q, K, V), pinning them to one attends purely over projected context.
The last line is the shared kernel ``tensor.attention`` with one head.

``gate_override`` is the package's one gate pin that is not a parameter
setting: a logistic gate only approaches 0 or 1 as its logit grows, so no
parameter values give those collapses exactly. (The fusion gates of
``gif.py`` are linear and are pinned through their parameters.)

``mca2_forward`` is the whole block in one pass: C U_k and C U_v are
computed once and feed both the gates and the mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Segments, Slot, Tensor, allocate, attention, gate, gate_mix, matmul

__all__ = ["Mca2Params", "mca2_forward"]


@dataclass
class Mca2Params:
    """Parameters of one context-aware attention block (9 learned matrices).

    w_q, w_k, w_v        d x d      query/key/value projections of the text
    ctx_k, ctx_v         d_c x d    context projections into key/value space
    gate_k_text          d x 1      gate contribution from the textual key
    gate_k_ctx           d x 1      gate contribution from the projected context
    gate_v_text, gate_v_ctx         same, for the value gate
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    ctx_k: Tensor
    ctx_v: Tensor
    gate_k_text: Tensor
    gate_k_ctx: Tensor
    gate_v_text: Tensor
    gate_v_ctx: Tensor

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_c(self) -> int:
        return self.ctx_k.shape[0]

    @classmethod
    def slots(cls, d: int, d_c: int) -> "Mca2Params":
        """Fan-balanced projections; gate weights start at zero (gates 0.5)."""
        if d <= 0 or d_c <= 0:
            raise ContractError(f"widths must be positive, got d={d}, d_c={d_c}")
        return cls(
            w_q=Slot(d, d),
            w_k=Slot(d, d),
            w_v=Slot(d, d),
            ctx_k=Slot(d_c, d),
            ctx_v=Slot(d_c, d),
            gate_k_text=Slot(d, 1, "zeros"),
            gate_k_ctx=Slot(d, 1, "zeros"),
            gate_v_text=Slot(d, 1, "zeros"),
            gate_v_ctx=Slot(d, 1, "zeros"),
        )

    @classmethod
    def init(cls, d: int, d_c: int, rng: np.random.Generator) -> "Mca2Params":
        return allocate(cls.slots(d, d_c), rng)


def mca2_forward(
    h: Tensor,
    c: Tensor,
    params: Mca2Params,
    *,
    gate_override: float | None = None,
    layout: Segments | None = None,
) -> Tensor:
    """Full block in one pass: project, gate, mix, attend. Output is n x d.

    ``gate_override`` pins both gates to a constant
    (bypassing the learned gate path); 0.0 collapses the block to plain
    self-attention over (Q, K, V), 1.0 attends purely over projected
    context. The reduction-invariant tests read it; training never does.
    ``layout`` is the row layout of a packed batch (``tensor.Segments``
    with the same segments for queries and keys), so no row attends to
    another instance; None is one instance. The gates and the mix are
    per row and need no layout.
    """
    n = h.shape[0]
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden states must be n x {params.d}, got {h.shape}")
    if c.shape != (n, params.d_c):
        raise ShapeError(f"context must be {n} x {params.d_c} (aligned), got {c.shape}")
    q, k, v = matmul(h, params.w_q), matmul(h, params.w_k), matmul(h, params.w_v)
    ctx_k, ctx_v = matmul(c, params.ctx_k), matmul(c, params.ctx_v)
    if gate_override is None:
        gate_k = gate(k, params.gate_k_text, ctx_k, params.gate_k_ctx)
        gate_v = gate(v, params.gate_v_text, ctx_v, params.gate_v_ctx)
    else:
        gate_k = gate_v = Tensor(np.full((n, 1), float(gate_override)))
    # the n x 1 gates broadcast across the d feature columns
    k_mixed = gate_mix(gate_k, k, ctx_k)
    v_mixed = gate_mix(gate_v, v, ctx_v)

    return attention(q, k_mixed, v_mixed, layout=layout)
