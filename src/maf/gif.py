"""Global information fusion: gated residual merge of modality streams.

Combines the textual hidden states H with the audio- and video-infused
streams produced by the attention blocks:

    g_a = [H | H_a] W_a + b_a       (n x d)
    g_v = [H | H_v] W_v + b_v
    H'  = H + g_a * H_a + g_v * H_v

The gates are linear (no squashing), so with all parameters at zero the
layer is exactly the identity on H, which is how the adapter starts
training. A single-modality variant passes ``None`` for the absent stream,
which drops its term: H' = H + g_a * H_a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .tensor import Tensor, add, concat_last, matmul, mul, zeros

__all__ = ["GifParams", "gif_fuse"]


@dataclass
class GifParams:
    """Two gate transforms: weights are 2d x d, biases are 1 x d rows."""

    w_audio: Tensor
    w_video: Tensor
    b_audio: Tensor
    b_video: Tensor

    @property
    def d(self) -> int:
        return self.b_audio.shape[1]

    @classmethod
    def zero_init(cls, d: int) -> "GifParams":
        # all-zero start makes the fusion an identity map at step 0
        return cls(
            w_audio=zeros(2 * d, d, requires_grad=True),
            w_video=zeros(2 * d, d, requires_grad=True),
            b_audio=zeros(1, d, requires_grad=True),
            b_video=zeros(1, d, requires_grad=True),
        )


def gif_fuse(
    h: Tensor,
    h_audio: Tensor | None,
    h_video: Tensor | None,
    params: GifParams,
    *,
    gates: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Fuse the present modality streams into the text stream; output is n x d.

    A stream given as ``None`` contributes no term. ``gates`` overrides the
    computed gate pair (used by tests to pin the gates, e.g. to all-ones,
    which turns the fusion into a plain sum).
    """
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden width {h.shape[1]} does not match params d={params.d}")
    pinned = gates or (None, None)
    terms = []
    for label, stream, w, b, g in (("audio", h_audio, params.w_audio, params.b_audio, pinned[0]),
                                   ("video", h_video, params.w_video, params.b_video, pinned[1])):
        if stream is None:
            continue
        if stream.shape != h.shape:
            raise ShapeError(f"{label} stream must match hidden states {h.shape}, got {stream.shape}")
        if g is None:
            g = add(matmul(concat_last(h, stream), w), b)
        terms.append(mul(g, stream))
    return add(h, terms[0] if len(terms) == 1 else add(*terms))
