"""Global information fusion: gated residual merge of modality streams.

Combines the textual hidden states H with the audio- and video-infused
streams produced by the attention blocks:

    g_a = [H | H_a] W_a + b_a       (n x d)
    g_v = [H | H_v] W_v + b_v
    H'  = H + g_a * H_a + g_v * H_v

The gates are linear (no squashing), so with all parameters at zero the
layer is exactly the identity on H, which is how the adapter starts
training.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .tensor import Tensor, add, concat_last, matmul, mul, zeros

__all__ = ["GifParams", "gif_fuse", "gif_fuse_single"]


@dataclass
class GifParams:
    """Two gate transforms: weights are 2d x d, biases are 1 x d rows."""

    w_audio: Tensor
    w_video: Tensor
    b_audio: Tensor
    b_video: Tensor
    d: int

    @classmethod
    def zero_init(cls, d: int) -> "GifParams":
        # all-zero start makes the fusion an identity map at step 0
        return cls(
            w_audio=zeros(2 * d, d, requires_grad=True),
            w_video=zeros(2 * d, d, requires_grad=True),
            b_audio=zeros(1, d, requires_grad=True),
            b_video=zeros(1, d, requires_grad=True),
            d=d,
        )

    def named(self, prefix: str = ""):
        for name in ("w_audio", "w_video", "b_audio", "b_video"):
            yield f"{prefix}{name}", getattr(self, name)


def _check(h: Tensor, other: Tensor, label: str) -> None:
    if other.shape != h.shape:
        raise ShapeError(f"{label} must match hidden states {h.shape}, got {other.shape}")


def _gate(h: Tensor, stream: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(concat_last(h, stream), w), b)


def gif_fuse(
    h: Tensor,
    h_audio: Tensor,
    h_video: Tensor,
    params: GifParams,
    *,
    gates: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Fuse both modality streams into the text stream; output is n x d.

    ``gates`` overrides the computed gate pair (used by tests to pin the
    gates, e.g. to all-ones, which turns the fusion into a plain sum).
    """
    _check(h, h_audio, "audio stream")
    _check(h, h_video, "video stream")
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden width {h.shape[1]} does not match params d={params.d}")
    if gates is None:
        g_audio = _gate(h, h_audio, params.w_audio, params.b_audio)
        g_video = _gate(h, h_video, params.w_video, params.b_video)
    else:
        g_audio, g_video = gates
    return add(h, add(mul(g_audio, h_audio), mul(g_video, h_video)))


def gif_fuse_single(h: Tensor, stream: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One-modality degenerate form: H + g * H_m, the other term dropped."""
    _check(h, stream, "modality stream")
    return add(h, mul(_gate(h, stream, w, b), stream))
