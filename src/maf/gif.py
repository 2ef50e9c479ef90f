"""Global information fusion: gated residual merge of modality streams.

Combines the textual hidden states H with the audio- and video-infused
streams produced by the attention blocks:

    g_a = [H | H_a] W_a + b_a       (n x d)
    g_v = [H | H_v] W_v + b_v
    H'  = H + g_a * H_a + g_v * H_v

The gates are linear (no squashing), so with all parameters at zero the
layer is exactly the identity on H, which is how the adapter starts
training. Since a gate is linear in [H | H_m], its parameters are the only
way to pin it: W = 0, b = c gives the constant gate c, bit for bit.

A variant holds a gate only for each modality it reads. A single-modality
variant passes ``None`` for the absent stream and has no gate for it, so
H' = H + g_a * H_a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, ShapeError
from .tensor import Slot, Tensor, add, allocate, gated_stream

__all__ = ["GifParams", "gif_fuse"]


@dataclass
class GifParams:
    """One gate transform per modality read: weights 2d x d, biases 1 x d
    rows. The gate of a modality the variant does not read is ``None``."""

    w_audio: Tensor | None = None
    w_video: Tensor | None = None
    b_audio: Tensor | None = None
    b_video: Tensor | None = None

    @property
    def d(self) -> int:
        return next(b for b in (self.b_audio, self.b_video) if b is not None).shape[1]

    @classmethod
    def slots(cls, d: int, audio: bool = True, video: bool = True) -> "GifParams":
        # all-zero start makes the fusion an identity map at step 0
        if not (audio or video):
            raise ContractError("a fusion needs the gate of at least one modality")
        return cls(
            w_audio=Slot(2 * d, d, "zeros") if audio else None,
            w_video=Slot(2 * d, d, "zeros") if video else None,
            b_audio=Slot(1, d, "zeros") if audio else None,
            b_video=Slot(1, d, "zeros") if video else None,
        )

    @classmethod
    def zero_init(cls, d: int) -> "GifParams":
        return allocate(cls.slots(d), None)


def gif_fuse(h: Tensor, h_audio: Tensor | None, h_video: Tensor | None,
             params: GifParams) -> Tensor:
    """Fuse the modality streams into the text stream; output is n x d.

    Each gate in ``params`` scales its stream, one ``tensor.gated_stream``
    node per stream, and ``add`` sums them into ``h`` (one node for both
    would sum h's gradient terms in another order, and change the bits).
    A stream without its gate, or a gate without its stream, is a
    ContractError: nothing is dropped silently.
    """
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden width {h.shape[1]} does not match params d={params.d}")
    terms = []
    for label, stream, w, b in (("audio", h_audio, params.w_audio, params.b_audio),
                                ("video", h_video, params.w_video, params.b_video)):
        if len({stream is None, w is None, b is None}) > 1:
            raise ContractError(f"{label}: the stream and its gate weight and bias must be "
                                f"given together")
        if stream is None:
            continue
        if stream.shape != h.shape:
            raise ShapeError(f"{label} stream must match hidden states {h.shape}, got {stream.shape}")
        terms.append(gated_stream(h, stream, w, b))
    return add(h, terms[0] if len(terms) == 1 else add(*terms))
