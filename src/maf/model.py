"""Small transformer encoder-decoder host with a multimodal fusion adapter.

The encoder reads the flattened dialogue (speaker tokens interleaved with
utterance tokens, never padded); an adapter inserted before a
configurable encoder layer fuses audio/video context, pooled to one row
per token, into the hidden states; the decoder generates the explanation
autoregressively.

Training stacks each minibatch into one graph (a ``_Pack``): every
attention gets the pack's ``tensor.Segments`` layout, so no row sees
another instance; ``encode`` and ``_instance_loss`` run one-instance
packs. Position rows are constants, arrays outside the graph. Pooling a
modality's frames to the text rows runs through the same kernel: each
bucket of ``_pool_segments`` is a segment whose logits are all equal, so
its text rows get the bucket mean, and the pack holds nothing O(pack²).
Each instance is checked once, by ``_model_input``, on its way into the
model; the packs only stack what it returns.
``generate_explanations`` encodes held-out instances on the same packs
(their encoder half, ``_EncoderPack``), ``_PACK_INSTANCES`` at a time,
then decodes each instance greedily on its own rows and returns its
tokens. A trained model is frozen (``train`` and ``load_checkpoint``
return parameters with no ``requires_grad`` and no gradient), so its
encoder records no graph. Greedy decoding is graph-free: a step runs
on one 1-D row, through the forward arithmetic that the fused graph ops
call (``tensor._attention``, ``_feed_forward``, and
``_add_layer_norm_row``, the one-row form of ``add_layer_norm``). A
call holds, per decoder layer, the fused self-attention QKV weights, its
K/V as one of ``_attention``'s one-segment head stacks (a view of K and V
rows) and the cross-attention K/V; a step reads every other weight from
the parameters as stored.

Adapter variants, selected by ``ModelConfig.variant``:

    MAF       context-aware attention per modality + gated fusion
    Concat2   single [text | audio | video] linear layer, nothing else
    DPA       plain cross-attention onto projected context + gated fusion
    NoGIF     context-aware attention, streams merged by plain addition
    TextOnly  adapter bypassed entirely
    TA / TV   single-modality forms (one stream, one fusion gate)

``_FORMS`` holds this table as data: which modalities a variant reads,
how each stream attends, and how the streams merge. Parameter init,
model input, the encoder packs and the adapter read it, so MAF, NoGIF,
DPA, TA and TV run one code path, and a variant holds parameters only
for what it reads.

A gate is set only through its parameters: a fusion gate is pinned by
W = 0, b = c, which is the constant gate c. The one explicit pin is
``mca2_forward(gate_override=)``, outside the encoder, since a sigmoid
gate cannot reach exactly 0 or 1 through its parameters.

Everything is deterministic given ``ModelConfig.seed``: parameter init,
data order, and therefore every loss value and generated token.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import DialogueInstance, atomic_write, read_json_object, validate_instance
from .errors import ConfigError, ContractError, ParseError, ShapeError, TrainingDivergedError
from .gif import GifParams, gif_fuse
from .mca2 import Mca2Params, mca2_forward
from .tensor import (
    Segments,
    Slot,
    Tensor,
    _add_layer_norm_row,
    _attention,
    _feed_forward,
    _split_heads,
    add,
    add_layer_norm,
    allocate,
    attention,
    backward,
    concat_last,
    cross_entropy_rows,
    embed,
    feed_forward,
    linear,
    matmul,
    named_parameters,
    zeros,
)
from .text import Vocabulary, tokenize

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "TrainConfig",
    "ModelParams",
    "TrainedModel",
    "init_model_params",
    "named_parameters",
    "encode",
    "decode_greedy",
    "train",
    "generate_explanations",
    "instance_token_ids",
    "instance_target_ids",
    "build_vocabulary",
    "save_checkpoint",
    "load_checkpoint",
    "Adam",
]


class _Form(NamedTuple):
    audio: bool          # the variant reads audio features
    video: bool          # the variant reads video features
    attend: str | None   # per-stream attention: "mca2", "dpa" or None
    merge: str | None    # "gif", "add", "concat" or None (adapter bypassed)


_FORMS = {
    "MAF": _Form(True, True, "mca2", "gif"),
    "Concat2": _Form(True, True, None, "concat"),
    "DPA": _Form(True, True, "dpa", "gif"),
    "NoGIF": _Form(True, True, "mca2", "add"),
    "TextOnly": _Form(False, False, None, None),
    "TA": _Form(True, False, "mca2", "gif"),
    "TV": _Form(False, True, "mca2", "gif"),
}
VARIANTS = tuple(_FORMS)


# ---- configuration ---------------------------------------------------------


def _ruled(default=MISSING, **rule):
    """A dataclass field with a rule that ``_check_fields`` holds its value
    to: ``lo``, its least value; ``hi``, its greatest; ``among``, the values
    allowed. A list field's rule holds for each item, and ``distinct`` for
    the list: at least one item, none twice."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=rule)
    return field(default=default, metadata=rule)


@dataclass
class ModelConfig:
    """Architecture and fusion settings. ``train`` binds ``vocab_size``, and
    the raw widths ``audio_raw_dim`` and ``video_raw_dim``, from its data.

    No size has a greatest value of its own: a config is refused when what
    it allocates is too large (``_config_bytes``), and the input cap
    ``max_text_len`` allocates nothing."""

    vocab_size: int | None = _ruled(None, lo=5)  # the four specials plus content
    d: int = _ruled(64, lo=1)
    encoder_layers: int = _ruled(2, lo=1)
    decoder_layers: int = _ruled(2, lo=1)
    ffn: int = _ruled(128, lo=1)
    heads: int = _ruled(2, lo=1)
    fusion_layer_index: int = 2   # adapter runs before this encoder layer, 1-based
    d_c_audio: int = _ruled(16, lo=1)
    d_c_video: int = _ruled(32, lo=1)
    audio_raw_dim: int = _ruled(16, lo=1)
    video_raw_dim: int = _ruled(32, lo=1)
    max_text_len: int = _ruled(32, lo=1)
    max_target_len: int = _ruled(16, lo=2)  # one target token plus EOS at least
    variant: str = _ruled("MAF", among=VARIANTS)
    seed: int = _ruled(1, lo=0)  # NumPy's seeding takes no negative seed

    def validate(self) -> None:
        _check_fields(self)
        if self.d % self.heads != 0:
            raise ConfigError(f"heads must divide d: d={self.d}, heads={self.heads}")
        if not (1 <= self.fusion_layer_index <= self.encoder_layers):
            raise ConfigError(
                f"fusion_layer_index must lie in 1..{self.encoder_layers}, "
                f"got {self.fusion_layer_index}"
            )
        size = _config_bytes(self)
        if size > _MAX_ALLOC_BYTES:
            raise ConfigError(f"the model would allocate {size} bytes, over the limit of "
                              f"{_MAX_ALLOC_BYTES}: its parameters and greedy decoding's buffers")


@dataclass
class TrainConfig:
    lr: float = _ruled(1e-3, lo=0.0)
    epochs: int = _ruled(10, lo=1)
    batch_size: int = _ruled(16, lo=1)

    def validate(self) -> None:
        _check_fields(self)


# What a config may ask the program to allocate, checked before anything
# is: 1 GiB, for the model here and for the corpus in ``synthetic``. A
# float64 value is 8 bytes; a parameter tensor's Python objects, with its
# gradient and Adam state, about 1 KiB (906 bytes measured per tensor of a
# d=2 model with 1000 + 1000 layers). A training step peaked at 6.4 times
# the parameter bytes (d=256, ffn=1024, a 4-instance pack), so a model at
# the limit peaks near 7 GB in training; d=768, ffn=3072 at the default
# depth (33M values) is well inside it.
_MAX_ALLOC_BYTES = 2 ** 30
_TENSOR_BYTES = 1024


def _config_bytes(cfg: ModelConfig) -> int:
    """Bytes that parameter init and greedy decoding allocate for ``cfg``:
    each parameter's values and Tensor, then decoding's position table and,
    per decoder layer, its K/V rows and fused d x 3d self-attention
    weights. Counted on the slots of one layer per stack times the depth,
    so an absurd depth costs nothing to count; a vocabulary not yet bound
    counts no rows."""
    one = _param_slots(replace(cfg, vocab_size=cfg.vocab_size or 0, encoder_layers=1,
                               decoder_layers=1))

    def cost(slots) -> int:
        return sum(8 * s.rows * s.cols + _TENSOR_BYTES for _, s in named_parameters(slots))

    params = (cost(one) + (cfg.encoder_layers - 1) * cost(one.enc)
              + (cfg.decoder_layers - 1) * cost(one.dec))
    return params + 8 * ((1 + 2 * cfg.decoder_layers) * cfg.max_target_len * cfg.d
                         + 3 * cfg.d * cfg.d * cfg.decoder_layers)


def _holds(value, hint) -> bool:
    """Does a value read from JSON fit the annotation? A bool is never a
    number, and a float must be finite as a float: JSON's NaN and Infinity,
    and an int beyond float range, pass every range check."""
    if get_origin(hint) in (Union, types.UnionType):
        return any(_holds(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_holds(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # an exact comparison, so no int is converted
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _check_fields(cfg) -> None:
    """Every field of a dataclass read from JSON must hold its annotated
    type, then meet its rule (``_ruled``): a list as a whole, then each of
    its items, and no ``None``, which has no range."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _holds(value, hints[f.name]):
            raise ConfigError(f"'{f.name}' must be {f.type}, got {reprlib.repr(value)}")
        rule = f.metadata
        if rule.get("distinct") and not 0 < len(value) == len(set(value)):
            raise ConfigError(f"'{f.name}' must be a non-empty list without duplicates, "
                              f"got {reprlib.repr(value)}")
        for v in (value if isinstance(value, list) else () if value is None else (value,)):
            if "lo" in rule and v < rule["lo"]:
                raise ConfigError(f"'{f.name}' must be >= {rule['lo']}, got {reprlib.repr(v)}")
            if "hi" in rule and v > rule["hi"]:
                raise ConfigError(f"'{f.name}' must be <= {rule['hi']}, got {reprlib.repr(v)}")
            if "among" in rule and v not in rule["among"]:
                raise ConfigError(f"'{f.name}' must be one of {rule['among']}, "
                                  f"got {reprlib.repr(v)}")


def _build(cls, raw, section: str | None = None, complete: bool = False):
    """Dataclass ``cls``, a config or a metric row, from a JSON object: an
    unknown key is an error, a missing one takes its default (an error if
    ``complete``), a field typed as a dataclass is built from its own
    object. Value types and rules are left to ``_check_fields``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{section}' must be an object")
    hints = get_type_hints(cls)
    where = f" in config section '{section}'" if section else ""
    for key in raw:
        if key not in hints:
            raise ConfigError(f"unknown key '{key}'{where}")
    if complete and len(raw) < len(hints):
        raise ConfigError(f"missing key '{min(set(hints) - set(raw))}'{where}")
    kwargs = {}
    for name, value in raw.items():
        nested = next((h for h in get_args(hints[name]) or (hints[name],) if is_dataclass(h)), None)
        kwargs[name] = _build(nested, value, name) if nested and value is not None else value
    return cls(**kwargs)


# ---- parameter containers ---------------------------------------------------


@dataclass
class AttentionParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    @classmethod
    def slots(cls, d: int) -> "AttentionParams":
        return cls(*(Slot(d, d) for _ in range(4)))


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def slots(cls, d: int) -> "LayerNormParams":
        return cls(gain=Slot(1, d, "ones"), bias=Slot(1, d, "zeros"))


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def slots(cls, d: int, hidden: int) -> "FeedForwardParams":
        return cls(w1=Slot(d, hidden), b1=Slot(1, hidden, "zeros"), w2=Slot(hidden, d),
                   b2=Slot(1, d, "zeros"))


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ln1: LayerNormParams
    ffn: FeedForwardParams
    ln2: LayerNormParams

    @classmethod
    def slots(cls, d: int, hidden: int) -> "EncoderLayerParams":
        return cls(
            attn=AttentionParams.slots(d),
            ln1=LayerNormParams.slots(d),
            ffn=FeedForwardParams.slots(d, hidden),
            ln2=LayerNormParams.slots(d),
        )


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    ln1: LayerNormParams
    cross_attn: AttentionParams
    ln2: LayerNormParams
    ffn: FeedForwardParams
    ln3: LayerNormParams

    @classmethod
    def slots(cls, d: int, hidden: int) -> "DecoderLayerParams":
        return cls(
            self_attn=AttentionParams.slots(d),
            ln1=LayerNormParams.slots(d),
            cross_attn=AttentionParams.slots(d),
            ln2=LayerNormParams.slots(d),
            ffn=FeedForwardParams.slots(d, hidden),
            ln3=LayerNormParams.slots(d),
        )


@dataclass
class ModalityEncoderParams:
    """Input projection to the context width plus one self-attention layer
    over the frame/window axis. Pooling to the text length is
    parameter-free: the bucket means of ``_pool_segments``."""

    in_proj: Tensor
    in_bias: Tensor
    layer: EncoderLayerParams

    @classmethod
    def slots(cls, raw_dim: int, d_c: int) -> "ModalityEncoderParams":
        return cls(in_proj=Slot(raw_dim, d_c), in_bias=Slot(1, d_c, "zeros"),
                   layer=EncoderLayerParams.slots(d_c, 2 * d_c))


@dataclass
class DpaParams:
    """DPA's block: queries from the text, keys and values from the context alone."""

    w_q: Tensor
    ctx_k: Tensor
    ctx_v: Tensor

    @classmethod
    def slots(cls, d: int, d_c: int) -> "DpaParams":
        return cls(Slot(d, d), Slot(d_c, d), Slot(d_c, d))


@dataclass
class AdapterParams:
    """Fusion parameters, populated per variant (unused slots stay None).
    DPA keeps its per-modality ``DpaParams`` in the ``mca2_*`` slots."""

    mca2_audio: Mca2Params | DpaParams | None = None
    mca2_video: Mca2Params | DpaParams | None = None
    gif: GifParams | None = None
    concat_tri: Tensor | None = None
    concat_tri_bias: Tensor | None = None


@dataclass
class ModelParams:
    """Field order is parameter order: see ``tensor.named_parameters``."""

    embedding: Tensor
    enc: list[EncoderLayerParams]
    dec: list[DecoderLayerParams]
    out_proj: Tensor
    out_bias: Tensor
    audio_enc: ModalityEncoderParams | None
    video_enc: ModalityEncoderParams | None
    adapter: AdapterParams


def _param_slots(cfg: ModelConfig) -> ModelParams:
    """The parameters of ``cfg``'s model as ``Slot``s, not yet allocated:
    the one place their shapes are set."""
    d, v = cfg.d, cfg.vocab_size
    form = _FORMS[cfg.variant]
    ad = AdapterParams()
    if form.attend is not None:
        block = Mca2Params if form.attend == "mca2" else DpaParams
        if form.audio:
            ad.mca2_audio = block.slots(d, cfg.d_c_audio)
        if form.video:
            ad.mca2_video = block.slots(d, cfg.d_c_video)
    if form.merge == "gif":
        ad.gif = GifParams.slots(d, audio=form.audio, video=form.video)
    elif form.merge == "concat":
        ad.concat_tri = Slot(d + cfg.d_c_audio + cfg.d_c_video, d)
        ad.concat_tri_bias = Slot(1, d, "zeros")
    return ModelParams(
        embedding=Slot(v, d),
        enc=[EncoderLayerParams.slots(d, cfg.ffn) for _ in range(cfg.encoder_layers)],
        dec=[DecoderLayerParams.slots(d, cfg.ffn) for _ in range(cfg.decoder_layers)],
        out_proj=Slot(d, v),
        out_bias=Slot(1, v, "zeros"),
        audio_enc=ModalityEncoderParams.slots(cfg.audio_raw_dim, cfg.d_c_audio) if form.audio else None,
        video_enc=ModalityEncoderParams.slots(cfg.video_raw_dim, cfg.d_c_video) if form.video else None,
        adapter=ad,
    )


_ADAPTER_SIDE = ("audio_enc", "video_enc", "adapter")


def init_model_params(cfg: ModelConfig) -> ModelParams:
    """Deterministic init from cfg.seed.

    The host stack (embeddings, encoder/decoder layers, output head) draws
    from one seed stream and the adapter side (modality encoders, fusion
    parameters) from a second, so every variant shares bit-identical host
    weights at a given seed.
    """
    cfg.validate()
    if cfg.vocab_size is None:
        raise ConfigError("vocab_size must be bound before parameter init")
    host_ss, adapter_ss, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    host = np.random.default_rng(host_ss)
    adapter_rng = np.random.default_rng(adapter_ss)
    slots = _param_slots(cfg)
    return ModelParams(**{f.name: allocate(getattr(slots, f.name),
                                           adapter_rng if f.name in _ADAPTER_SIDE else host)
                          for f in fields(ModelParams)})


# ---- positions and pooling layouts ----------------------------------------------

_POS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """The n x d sinusoidal position table, cached and read-only."""
    key = (n, d)
    if key not in _POS_CACHE:
        pos = np.arange(n, dtype=np.float64)[:, None]
        i = np.arange(d, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
        pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
        pe.flags.writeable = False
        _POS_CACHE[key] = pe
    return _POS_CACHE[key]


def _pool_segments(f: int, n: int) -> tuple[list[int], list[int]]:
    """The bucket mean of f frame rows onto n text rows as attention
    segments: each bucket's (text rows, frames), in order. f >= n: n
    buckets of near-equal size, larger first, one text row each. f < n:
    each frame spreads over a group of rows, sized the same way. Every
    pooled row is a convex combination of frames; f == n is the identity."""
    base, rem = divmod(max(f, n), min(f, n))
    sizes = [base + 1] * rem + [base] * (min(f, n) - rem)
    return ([1] * n, sizes) if f >= n else (sizes, [1] * f)


# ---- forward pieces -----------------------------------------------------------


def _project_kv(kv_in: Tensor, p: AttentionParams) -> tuple[Tensor, Tensor]:
    return matmul(kv_in, p.w_k), matmul(kv_in, p.w_v)


def _attend(q_in: Tensor, kv: tuple[Tensor, Tensor], p: AttentionParams, heads: int,
            layout: Segments) -> Tensor:
    return matmul(attention(matmul(q_in, p.w_q), *kv, heads, layout), p.w_o)


def _ffn(x: Tensor, p: FeedForwardParams) -> Tensor:
    return feed_forward(x, p.w1, p.b1, p.w2, p.b2)


def _add_ln(x: Tensor, y: Tensor, p: LayerNormParams) -> Tensor:
    return add_layer_norm(x, y, p.gain, p.bias)


def _encoder_layer(x: Tensor, p: EncoderLayerParams, heads: int, layout: Segments) -> Tensor:
    h = _add_ln(x, _attend(x, _project_kv(x, p.attn), p.attn, heads, layout), p.ln1)
    return _add_ln(h, _ffn(h, p.ffn), p.ln2)


def _decoder_layer(x: Tensor, self_kv: tuple[Tensor, Tensor], cross_kv: tuple[Tensor, Tensor],
                   p: DecoderLayerParams, heads: int, layout: Segments,
                   cross_layout: Segments) -> Tensor:
    """Self-attention onto ``self_kv``, cross-attention onto the encoder's
    ``cross_kv`` (both already projected), then the feed-forward block."""
    h = _add_ln(x, _attend(x, self_kv, p.self_attn, heads, layout), p.ln1)
    h = _add_ln(h, _attend(h, cross_kv, p.cross_attn, heads, cross_layout), p.ln2)
    return _add_ln(h, _ffn(h, p.ffn), p.ln3)


def _embed(ids: Sequence[int], positions: np.ndarray, params: ModelParams) -> Tensor:
    d = positions.shape[1]
    return embed(params.embedding, ids, math.sqrt(d), positions)


# ---- packs: instances stacked into one graph ----------------------------------

# Instances per encoder pass of ``generate_explanations``: the gap
# config's minibatch. Training packs each whole minibatch instead, so its
# graph memory grows with ``TrainConfig.batch_size``. Encoding the whole
# 100-instance held-out set of a 6-epoch gap MAF (seed 71) as one pack
# raised the peak RSS of a process that trains it and then evaluates 10
# times from 49.0-49.1 to 51.3 MB, while its evaluation passes took
# 108.6-121.5 ms against 113.6-128.7 ms (medians of 10 passes, 2 processes
# each, 2 cores, one BLAS thread: within noise), so 16 stays.
_PACK_INSTANCES = 16


class _Frames(NamedTuple):
    """One modality of a pack: every segment's frames, stacked."""

    features: Tensor    # (sum F_i) x raw width
    layout: Segments    # a frame attends to its own segment's frames only
    pool: Segments      # one segment per bucket of _pool_segments(F_i, L_i), in row order


class _EncoderPack(NamedTuple):
    """The encoder half of a pack: instances as segments of one graph,
    every attention on ``layout``, so a row never sees another instance."""

    ids: list[int]            # text ids, segment after segment
    positions: np.ndarray     # position rows, restarting at 0 in each segment
    lengths: list[int]        # L_i, text tokens per segment
    layout: Segments          # encoder self-attention, MCA2 and DPA
    audio: _Frames | None     # only for variants that read the modality
    video: _Frames | None


class _Pack(NamedTuple):
    """A training pack: the encoder half plus the teacher-forced decoder
    rows of every segment's target."""

    enc: _EncoderPack
    dec_in: list[int]         # BOS + target, per segment
    dec_positions: np.ndarray
    dec_target: list[int]     # target + EOS, per segment
    self_layout: Segments     # block-causal decoder self-attention
    cross_layout: Segments    # a target row attends to its own segment's text
    weights: np.ndarray       # 1/T_i per target row: each instance weighs 1


def _segment_positions(lengths: Sequence[int], d: int) -> np.ndarray:
    return np.concatenate([sinusoidal_positions(n, d) for n in lengths])


_MAX_FRAMES = 512  # the most audio frames or video windows one instance may carry


def _checked_frames(features, raw: int, label: str) -> Tensor:
    if not isinstance(features, Tensor):
        features = Tensor(features)
    f = features.shape[0]
    if features.data.size == 0 or f < 1:
        raise ContractError(
            f"{label}: zero-frame modality; represent a silent modality as one all-zero frame"
        )
    if f > _MAX_FRAMES:
        raise ContractError(f"{label}: {f} frames exceed the cap of {_MAX_FRAMES}")
    if features.shape[1] != raw:
        raise ShapeError(f"{label}: feature width {features.shape[1]} does not match "
                         f"the model's width {raw}")
    return features


def _stack_frames(mats: Sequence[Tensor], lengths: Sequence[int]) -> _Frames:
    """One modality of a pack: the segments' frames stacked, and their frame
    and pool layouts. Each matrix was checked when it became model input."""
    counts = [m.shape[0] for m in mats]
    pools = [_pool_segments(f, n) for f, n in zip(counts, lengths)]
    return _Frames(Tensor(np.concatenate([m.data for m in mats])), Segments(counts, counts),
                   Segments([r for rows, _ in pools for r in rows],
                            [c for _, cols in pools for c in cols]))


def _encoder_pack(items: Sequence[tuple], cfg: ModelConfig) -> _EncoderPack:
    """The encoder pack of ``(text ids, audio, video)`` items, each as
    ``_model_input`` returned it: this only stacks, and stacks audio and
    video only if the variant reads them."""
    lengths = [len(src) for src, _, _ in items]
    form = _FORMS[cfg.variant]
    return _EncoderPack(
        ids=[i for src, _, _ in items for i in src],
        positions=_segment_positions(lengths, cfg.d),
        lengths=lengths,
        layout=Segments(lengths, lengths),
        audio=_stack_frames([a for _, a, _ in items], lengths) if form.audio else None,
        video=_stack_frames([v for _, _, v in items], lengths) if form.video else None,
    )


def _pack(items: Sequence[tuple], cfg: ModelConfig) -> _Pack:
    """The training pack of ``(text ids, audio, video, target ids)`` items;
    target lengths are the caller's to check."""
    enc = _encoder_pack([item[:3] for item in items], cfg)
    dec_in = [[Vocabulary.BOS_ID] + list(tgt) for _, _, _, tgt in items]
    steps = [len(x) for x in dec_in]
    return _Pack(
        enc=enc,
        dec_in=[i for x in dec_in for i in x],
        dec_positions=_segment_positions(steps, cfg.d),
        dec_target=[i for _, _, _, tgt in items for i in list(tgt) + [Vocabulary.EOS_ID]],
        self_layout=Segments(steps, steps, causal=True),
        cross_layout=Segments(steps, enc.lengths),
        weights=np.concatenate([np.full(t, 1.0 / t) for t in steps]),
    )


def _modality_context(frames: _Frames, p: ModalityEncoderParams) -> Tensor:
    """Frames projected to the context width, one self-attention layer over
    each segment's frames, then pooled to one row per text token."""
    x = linear(frames.features, p.in_proj, p.in_bias)
    return _bucket_means(_encoder_layer(x, p.layer, 1, frames.layout), frames.pool)


def _bucket_means(x: Tensor, pool: Segments) -> Tensor:
    """Each bucket's mean of the rows of ``x``, one per text row of ``pool``:
    attention with equal logits, so a bucket's frames weigh 1/size each."""
    return attention(zeros(pool.n, 1), zeros(pool.m, 1), x, layout=pool)


def _dpa(h: Tensor, c: Tensor, p: DpaParams, layout: Segments) -> Tensor:
    return attention(matmul(h, p.w_q), matmul(c, p.ctx_k), matmul(c, p.ctx_v), layout=layout)


def _apply_adapter(h: Tensor, ctx_a: Tensor | None, ctx_v: Tensor | None, form: _Form,
                   ad: AdapterParams, layout: Segments) -> Tensor:
    if form.merge == "concat":
        return linear(concat_last(concat_last(h, ctx_a), ctx_v), ad.concat_tri,
                      ad.concat_tri_bias)
    streams = []
    for ctx, p in ((ctx_a, ad.mca2_audio), (ctx_v, ad.mca2_video)):
        if ctx is None:
            streams.append(None)
        elif form.attend == "dpa":
            streams.append(_dpa(h, ctx, p, layout))
        else:
            streams.append(mca2_forward(h, ctx, p, layout=layout))
    if form.merge == "add":
        return add(h, add(*streams))
    return gif_fuse(h, *streams, ad.gif)


# ---- encode / decode ------------------------------------------------------------


def encode(text_ids: Sequence[int], audio, video, cfg: ModelConfig, params: ModelParams) -> Tensor:
    """Run the encoder stack with the fusion adapter inserted before layer
    ``cfg.fusion_layer_index``. Returns the L x d encoder output, one row
    per token of ``text_ids``.

    ``text_ids`` must be non-empty and at most ``max_text_len`` long. No
    padding is added, so the output does not depend on ``max_text_len``;
    audio and video are pooled to L rows. Modality features are only
    consulted for variants that use them.
    """
    item = _model_input(text_ids, audio, video, cfg, "encode")
    return _encode_pack(_encoder_pack([item], cfg), cfg, params)


def _model_input(text_ids: Sequence[int], audio, video, cfg: ModelConfig,
                 where: str) -> tuple[list[int], Tensor | None, Tensor | None]:
    """One instance as model input, checked here and only here: 1 to
    ``max_text_len`` text ids, and each modality the variant reads as a
    Tensor of 1 to ``_MAX_FRAMES`` frames at the model's raw width, which
    ``train`` took from its first instance. A modality the variant does not
    read becomes None."""
    ids = list(text_ids)
    form = _FORMS[cfg.variant]
    if not ids:
        raise ContractError(f"{where}: empty token sequence")
    if len(ids) > cfg.max_text_len:
        raise ContractError(f"{where}: {len(ids)} text tokens exceed "
                            f"max_text_len={cfg.max_text_len}")
    return (ids,
            _checked_frames(audio, cfg.audio_raw_dim, f"{where}: audio") if form.audio else None,
            _checked_frames(video, cfg.video_raw_dim, f"{where}: video") if form.video else None)


def _encode_pack(pk: _EncoderPack, cfg: ModelConfig, params: ModelParams) -> Tensor:
    """Encoder output of every segment, stacked: sum(L_i) x d."""
    x = _embed(pk.ids, pk.positions, params)
    form = _FORMS[cfg.variant]
    for i, layer in enumerate(params.enc):
        if i == cfg.fusion_layer_index - 1 and form.merge is not None:
            ctx_a = _modality_context(pk.audio, params.audio_enc) if form.audio else None
            ctx_v = _modality_context(pk.video, params.video_enc) if form.video else None
            x = _apply_adapter(x, ctx_a, ctx_v, form, params.adapter, pk.layout)
        x = _encoder_layer(x, layer, cfg.heads, pk.layout)
    return x


def _decoder_stack(x: Tensor, enc_out: Tensor, cfg: ModelConfig, params: ModelParams,
                   layout: Segments, cross_layout: Segments) -> Tensor:
    """Teacher-forced decoder layers and output head over embedded rows ``x``."""
    for layer in params.dec:
        x = _decoder_layer(x, _project_kv(x, layer.self_attn), _project_kv(enc_out, layer.cross_attn),
                           layer, cfg.heads, layout, cross_layout)
    return linear(x, params.out_proj, params.out_bias)


def _decode_step(token: int, t: int, caches: list[tuple[np.ndarray, ...]], cfg: ModelConfig,
                 params: ModelParams) -> np.ndarray:
    """Logits (1 x vocab) for position ``t`` given ``token`` there: row t of
    the teacher-forced pass on the prefix, in the arithmetic of its graph
    ops, with no graph. The row is 1-D: one product gives its Q, K and V,
    ``_attention`` and ``_feed_forward`` run on it as they are, and
    ``_add_layer_norm_row`` stands for ``add_layer_norm``. Every weight
    but the fused QKV is read from ``params`` as stored, gains and biases
    as their one row. This writes row t of each layer's K/V, and rows
    after t are never read, so no causal fill."""
    d, heads = cfg.d, cfg.heads
    w = d // heads
    c = 1.0 / math.sqrt(w)
    x = params.embedding.data[token] * math.sqrt(d) + sinusoidal_positions(cfg.max_target_len, d)[t]
    for p, (qkv, kv, cross_k, cross_v) in zip(params.dec, caches):
        ln1, ln2, ln3, ffn = p.ln1, p.ln2, p.ln3, p.ffn
        r = x @ qkv
        kv[:, :, t] = r[d:].reshape(2, heads, w)
        q = r[:d].reshape(1, heads, 1, w)
        a = _attention(q, kv[:1, :, :t + 1], kv[1:, :, :t + 1], c, None, None)[0][0]
        h = _add_layer_norm_row(x, a @ p.self_attn.w_o.data, ln1.gain.data[0], ln1.bias.data[0])
        q = (h @ p.cross_attn.w_q.data).reshape(1, heads, 1, w)
        a = _attention(q, cross_k, cross_v, c, None, None)[0][0]
        h = _add_layer_norm_row(h, a @ p.cross_attn.w_o.data, ln2.gain.data[0], ln2.bias.data[0])
        f = _feed_forward(h, ffn.w1.data, ffn.b1.data[0], ffn.w2.data, ffn.b2.data[0])[0]
        x = _add_layer_norm_row(h, f, ln3.gain.data[0], ln3.bias.data[0])
    return x @ params.out_proj.data + params.out_bias.data


def decode_greedy(enc_out: np.ndarray, cfg: ModelConfig, params: ModelParams) -> list[int]:
    """Greedy argmax decoding from the begin sentinel until the end sentinel
    or ``cfg.max_target_len`` steps. Returns content ids, no sentinels.

    Incremental and graph-free, on arrays. A call's decode state is one
    4-tuple per decoder layer: self-attention's [w_q | w_k | w_v] as one
    d x 3d matrix; its K/V cache, one ``2 x heads x max_target_len x
    d/heads`` stack; and the cross-attention K and V head stacks, the L x d
    encoder rows ``enc_out`` projected once. Each step computes one row of
    the teacher-forced decoder pass as a 1-D row of width d.

    The K/V stack is a head view of K and V rows, so each head's stack has
    the strides of the graph op's, which splits rows. On a contiguous
    head-major stack of width d/heads < 4, the weights-times-V product
    sums in another order: 4 heads at d = 8 differed from the graph op by
    an ulp."""
    heads = cfg.heads
    rows = (2, cfg.max_target_len, cfg.d)
    caches = [(np.concatenate([p.self_attn.w_q.data, p.self_attn.w_k.data, p.self_attn.w_v.data],
                              axis=1),
               _split_heads(np.empty(rows), heads),
               _split_heads((enc_out @ p.cross_attn.w_k.data)[None], heads),
               _split_heads((enc_out @ p.cross_attn.w_v.data)[None], heads))
              for p in params.dec]
    out: list[int] = []
    token = Vocabulary.BOS_ID
    for t in range(cfg.max_target_len):
        token = int(_decode_step(token, t, caches, cfg, params).argmax())
        if token == Vocabulary.EOS_ID:
            break
        out.append(token)
    return out


# ---- instances to token ids -------------------------------------------------------


def build_vocabulary(instances: Sequence[DialogueInstance]) -> Vocabulary:
    """The tokens of each speaker and utterance, then the explanation."""
    def texts():
        for inst in instances:
            for u in inst.utterances:
                yield u.speaker
                yield u.text
            yield inst.explanation
    return Vocabulary.from_texts(texts())


def instance_token_ids(inst: DialogueInstance, vocab: Vocabulary) -> list[int]:
    toks: list[str] = []
    for u in inst.utterances:
        toks.extend(tokenize(u.speaker))
        toks.extend(tokenize(u.text))
    return vocab.encode(toks)


def instance_target_ids(inst: DialogueInstance, vocab: Vocabulary) -> list[int]:
    return vocab.encode(tokenize(inst.explanation))


# ---- training ---------------------------------------------------------------------


@dataclass
class TrainedModel:
    config: ModelConfig
    vocab: Vocabulary
    params: ModelParams
    epoch_losses: list[float] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


# Adam's moment decay rates, the guard added to its denominator, and the
# global gradient norm that every step clips to
_BETA1, _BETA2, _ADAM_EPS, _GRAD_CLIP = 0.9, 0.999, 1e-8, 1.0


class Adam:
    """Adam with bias correction; every step clips to global norm ``_GRAD_CLIP``.

    Parameters, first and second moments each live in one flat buffer, and
    every parameter's ``data`` becomes a view into the parameter buffer, so
    a step is a few whole-buffer operations, updating ``data`` in place.
    That is safe because ``train`` frees the minibatch's graph before it
    steps: no recorded node still reads the arrays. Every parameter needs
    a ``grad`` at every step; in ``train`` each one of every variant
    reaches the loss.
    """

    def __init__(self, named: Sequence[tuple[str, Tensor]], lr: float):
        self.named = list(named)
        self.lr = lr
        self.t = 0
        ends = np.cumsum([t.data.size for _, t in self.named])
        self._params = np.concatenate([t.data.reshape(-1) for _, t in self.named])
        for (_, t), hi in zip(self.named, ends):
            t.data = self._params[hi - t.data.size:hi].reshape(t.data.shape)
        self._m = np.zeros_like(self._params)
        self._v = np.zeros_like(self._params)

    def zero_grad(self) -> None:
        for _, t in self.named:
            t.zero_grad()

    def step(self) -> None:
        self.t += 1
        m, v = self._m, self._v
        g = np.concatenate([t.grad.reshape(-1) for _, t in self.named])
        # step-local work space: kept between steps, it would add to the peak
        # memory of every pack's graph
        u = np.empty_like(g)
        # NumPy's pairwise sum, not a BLAS dot, whose order follows the thread count
        np.multiply(g, g, out=u)
        total = math.sqrt(float(np.add.reduce(u)))
        if total > _GRAD_CLIP:
            g *= _GRAD_CLIP / total
        m *= _BETA1
        np.multiply(g, 1.0 - _BETA1, out=u)
        m += u
        v *= _BETA2
        np.multiply(g, g, out=u)
        u *= 1.0 - _BETA2
        v += u
        np.divide(m, 1.0 - _BETA1 ** self.t, out=u)      # bias-corrected first moment
        u *= self.lr
        np.divide(v, 1.0 - _BETA2 ** self.t, out=g)      # g is free now: the second moment
        np.sqrt(g, out=g)
        g += _ADAM_EPS
        u /= g
        self._params -= u


def _pack_loss(pk: _Pack, cfg: ModelConfig, params: ModelParams) -> Tensor:
    """Mean over the pack's instances of each one's mean target-token NLL."""
    enc_out = _encode_pack(pk.enc, cfg, params)
    logits = _decoder_stack(_embed(pk.dec_in, pk.dec_positions, params), enc_out, cfg, params,
                            pk.self_layout, pk.cross_layout)
    return cross_entropy_rows(logits, pk.dec_target, pk.weights)


def _instance_loss(src_ids, audio, video, tgt_ids, cfg, params) -> Tensor:
    return _pack_loss(_pack([(src_ids, audio, video, tgt_ids)], cfg), cfg, params)


def _batch_backward(items: Sequence[tuple], cfg: ModelConfig, params: ModelParams) -> float:
    """One minibatch as one pack: backpropagate its loss, the mean over its
    instances, and return it. The graph is freed on return, before the
    optimiser writes the parameters in place."""
    loss = _pack_loss(_pack(items, cfg), cfg, params)
    backward(loss)
    return loss.item()


def train(instances: Sequence[DialogueInstance], cfg: ModelConfig,
          tcfg: TrainConfig | None = None) -> TrainedModel:
    """Teacher-forced training on explanation targets. Each minibatch is
    one pack: one graph, whose loss is the batch mean, and one
    ``backward``. Graph memory therefore grows with ``tcfg.batch_size``.

    The vocabulary is built from ``instances`` (pass the training split
    only), and the raw audio and video widths are the first instance's;
    each is checked with ``validate_instance``, then as model input
    (``_model_input``), all before the first step.
    Deterministic given cfg.seed: shuffling, init, and every loss.
    Raises TrainingDivergedError naming the step if the loss goes
    non-finite.
    """
    tcfg = tcfg or TrainConfig()
    tcfg.validate()
    if not instances:
        raise ContractError("train: empty training set")
    for inst in instances:
        validate_instance(inst)
    vocab = build_vocabulary(instances)
    cfg = replace(cfg, vocab_size=len(vocab), audio_raw_dim=instances[0].audio_features.shape[1],
                  video_raw_dim=instances[0].video_features.shape[1])
    params = init_model_params(cfg)

    prepared = []
    for inst in instances:
        where = f"instance '{inst.id}'"
        item = _model_input(instance_token_ids(inst, vocab), inst.audio_features,
                            inst.video_features, cfg, where)
        tgt = instance_target_ids(inst, vocab)
        if len(tgt) + 1 > cfg.max_target_len:
            raise ContractError(f"{where}: explanation length {len(tgt)} exceeds "
                                f"max_target_len={cfg.max_target_len}")
        prepared.append((*item, tgt))

    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])
    opt = Adam(named_parameters(params), lr=tcfg.lr)

    step = 0
    epoch_losses: list[float] = []
    step_losses: list[float] = []
    n = len(prepared)
    for _epoch in range(tcfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, tcfg.batch_size):
            batch = order[lo:lo + tcfg.batch_size]
            opt.zero_grad()
            mean_loss = _batch_backward([prepared[i] for i in batch], cfg, params)
            step += 1
            if not math.isfinite(mean_loss):
                raise TrainingDivergedError(f"non-finite loss at step {step}")
            step_losses.append(mean_loss)
            epoch_total += mean_loss * len(batch)
            opt.step()
        epoch_losses.append(epoch_total / n)
    return TrainedModel(config=cfg, vocab=vocab, params=_frozen(params),
                        epoch_losses=epoch_losses, step_losses=step_losses)


def _frozen(params: ModelParams) -> ModelParams:
    """``params`` with no parameter left trainable: no ``requires_grad``,
    so ops on them record no graph, and no gradient held."""
    for _, t in named_parameters(params):
        t.requires_grad = False
        t.grad = None
    return params


def generate_explanations(tm: TrainedModel, insts: Sequence[DialogueInstance]) -> list[list[str]]:
    """Greedy explanations, as token lists, in the order of ``insts``.

    The encoder runs on packs of ``_PACK_INSTANCES`` instances, training's
    packs without their decoder half, and records no graph on a frozen
    model; each instance's L rows are sliced from its pack's output, and
    ``decode_greedy`` then runs once per instance."""
    cfg = tm.config
    out: list[list[str]] = []
    for lo in range(0, len(insts), _PACK_INSTANCES):
        items = [_model_input(instance_token_ids(inst, tm.vocab), inst.audio_features,
                              inst.video_features, cfg, f"instance '{inst.id}'")
                 for inst in insts[lo:lo + _PACK_INSTANCES]]
        pk = _encoder_pack(items, cfg)
        rows = _encode_pack(pk, cfg, tm.params).data
        start = 0
        for n in pk.lengths:
            out.append(tm.vocab.decode(decode_greedy(rows[start:start + n], cfg, tm.params)))
            start += n
    return out


# ---- checkpoints --------------------------------------------------------------------

_CKPT_FORMAT = "maf-checkpoint"
_CKPT_VERSION = 1
_CKPT_KEYS = {"format", "version", "config", "vocab", "params"}


def _param_table(named: list[tuple[str, Tensor | Slot]]) -> list[dict]:
    """A checkpoint's shape table: name, rows and cols of each parameter,
    in blob order."""
    return [{"name": n, "rows": t.shape[0], "cols": t.shape[1]} for n, t in named]


def save_checkpoint(tm: TrainedModel, path: str | Path) -> None:
    """One JSON header line (version, config, vocab, shape table) followed by
    row-major float64 little-endian blobs, one per parameter in header order.
    Byte-deterministic for a given model."""
    named = named_parameters(tm.params)
    header = {
        "format": _CKPT_FORMAT,
        "version": _CKPT_VERSION,
        "config": asdict(tm.config),
        "vocab": tm.vocab.tokens,
        "params": _param_table(named),
    }
    with atomic_write(path, binary=True) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes(order="C"))


def load_checkpoint(path: str | Path) -> TrainedModel:
    """The model ``save_checkpoint`` wrote, frozen like ``train``'s. The
    vocab length and the whole shape table are compared with the header's
    config before any read or allocation; every value read must be
    finite."""
    with open(path, "rb") as fh:
        header = read_json_object(fh.readline(), f"checkpoint '{path}' header", ParseError)
        if header.get("format") != _CKPT_FORMAT:
            raise ParseError(f"'{path}' is not a model checkpoint")
        version = header.get("version")
        if type(version) is not int or version != _CKPT_VERSION:  # true and 1.0 equal 1
            raise ParseError(f"unsupported checkpoint version {version!r}")
        unknown = sorted(set(header) - _CKPT_KEYS)
        if unknown:
            raise ParseError(f"'{path}' header has unknown key '{unknown[0]}'")
        # the config must name every field: a missing one would silently take
        # today's default, and one this version no longer has cannot be honoured
        try:
            cfg = _build(ModelConfig, header.get("config"), "config", complete=True)
            cfg.validate()
        except ConfigError as exc:  # the bad input is the file, not the run's config
            raise ParseError(f"'{path}' config is invalid: {exc}") from None
        tokens = header.get("vocab")  # checked before init allocates vocab_size rows
        if not (isinstance(tokens, list) and len(tokens) == cfg.vocab_size
                and all(isinstance(t, str) for t in tokens)):
            raise ParseError(f"'{path}' 'vocab' must be a list of vocab_size={cfg.vocab_size} "
                             f"token strings")
        try:
            vocab = Vocabulary.from_tokens(tokens)
        except ContractError as exc:
            raise ParseError(f"'{path}' {exc}") from None
        table, wanted = header.get("params"), _param_table(named_parameters(_param_slots(cfg)))
        if not isinstance(table, list):
            raise ParseError(f"'{path}' header has no 'params' list")
        for entry, want in zip(table, wanted):  # as JSON text, so true and 1.0 are not 1
            got, want = json.dumps(entry, sort_keys=True), json.dumps(want, sort_keys=True)
            if got != want:
                raise ParseError(f"'{path}' 'params' lists {got} where the configured "
                                 f"architecture has {want}")
        if len(table) != len(wanted):
            raise ParseError(f"'{path}' 'params' lists {len(table)} parameters, the configured "
                             f"architecture has {len(wanted)}")
        params = init_model_params(cfg)
        named = named_parameters(params)
        for name, t in named:
            blob = fh.read(t.data.nbytes)
            if len(blob) != t.data.nbytes:
                raise ParseError(f"'{path}' is truncated at parameter '{name}'")
            t.data = np.frombuffer(blob, dtype="<f8").reshape(t.shape).astype(np.float64)
            if not np.isfinite(t.data).all():
                raise ParseError(f"'{path}' parameter '{name}' holds a non-finite value")
        if fh.read(1):
            raise ParseError(f"'{path}' has trailing bytes after the last parameter")
    return TrainedModel(config=cfg, vocab=vocab, params=_frozen(params))
