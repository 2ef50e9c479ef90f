"""Host model tests: temporal pooling, adapter wiring, the training loop,
and checkpoint files.

Derived quantities (bucket means, positional angles, Adam updates) are
checked against independent loop oracles or hand-derived closed forms;
gradients through the assembled network are checked against central
finite differences.
"""

import json
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from maf import model as model_module
from maf import tensor as tensor_module
from maf.data import DialogueInstance, Utterance
from maf.errors import (
    ConfigError,
    ContractError,
    ParseError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from maf.model import (
    Adam,
    ModelConfig,
    TrainConfig,
    VARIANTS,
    build_vocabulary,
    decode_greedy,
    encode,
    generate_explanations,
    init_model_params,
    instance_target_ids,
    instance_token_ids,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
    sinusoidal_positions,
    train,
)
from maf.model import _instance_loss  # tested directly: it is the training objective
# tested directly: the pack pools every modality through these
from maf.model import _bucket_means, _pool_segments, _stack_frames
from maf.presets import GAP_MODEL, GAP_SPEC, GAP_TRAIN, TEST_SEED_SALT
from maf.synthetic import generate
from maf.tensor import Segments, Tensor, backward
from maf.text import SPECIALS, Vocabulary, tokenize

from oracles import (
    FD_STEP,
    decode_logits,
    gradients_close,
    graph_decode_greedy,
    loop_adam_step,
    loop_bucket_means,
    loop_decode_greedy,
    loop_train_step,
    mul,
    numeric_gradient,
    scale,
    sum_all,
)

AUDIO_DIM, VIDEO_DIM = 4, 6


def tiny_config(**kw) -> ModelConfig:
    base = dict(
        d=8,
        encoder_layers=2,
        decoder_layers=1,
        ffn=16,
        heads=2,
        fusion_layer_index=2,
        d_c_audio=4,
        d_c_video=4,
        audio_raw_dim=AUDIO_DIM,
        video_raw_dim=VIDEO_DIM,
        max_text_len=12,
        max_target_len=6,
        variant="MAF",
        seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_corpus(k: int = 8, seed: int = 0) -> list[DialogueInstance]:
    rng = np.random.default_rng(seed)
    speakers = ["ana", "bo", "cy"]
    lines = ["sure thing", "that went well", "lovely weather", "great plan"]
    out = []
    for i in range(k):
        s1, s2 = speakers[i % 3], speakers[(i + 1) % 3]
        out.append(
            DialogueInstance(
                id=f"t{i}",
                utterances=[
                    Utterance(speaker=s1, text=lines[i % 4]),
                    Utterance(speaker=s2, text=lines[(i + 1) % 4]),
                ],
                audio_features=rng.normal(size=(5, AUDIO_DIM)),
                video_features=rng.normal(size=(3, VIDEO_DIM)),
                explanation=f"{s2} mocks {s1}",
                sarcasm_source=s2,
                sarcasm_target=s1,
                action_word="mocks",
            )
        )
    return out


def bound_params(cfg, corpus):
    """Vocabulary-bound config plus freshly initialised parameters."""
    vocab = build_vocabulary(corpus)
    cfg = replace(cfg, vocab_size=len(vocab))
    return cfg, vocab, init_model_params(cfg)


# ---- configuration ---------------------------------------------------------


def test_default_config_is_valid():
    ModelConfig(vocab_size=50).validate()


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(variant="Fancy"), "'variant' must be one of"),
        (dict(d=9), "heads must divide d"),
        (dict(d_c_audio=0), "d_c_audio"),
        (dict(fusion_layer_index=0), "fusion_layer_index"),
        (dict(fusion_layer_index=3), "fusion_layer_index"),
        (dict(max_target_len=1), "max_target_len"),
        (dict(ffn=0), "ffn"),
        (dict(vocab_size=4), "vocab_size"),
        (dict(seed=-1), "seed"),
        # no size has a greatest value of its own: what it allocates does
        (dict(d=10**6), "the model would allocate"),
        (dict(encoder_layers=10**12), "the model would allocate"),
        (dict(max_target_len=10**9), "the model would allocate"),
    ],
    ids=["variant-unknown", "heads-not-dividing-d", "d_c_audio-0", "fusion_layer_index-0",
         "fusion_layer_index-past-encoder", "max_target_len-1", "ffn-0", "vocab_size-4", "seed-negative",
         "d-huge", "encoder_layers-huge", "max_target_len-huge"],
)
def test_config_validation_rejects(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        tiny_config(**kw).validate()


def test_config_sizes_are_bounded_only_by_what_they_allocate():
    """Transformer-base widths fit the allocation limit, and an input cap
    allocates nothing, so neither is refused."""
    ModelConfig(vocab_size=50, d=768, ffn=3072, heads=12).validate()
    tiny_config(max_text_len=10**9).validate()


@pytest.mark.parametrize("variant", VARIANTS)
def test_config_bytes_count_what_init_and_decoding_allocate(variant):
    """The limit is checked on the parameter slots of one layer per stack
    times the depth; that equals the tensors init builds, and decoding's
    position table, K/V rows and fused self-attention weights."""
    cfg = tiny_config(vocab_size=30, variant=variant, encoder_layers=3, decoder_layers=2,
                      max_target_len=5)
    named = named_parameters(init_model_params(cfg))
    params = sum(8 * t.data.size + model_module._TENSOR_BYTES for _, t in named)
    decoding = 8 * ((1 + 2 * cfg.decoder_layers) * cfg.max_target_len * cfg.d
                    + 3 * cfg.d ** 2 * cfg.decoder_layers)
    assert model_module._config_bytes(cfg) == params + decoding


def test_modality_usage_by_variant():
    table = {
        "TextOnly": (False, False),
        "TA": (True, False),
        "TV": (False, True),
        "MAF": (True, True),
        "Concat2": (True, True),
        "DPA": (True, True),
        "NoGIF": (True, True),
    }
    for variant, (audio, video) in table.items():
        form = model_module._FORMS[variant]
        assert (form.audio, form.video) == (audio, video)


def test_train_config_rejections():
    with pytest.raises(ConfigError, match="lr"):
        TrainConfig(lr=-0.1).validate()
    with pytest.raises(ConfigError, match="'epochs' must be >= 1"):
        TrainConfig(epochs=0).validate()
    TrainConfig(lr=0.0).validate()  # a frozen run is allowed
    with pytest.raises(ConfigError, match="'lr' must be float, got nan"):
        TrainConfig(lr=math.nan).validate()
    with pytest.raises(ConfigError, match="'lr' must be float, got inf"):
        TrainConfig(lr=math.inf).validate()
    # an int is a float only if it converts to a finite one
    TrainConfig(lr=1).validate()
    with pytest.raises(ConfigError, match="'lr' must be float, got 1000"):
        TrainConfig(lr=10**400).validate()


# ---- temporal pooling ------------------------------------------------------


def pool_layout(f: int, n: int) -> Segments:
    return Segments(*_pool_segments(f, n))


def pool(x: np.ndarray, n: int) -> np.ndarray:
    return _bucket_means(Tensor(x), pool_layout(x.shape[0], n)).data


def test_align_even_buckets():
    x = np.arange(12, dtype=float).reshape(6, 2)
    out = pool(x, 3)
    expected = np.array(
        [
            [(0 + 2) / 2, (1 + 3) / 2],
            [(4 + 6) / 2, (5 + 7) / 2],
            [(8 + 10) / 2, (9 + 11) / 2],
        ]
    )
    assert np.allclose(out, expected, rtol=0, atol=1e-15)


def test_align_uneven_buckets_put_larger_first():
    x = np.arange(7, dtype=float).reshape(7, 1)
    out = pool(x, 3)
    # sizes 3, 2, 2: means 1, 3.5, 5.5
    assert np.allclose(out[:, 0], [1.0, 3.5, 5.5], rtol=0, atol=1e-15)


def test_align_upsamples_by_repeating():
    x = np.array([[10.0], [20.0]])
    out = pool(x, 5)
    # two frames spread over five rows: sizes 3 and 2
    assert np.allclose(out[:, 0], [10.0, 10.0, 10.0, 20.0, 20.0], rtol=0, atol=0)


def test_align_identity_when_lengths_match():
    x = np.random.default_rng(5).normal(size=(4, 3))
    assert np.array_equal(pool(x, 4), x)


def test_align_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for f in range(1, 10):
        for n in range(1, 8):
            x = rng.normal(size=(f, 3))
            got = pool(x, n)
            want = np.array(loop_bucket_means(x.tolist(), n))
            assert got.shape == (n, 3)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14), (f, n)


def test_align_rows_are_convex_combinations():
    for f in (3, 5, 8):
        for n in (1, 2, 3, 7):
            p = pool(np.eye(f), n)  # row i holds the weight of every frame in output row i
            assert p.shape == (n, f)
            assert np.allclose(p.sum(axis=1), np.ones(n), rtol=0, atol=1e-15)
            assert (p >= 0).all()


def test_align_is_differentiable():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 3)))  # unequal output weights, so each bucket shows
    layout = pool_layout(5, 2)

    def loss():
        return sum_all(mul(_bucket_means(x, layout), weights))

    backward(loss())
    analytic = x.grad.copy()
    numeric = numeric_gradient(lambda: loss().item(), x.data)
    ok, worst = gradients_close(analytic, numeric, rtol=1e-6, atol=1e-9)
    assert ok, f"worst deviation {worst}"


def test_align_pools_each_instance_of_a_pack_on_its_own():
    """One pack's pool layout holds every instance's buckets side by side:
    each instance's pooled rows are its own bucket means, and changing one
    instance's frames leaves every other instance's rows bit for bit."""
    rng = np.random.default_rng(3)
    lengths = [3, 4, 5, 4, 2]
    counts = [8, 4, 2, 1, 7]  # F > L, F == L, F < L, F == 1, F > L unevenly
    mats = [rng.normal(size=(f, AUDIO_DIM)) for f in counts]

    def pooled(mats):
        frames = _stack_frames([Tensor(m) for m in mats], lengths)
        rows = _bucket_means(frames.features, frames.pool).data
        return np.split(rows, np.cumsum(lengths)[:-1])

    before = pooled(mats)
    for x, n, got in zip(mats, lengths, before):
        assert got.shape == (n, AUDIO_DIM)
        assert np.allclose(got, loop_bucket_means(x.tolist(), n), rtol=0, atol=1e-15)
    for i in range(len(mats)):
        changed = list(mats)
        changed[i] = mats[i] + 1.0
        after = pooled(changed)
        for j, (a, b) in enumerate(zip(before, after)):
            assert np.array_equal(a, b) == (j != i), (i, j)


def test_align_rejects_degenerate_sizes():
    """Pooling never sees zero frames or zero rows: ``encode`` refuses an
    empty token sequence and a zero-frame modality before the pack is built."""
    cfg, _, params, inst, ids = fixture_model()
    with pytest.raises(ContractError, match="empty"):
        encode([], inst.audio_features, inst.video_features, cfg, params)
    with pytest.raises(ContractError, match="zero-frame"):
        encode(ids, np.zeros((0, AUDIO_DIM)), inst.video_features, cfg, params)


# ---- positional encoding ---------------------------------------------------


def test_sinusoidal_positions_match_direct_formula():
    n, d = 7, 6
    got = sinusoidal_positions(n, d)
    for pos in range(n):
        for i in range(d):
            angle = pos / (10000.0 ** (2.0 * (i // 2) / d))
            want = math.sin(angle) if i % 2 == 0 else math.cos(angle)
            assert abs(got[pos, i] - want) < 1e-12, (pos, i)


def test_sinusoidal_positions_are_cached():
    assert sinusoidal_positions(5, 8) is sinusoidal_positions(5, 8)
    # the cached table is shared, so no caller may write into it
    assert not sinusoidal_positions(5, 8).flags.writeable


# ---- parameter initialisation ----------------------------------------------


def test_init_is_deterministic():
    cfg = tiny_config(vocab_size=30)
    a = dict(named_parameters(init_model_params(cfg)))
    b = dict(named_parameters(init_model_params(cfg)))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def test_seed_changes_init():
    a = init_model_params(tiny_config(vocab_size=30, seed=1))
    b = init_model_params(tiny_config(vocab_size=30, seed=2))
    assert not np.array_equal(a.embedding.data, b.embedding.data)


def test_host_weights_shared_across_variants():
    """Every variant must start from the same backbone at a given seed, so
    comparisons isolate the fusion pathway."""
    ref = dict(named_parameters(init_model_params(tiny_config(vocab_size=30, variant="TextOnly"))))
    for variant in VARIANTS:
        cur = dict(named_parameters(init_model_params(tiny_config(vocab_size=30, variant=variant))))
        for name, t in ref.items():
            assert np.array_equal(cur[name].data, t.data), (variant, name)


def test_named_parameters_unique_and_learnable():
    cfg = tiny_config(vocab_size=30)
    named = named_parameters(init_model_params(cfg))
    names = [n for n, _ in named]
    assert len(names) == len(set(names))
    assert all(t.requires_grad for _, t in named)


@pytest.mark.parametrize(
    "variant, present, absent",
    [
        ("TextOnly", [], ["adapter.", "audio_enc.", "video_enc."]),
        ("MAF", ["adapter.mca2_audio.", "adapter.mca2_video.", "adapter.gif.",
                 "audio_enc.", "video_enc."], ["adapter.concat"]),
        ("NoGIF", ["adapter.mca2_audio.", "adapter.mca2_video."], ["adapter.gif."]),
        ("DPA", ["adapter.mca2_audio.", "adapter.gif."], ["adapter.concat"]),
        ("TV", ["adapter.mca2_video.", "adapter.gif.", "video_enc."],
         ["adapter.mca2_audio.", "audio_enc."]),
        ("Concat2", ["adapter.concat_tri"], ["adapter.gif.", "adapter.mca2"]),
        ("TA", ["adapter.mca2_audio.", "adapter.gif.", "audio_enc."],
         ["adapter.mca2_video.", "video_enc."]),
    ],
)
def test_parameter_slots_by_variant(variant, present, absent):
    names = [n for n, _ in named_parameters(init_model_params(tiny_config(vocab_size=30, variant=variant)))]
    for prefix in present:
        assert any(n.startswith(prefix) for n in names), (variant, prefix)
    for prefix in absent:
        assert not any(n.startswith(prefix) for n in names), (variant, prefix)

# Parameter names and shapes at the gap config (vocabulary bound to 50),
# written out by hand so any change to naming, order or shapes shows up:
# checkpoint bytes and the order of Adam's clip-norm sum follow this list.
_PARAM_BLOCKS = {
    "host": """
        embedding:50x32 enc.0.attn.w_q:32x32 enc.0.attn.w_k:32x32 enc.0.attn.w_v:32x32
        enc.0.attn.w_o:32x32 enc.0.ln1.gain:1x32 enc.0.ln1.bias:1x32 enc.0.ffn.w1:32x64
        enc.0.ffn.b1:1x64 enc.0.ffn.w2:64x32 enc.0.ffn.b2:1x32 enc.0.ln2.gain:1x32
        enc.0.ln2.bias:1x32 enc.1.attn.w_q:32x32 enc.1.attn.w_k:32x32 enc.1.attn.w_v:32x32
        enc.1.attn.w_o:32x32 enc.1.ln1.gain:1x32 enc.1.ln1.bias:1x32 enc.1.ffn.w1:32x64
        enc.1.ffn.b1:1x64 enc.1.ffn.w2:64x32 enc.1.ffn.b2:1x32 enc.1.ln2.gain:1x32
        enc.1.ln2.bias:1x32 dec.0.self_attn.w_q:32x32 dec.0.self_attn.w_k:32x32
        dec.0.self_attn.w_v:32x32 dec.0.self_attn.w_o:32x32 dec.0.ln1.gain:1x32
        dec.0.ln1.bias:1x32 dec.0.cross_attn.w_q:32x32 dec.0.cross_attn.w_k:32x32
        dec.0.cross_attn.w_v:32x32 dec.0.cross_attn.w_o:32x32 dec.0.ln2.gain:1x32
        dec.0.ln2.bias:1x32 dec.0.ffn.w1:32x64 dec.0.ffn.b1:1x64 dec.0.ffn.w2:64x32
        dec.0.ffn.b2:1x32 dec.0.ln3.gain:1x32 dec.0.ln3.bias:1x32 dec.1.self_attn.w_q:32x32
        dec.1.self_attn.w_k:32x32 dec.1.self_attn.w_v:32x32 dec.1.self_attn.w_o:32x32
        dec.1.ln1.gain:1x32 dec.1.ln1.bias:1x32 dec.1.cross_attn.w_q:32x32
        dec.1.cross_attn.w_k:32x32 dec.1.cross_attn.w_v:32x32 dec.1.cross_attn.w_o:32x32
        dec.1.ln2.gain:1x32 dec.1.ln2.bias:1x32 dec.1.ffn.w1:32x64 dec.1.ffn.b1:1x64
        dec.1.ffn.w2:64x32 dec.1.ffn.b2:1x32 dec.1.ln3.gain:1x32 dec.1.ln3.bias:1x32
        out_proj:32x50 out_bias:1x50
    """,
    "audio_enc": """
        audio_enc.in_proj:16x8 audio_enc.in_bias:1x8 audio_enc.layer.attn.w_q:8x8
        audio_enc.layer.attn.w_k:8x8 audio_enc.layer.attn.w_v:8x8 audio_enc.layer.attn.w_o:8x8
        audio_enc.layer.ln1.gain:1x8 audio_enc.layer.ln1.bias:1x8 audio_enc.layer.ffn.w1:8x16
        audio_enc.layer.ffn.b1:1x16 audio_enc.layer.ffn.w2:16x8 audio_enc.layer.ffn.b2:1x8
        audio_enc.layer.ln2.gain:1x8 audio_enc.layer.ln2.bias:1x8
    """,
    "video_enc": """
        video_enc.in_proj:32x16 video_enc.in_bias:1x16 video_enc.layer.attn.w_q:16x16
        video_enc.layer.attn.w_k:16x16 video_enc.layer.attn.w_v:16x16
        video_enc.layer.attn.w_o:16x16 video_enc.layer.ln1.gain:1x16
        video_enc.layer.ln1.bias:1x16 video_enc.layer.ffn.w1:16x32 video_enc.layer.ffn.b1:1x32
        video_enc.layer.ffn.w2:32x16 video_enc.layer.ffn.b2:1x16 video_enc.layer.ln2.gain:1x16
        video_enc.layer.ln2.bias:1x16
    """,
    "mca2_audio": """
        adapter.mca2_audio.w_q:32x32 adapter.mca2_audio.w_k:32x32 adapter.mca2_audio.w_v:32x32
        adapter.mca2_audio.ctx_k:8x32 adapter.mca2_audio.ctx_v:8x32
        adapter.mca2_audio.gate_k_text:32x1 adapter.mca2_audio.gate_k_ctx:32x1
        adapter.mca2_audio.gate_v_text:32x1 adapter.mca2_audio.gate_v_ctx:32x1
    """,
    "mca2_video": """
        adapter.mca2_video.w_q:32x32 adapter.mca2_video.w_k:32x32 adapter.mca2_video.w_v:32x32
        adapter.mca2_video.ctx_k:16x32 adapter.mca2_video.ctx_v:16x32
        adapter.mca2_video.gate_k_text:32x1 adapter.mca2_video.gate_k_ctx:32x1
        adapter.mca2_video.gate_v_text:32x1 adapter.mca2_video.gate_v_ctx:32x1
    """,
    "dpa_audio": """
        adapter.mca2_audio.w_q:32x32 adapter.mca2_audio.ctx_k:8x32 adapter.mca2_audio.ctx_v:8x32
    """,
    "dpa_video": """
        adapter.mca2_video.w_q:32x32 adapter.mca2_video.ctx_k:16x32 adapter.mca2_video.ctx_v:16x32
    """,
    "gif": """
        adapter.gif.w_audio:64x32 adapter.gif.w_video:64x32 adapter.gif.b_audio:1x32
        adapter.gif.b_video:1x32
    """,
    "gif_audio": """
        adapter.gif.w_audio:64x32 adapter.gif.b_audio:1x32
    """,
    "gif_video": """
        adapter.gif.w_video:64x32 adapter.gif.b_video:1x32
    """,
    "concat": """
        adapter.concat_tri:56x32 adapter.concat_tri_bias:1x32
    """,
}
_PARAM_ORDER = {
    "MAF": ('host', 'audio_enc', 'video_enc', 'mca2_audio', 'mca2_video', 'gif'),
    "Concat2": ('host', 'audio_enc', 'video_enc', 'concat'),
    "DPA": ('host', 'audio_enc', 'video_enc', 'dpa_audio', 'dpa_video', 'gif'),
    "NoGIF": ('host', 'audio_enc', 'video_enc', 'mca2_audio', 'mca2_video'),
    "TextOnly": ('host',),
    "TA": ('host', 'audio_enc', 'mca2_audio', 'gif_audio'),
    "TV": ('host', 'video_enc', 'mca2_video', 'gif_video'),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_named_parameters_match_the_recorded_layout(variant):
    params = init_model_params(replace(GAP_MODEL, variant=variant, vocab_size=50))
    got = [f"{n}:{t.shape[0]}x{t.shape[1]}" for n, t in named_parameters(params)]
    want = [tok for block in _PARAM_ORDER[variant] for tok in _PARAM_BLOCKS[block].split()]
    assert got == want


def test_init_requires_bound_vocab():
    with pytest.raises(ConfigError, match="vocab_size"):
        init_model_params(tiny_config())


# ---- encode / decode contracts ----------------------------------------------


def fixture_model(variant="MAF", **kw):
    corpus = tiny_corpus()
    cfg, vocab, params = bound_params(tiny_config(variant=variant, **kw), corpus)
    inst = corpus[0]
    ids = instance_token_ids(inst, vocab)
    return cfg, vocab, params, inst, ids


def test_encode_shapes():
    cfg, _, params, inst, ids = fixture_model()
    out = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    assert out.shape == (len(ids), cfg.d)


def test_encode_rejects_empty_and_overlong():
    cfg, _, params, inst, ids = fixture_model()
    with pytest.raises(ContractError, match="empty"):
        encode([], inst.audio_features, inst.video_features, cfg, params)
    with pytest.raises(ContractError, match="max_text_len"):
        encode(list(range(4, 4 + cfg.max_text_len + 1)), inst.audio_features,
               inst.video_features, cfg, params)


def test_decoder_is_causal():
    """Changing a later target token must leave logits for earlier
    positions untouched."""
    cfg, _, params, inst, ids = fixture_model()
    enc = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    a = decode_logits(enc, [Vocabulary.BOS_ID, 5, 6], cfg, params).data
    b = decode_logits(enc, [Vocabulary.BOS_ID, 5, 9], cfg, params).data
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[2], b[2])


def test_decode_greedy_respects_length_cap():
    """At the smallest cap and at the gap config's, decoding stops after
    ``max_target_len`` steps with the prefix loop's ids. This untrained
    decoder never picks EOS, so it fills each cap."""
    for cap in (2, GAP_MODEL.max_target_len):
        cfg, _, params, inst, ids = fixture_model(max_target_len=cap)
        enc = encode(ids, inst.audio_features, inst.video_features, cfg, params)
        out = decode_greedy(enc.data, cfg, params)
        assert len(out) == cap
        assert Vocabulary.BOS_ID not in out and Vocabulary.EOS_ID not in out
        assert out == loop_decode_greedy(enc, cfg, params)[0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_cached_greedy_decoding_matches_the_prefix_loop(monkeypatch, variant):
    """The incremental decoder picks the oracle's ids, and each step's
    logits match the last row of the teacher-forced pass on that prefix."""
    cfg, _, params, inst, ids = fixture_model(variant, max_target_len=8)
    _randomise_adapter(params)
    enc = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    steps = []
    step = model_module._decode_step

    def recording_step(*args):
        logits = step(*args)
        steps.append(logits[0])
        return logits

    monkeypatch.setattr(model_module, "_decode_step", recording_step)
    got = decode_greedy(enc.data, cfg, params)
    want, rows = loop_decode_greedy(enc, cfg, params)
    assert got == want
    assert len(steps) == len(rows) > 1
    for cached, full in zip(steps, rows):
        np.testing.assert_allclose(cached, full, rtol=0, atol=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("cap", [2, GAP_MODEL.max_target_len])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("variant", VARIANTS)
def test_array_decoder_matches_the_graph_ops_bit_for_bit(monkeypatch, variant, heads, cap, depth):
    """Every step's logits equal, bit for bit, those of the same cached
    decoder built from graph ops, so the array step runs their arithmetic,
    through every layer's own cache."""
    cfg, _, params, inst, ids = fixture_model(variant, heads=heads, decoder_layers=depth,
                                              max_target_len=cap)
    _randomise_adapter(params)
    enc = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    steps = []
    step = model_module._decode_step

    def recording_step(*args):
        steps.append(step(*args))
        return steps[-1]

    monkeypatch.setattr(model_module, "_decode_step", recording_step)
    got = decode_greedy(enc.data, cfg, params)
    want, rows = graph_decode_greedy(enc, cfg, params)
    assert got == want
    assert len(steps) == len(rows) == min(len(got) + 1, cap)
    for logits, row in zip(steps, rows):
        assert logits.shape == (1, cfg.vocab_size)
        assert np.array_equal(logits[0], row)


def test_decode_greedy_records_no_graph_node(monkeypatch):
    """Greedy decoding runs on arrays: not one ``tensor._node`` call."""
    cfg, _, params, inst, ids = fixture_model(max_target_len=8)
    enc = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    nodes = []
    real = tensor_module._node

    def counting(*args):
        nodes.append(args[1])
        return real(*args)

    monkeypatch.setattr(tensor_module, "_node", counting)
    assert len(decode_greedy(enc.data, cfg, params)) == cfg.max_target_len
    assert nodes == []


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_a_decode_call_holds_four_arrays_per_decoder_layer(monkeypatch, heads):
    """One state per ``decode_greedy`` call, handed to every step: per
    decoder layer, the fused [w_q | w_k | w_v], the self-attention K/V
    head stack as a head view of whole K and V rows, and the cross-attention
    K and V of the encoder rows split into heads. After the call, the first
    layer's K and V rows hold each step's input row projected."""
    cfg, _, params, inst, ids = fixture_model(heads=heads, decoder_layers=2, max_target_len=5)
    enc = encode(ids, inst.audio_features, inst.video_features, cfg, params).data
    seen = []
    step = model_module._decode_step

    def recording_step(token, t, caches, *rest):
        seen.append((token, caches))
        return step(token, t, caches, *rest)

    monkeypatch.setattr(model_module, "_decode_step", recording_step)
    decode_greedy(enc, cfg, params)
    caches = seen[0][1]
    assert all(c is caches for _, c in seen)
    d, w, cap = cfg.d, cfg.d // heads, cfg.max_target_len
    assert len(caches) == cfg.decoder_layers
    for p, state in zip(params.dec, caches):
        assert len(state) == 4
        qkv, kv, cross_k, cross_v = state
        a = p.self_attn
        assert np.array_equal(qkv, np.concatenate([a.w_q.data, a.w_k.data, a.w_v.data], axis=1))
        assert kv.shape == (2, heads, cap, w)
        assert kv.strides[2:] == (d * kv.itemsize, kv.itemsize)
        for got, weight in ((cross_k, p.cross_attn.w_k), (cross_v, p.cross_attn.w_v)):
            want = (enc @ weight.data).reshape(len(enc), heads, w).transpose(1, 0, 2)
            assert got.shape == (1, heads, len(enc), w)
            np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12)
    kv = caches[0][1]
    pos = sinusoidal_positions(cap, d)
    for t, (token, _) in enumerate(seen):
        x = params.embedding.data[token] * math.sqrt(d) + pos[t]
        for i, weight in enumerate((params.dec[0].self_attn.w_k, params.dec[0].self_attn.w_v)):
            np.testing.assert_allclose(kv[i, :, t].reshape(d), x @ weight.data,
                                       rtol=1e-12, atol=1e-12)


def test_encode_deterministic():
    cfg, _, params, inst, ids = fixture_model()
    a = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    b = encode(ids, inst.audio_features, inst.video_features, cfg, params)
    assert np.array_equal(a.data, b.data)


def test_modality_feature_contracts():
    cfg, _, params, inst, ids = fixture_model()
    with pytest.raises(ShapeError, match="audio"):
        encode(ids, np.zeros((5, AUDIO_DIM + 1)), inst.video_features, cfg, params)
    with pytest.raises(ContractError, match="silent modality"):
        encode(ids, np.zeros((0, AUDIO_DIM)), inst.video_features, cfg, params)
    with pytest.raises(ContractError, match="513 frames exceed the cap of 512"):
        encode(ids, np.zeros((513, AUDIO_DIM)), inst.video_features, cfg, params)


@pytest.mark.parametrize("variant", VARIANTS)
def test_encode_reads_exactly_the_modalities_its_variant_names(variant):
    """An encoding moves with a modality's features exactly when
    ``_FORMS`` says the variant reads that modality, and a modality it does
    not read is never checked: a wrong-width matrix there changes nothing."""
    form = model_module._FORMS[variant]
    cfg, _, params, inst, ids = fixture_model(variant)
    _randomise_adapter(params)
    audio, video = inst.audio_features, inst.video_features
    base = encode(ids, audio, video, cfg, params).data
    rng = np.random.default_rng(5)
    moved_audio = encode(ids, audio + rng.normal(size=audio.shape), video, cfg, params).data
    moved_video = encode(ids, audio, video + rng.normal(size=video.shape), cfg, params).data
    assert (not np.array_equal(moved_audio, base)) == form.audio
    assert (not np.array_equal(moved_video, base)) == form.video
    junk = np.zeros((1, 99))
    unread = encode(ids, audio if form.audio else junk, video if form.video else junk,
                    cfg, params).data
    assert np.array_equal(unread, base)


def test_fusion_layer_placement_changes_concat_output():
    corpus = tiny_corpus()
    inst = corpus[0]
    outs = []
    for layer in (1, 2):
        cfg, vocab, params = bound_params(
            tiny_config(variant="Concat2", fusion_layer_index=layer), corpus
        )
        ids = instance_token_ids(inst, vocab)
        outs.append(encode(ids, inst.audio_features, inst.video_features, cfg, params).data)
    assert not np.allclose(outs[0], outs[1])


# ---- adapter reduction invariants -------------------------------------------


def _randomise_adapter(params, seed=9):
    rng = np.random.default_rng(seed)
    for name, t in named_parameters(params.adapter):
        t.data = rng.normal(scale=0.25, size=t.shape)


def test_fresh_fusion_block_is_exactly_transparent():
    """With its fusion gates at their zero initialisation, the full
    multimodal model must produce bit-identical encodings to the text-only
    path: every variant comparison therefore starts from the same model."""
    corpus = tiny_corpus()
    inst = corpus[0]
    cfg_m, vocab, params_m = bound_params(tiny_config(variant="MAF"), corpus)
    cfg_t, _, params_t = bound_params(tiny_config(variant="TextOnly"), corpus)
    ids = instance_token_ids(inst, vocab)
    fused = encode(ids, inst.audio_features, inst.video_features, cfg_m, params_m)
    plain = encode(ids, None, None, cfg_t, params_t)
    assert np.array_equal(fused.data, plain.data)


def test_pinned_zero_fusion_gate_recovers_text_path():
    """Even after the adapter has drifted from init, zeroing the fusion
    gates' parameters must reproduce the text-only encoding exactly, for
    every variant with a gated merge."""
    corpus = tiny_corpus()
    inst = corpus[0]
    for variant in ("MAF", "DPA", "TA", "TV"):
        cfg, vocab, params = bound_params(tiny_config(variant=variant), corpus)
        _randomise_adapter(params)
        for _, t in named_parameters(params.adapter.gif):
            t.data = np.zeros(t.shape)
        ids = instance_token_ids(inst, vocab)
        pinned = encode(ids, inst.audio_features, inst.video_features, cfg, params)
        plain = encode(ids, None, None, replace(cfg, variant="TextOnly"), params)
        assert np.array_equal(pinned.data, plain.data), variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_encode_does_not_depend_on_max_text_len(variant):
    """Nothing is padded, so the length cap cannot move any output row."""
    cfg, _, params, inst, ids = fixture_model(variant, max_text_len=16)
    _randomise_adapter(params)
    outs = [encode(ids, inst.audio_features, inst.video_features, replace(cfg, max_text_len=n), params)
            for n in (16, 24, 32)]
    assert outs[0].shape == (len(ids), cfg.d)
    for out in outs[1:]:
        assert np.array_equal(out.data, outs[0].data)


# ---- gradients through the assembled network --------------------------------


def test_full_model_gradient_spot_checks():
    corpus = tiny_corpus(k=4)
    cfg, vocab, params = bound_params(tiny_config(), corpus)
    inst = corpus[0]
    src = instance_token_ids(inst, vocab)
    tgt = instance_target_ids(inst, vocab)
    audio = Tensor(inst.audio_features)
    video = Tensor(inst.video_features)

    def loss_value():
        return _instance_loss(src, audio, video, tgt, cfg, params).item()

    named = dict(named_parameters(params))
    picks = [
        "adapter.mca2_audio.w_q",
        "adapter.mca2_audio.gate_k_text",
        "adapter.mca2_audio.gate_k_ctx",
        "adapter.gif.b_audio",
        "audio_enc.in_bias",
        "enc.0.ln1.gain",
        "dec.0.cross_attn.w_o",
        "out_bias",
    ]
    loss = _instance_loss(src, audio, video, tgt, cfg, params)
    backward(loss)
    for name in picks:
        t = named[name]
        assert t.grad is not None, name
        analytic = t.grad.copy()
        numeric = numeric_gradient(loss_value, t.data)
        ok, worst = gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7)
        assert ok, f"{name}: worst deviation {worst}"


# ---- packs: several instances in one graph -------------------------------------


def uneven_corpus() -> list[DialogueInstance]:
    """Six instances whose text lengths all differ, as do most frame,
    window and target lengths, with fewer frames than tokens in some and
    more in others."""
    rng = np.random.default_rng(12)
    shapes = [  # utterances, audio frames, video windows, explanation, source, target
        ([("ana", "sure")], 2, 1, "ana mocks", "ana", "bo"),
        ([("bo", "that went really well"), ("cy", "great")], 9, 4, "cy mocks bo", "cy", "bo"),
        ([("cy", "lovely weather"), ("ana", "yes")], 5, 7, "ana mocks cy badly", "ana", "cy"),
        ([("bo", "yes yes")], 6, 2, "bo mocks cy", "bo", "cy"),
        ([("ana", "that went well"), ("bo", "sure"), ("cy", "hi")], 1, 3, "cy mocks", "cy", "ana"),
        ([("cy", "great plan really")], 11, 9, "cy mocks bo badly", "cy", "bo"),
    ]
    return [
        DialogueInstance(
            id=f"u{i}",
            utterances=[Utterance(speaker=sp, text=tx) for sp, tx in utts],
            audio_features=rng.normal(size=(frames, AUDIO_DIM)),
            video_features=rng.normal(size=(windows, VIDEO_DIM)),
            explanation=expl,
            sarcasm_source=src,
            sarcasm_target=tgt,
            action_word="mocks",
        )
        for i, (utts, frames, windows, expl, src, tgt) in enumerate(shapes)
    ]


def pack_items(corpus, vocab):
    return [(instance_token_ids(inst, vocab), Tensor(inst.audio_features),
             Tensor(inst.video_features), instance_target_ids(inst, vocab)) for inst in corpus]


def gradients_of(params, losses_and_scales):
    for loss, c in losses_and_scales:
        backward(scale(loss, c))
    grads = {name: None if t.grad is None else t.grad.copy() for name, t in named_parameters(params)}
    for _, t in named_parameters(params):
        t.zero_grad()
    return grads


def test_pack_graph_bytes_grow_at_most_linearly():
    """The training graph of a pack holds at most twice the bytes when the
    pack holds twice the instances: no tensor in it grows as the square
    of the pack."""
    insts = generate(replace(GAP_SPEC, num_instances=16))
    cfg, vocab, params = bound_params(GAP_MODEL, insts)
    items = pack_items(insts, vocab)

    def graph_bytes(items):
        seen, total = set(), 0
        stack = [model_module._pack_loss(model_module._pack(items, cfg), cfg, params)]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                total += t.data.nbytes
                stack.extend(t.parents)
        return total

    assert graph_bytes(items * 2) <= 2 * graph_bytes(items)


def test_a_training_step_records_one_node_per_adapter_op():
    """Each MCA2 gate and each GIF stream is one graph node: a 16-instance
    gap MAF step records 92 nodes (108 while the gates were composed ops),
    with no elementwise product, sigmoid or concatenation. Concat2's
    [text | audio | video] input keeps its two concatenations."""
    insts = generate(replace(GAP_SPEC, num_instances=16))

    def ops(variant):
        cfg, vocab, params = bound_params(replace(GAP_MODEL, variant=variant), insts)
        loss = model_module._pack_loss(model_module._pack(pack_items(insts, vocab), cfg), cfg,
                                       params)
        seen, stack, count = set(), [loss], Counter()
        while stack:
            t = stack.pop()
            if id(t) not in seen and t.parents:
                seen.add(id(t))
                count[t.op] += 1
                stack.extend(t.parents)
        return count

    maf = ops("MAF")
    assert sum(maf.values()) == 92, maf
    assert (maf["gate"], maf["gated_stream"]) == (4, 2), maf
    assert not {"mul", "sigmoid", "concat_last"} & maf.keys(), maf
    assert ops("Concat2")["concat_last"] == 2


def _traced_step(monkeypatch) -> tuple[int, int]:
    """Tracemalloc bytes alive when ``backward`` starts, and the traced
    peak of the whole step, for one 16-instance MAF training step at a
    reduced gap config (d=16, seed 3)."""
    insts = generate(replace(GAP_SPEC, num_instances=16, seed=3))
    cfg, vocab, params = bound_params(replace(GAP_MODEL, d=16, ffn=32, seed=3), insts)
    items = pack_items(insts, vocab)
    alive = []

    def spy(loss):
        alive.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        backward(loss)

    monkeypatch.setattr(model_module, "backward", spy)
    tracemalloc.start()
    try:
        model_module._batch_backward(items, cfg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return alive[0], peak


def test_backward_adds_little_to_a_steps_peak_memory(monkeypatch):
    """A training step peaks at its forward graph: ``backward`` frees each
    node once walked, so the traced peak passes the bytes alive when
    ``backward`` starts by under a tenth. Measured: 7.0 % (0.21 of
    2.99 MB); 20 % while backward kept every node to the end of its walk."""
    alive, peak = _traced_step(monkeypatch)
    assert peak - alive < 0.1 * alive, (peak, alive)


def test_the_forward_graph_keeps_little_that_backward_does_not_read(monkeypatch):
    """MCA2's gates and gated mix, GIF's gated streams, the embedding and
    the biased projections are one node each and keep only their inputs
    (and a GIF stream its gate), so the bytes alive when ``backward``
    starts stay under 3.10 MB. Measured: 2.99-3.01 MB; 3.12-3.15 MB while
    the gates were composed ops whose products no backward read, 3.69 MB
    while the gated mix, embedding and projections were too."""
    alive, _ = _traced_step(monkeypatch)
    assert alive < 3.10e6, alive


@pytest.mark.parametrize("variant", VARIANTS)
def test_pack_matches_one_instance_losses_and_gradients(variant):
    """A pack of six instances of unequal lengths gives the mean of the
    one-instance losses, and the same gradient in every parameter: the
    segment layouts keep each instance to its own rows."""
    corpus = uneven_corpus()
    cfg, vocab, params = bound_params(tiny_config(variant=variant), corpus)
    _randomise_adapter(params)
    items = pack_items(corpus, vocab)
    assert len({len(src) for src, _, _, _ in items}) == len(items) == 6
    packed = model_module._pack_loss(model_module._pack(items, cfg), cfg, params)
    singles = [_instance_loss(*item, cfg, params) for item in items]
    assert packed.item() == pytest.approx(np.mean([x.item() for x in singles]), rel=0, abs=1e-10)
    want = gradients_of(params, [(x, 1.0 / len(items)) for x in singles])
    got = gradients_of(params, [(packed, 1.0)])
    for name, g in want.items():
        if g is None:
            assert got[name] is None, name
        else:
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pack_gradient_matches_finite_differences(variant):
    """Two instances, 3 and 4 text tokens, at the width-8 gradient-suite
    configuration: sampled entries of every parameter agree with central
    differences of the packed loss."""
    corpus = [
        DialogueInstance(id=f"g{i}", utterances=utts,
                         audio_features=np.random.default_rng(i).normal(size=(3 + i, 4)),
                         video_features=np.random.default_rng(10 + i).normal(size=(2 + 3 * i, 4)),
                         explanation=expl, sarcasm_source=expl.split()[0],
                         sarcasm_target=expl.split()[-1], action_word="mocks")
        for i, (utts, expl) in enumerate([
            ([Utterance("bo", "hi yo")], "bo mocks cy"),
            ([Utterance("bo", "hi"), Utterance("cy", "yo")], "cy mocks"),
        ])
    ]
    cfg = ModelConfig(d=8, encoder_layers=2, decoder_layers=1, ffn=16, heads=2,
                      fusion_layer_index=2, d_c_audio=4, d_c_video=4, audio_raw_dim=4,
                      video_raw_dim=4, max_text_len=4, max_target_len=4, variant=variant, seed=5)
    cfg, vocab, params = bound_params(cfg, corpus)
    _randomise_adapter(params)
    pk = model_module._pack(pack_items(corpus, vocab), cfg)
    assert pk.enc.lengths == [3, 4]

    def loss_value():
        return model_module._pack_loss(pk, cfg, params).item()

    backward(model_module._pack_loss(pk, cfg, params))
    rng = np.random.default_rng(3)
    for name, t in named_parameters(params):
        assert t.grad is not None, name
        flat = t.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        numeric = np.empty(len(picks))
        for j, i in enumerate(picks):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = loss_value()
            flat[i] = orig - FD_STEP
            lo = loss_value()
            flat[i] = orig
            numeric[j] = (hi - lo) / (2 * FD_STEP)
        ok, worst = gradients_close(t.grad.reshape(-1)[picks], numeric, rtol=1e-4, atol=1e-8)
        assert ok, f"{name}: violation ratio {worst:.3e} beyond rtol=1e-4"


def test_train_backpropagates_once_per_minibatch(monkeypatch):
    """Each step builds one graph, whatever the batch size, so training
    cannot quietly fall back to several graphs per step."""
    calls, per_step = [], []
    real_backward, real_step = model_module.backward, Adam.step

    def counting_backward(loss):
        calls.append(1)
        real_backward(loss)

    def counting_step(opt):
        per_step.append(len(calls))
        calls.clear()
        real_step(opt)

    monkeypatch.setattr(model_module, "backward", counting_backward)
    monkeypatch.setattr(Adam, "step", counting_step)
    train(tiny_corpus(k=10), tiny_config(), TrainConfig(lr=1e-3, epochs=2, batch_size=9))
    assert per_step == [1, 1, 1, 1]  # batches of 9 and 1


def test_train_rejects_an_overlong_modality_before_the_first_step(monkeypatch):
    """Each instance is checked once, as it becomes model input, so one
    with more audio frames than ``model._MAX_FRAMES`` stops training before
    any optimizer step: at seed 3 the shuffle puts it in the last minibatch."""
    steps = []
    monkeypatch.setattr(Adam, "step", lambda opt: steps.append(1))
    monkeypatch.setattr(model_module, "_MAX_FRAMES", 6)
    corpus = tiny_corpus(k=8)
    corpus[7] = replace(corpus[7], audio_features=np.zeros((7, AUDIO_DIM)))
    with pytest.raises(ContractError, match="7 frames exceed the cap of 6"):
        train(corpus, tiny_config(seed=3),
              TrainConfig(lr=1e-3, epochs=1, batch_size=2))
    assert steps == []


@pytest.mark.parametrize("variant", ["MAF", "TextOnly", "Concat2"])
def test_whole_batch_training_matches_the_loop_step(monkeypatch, variant):
    """Two epochs at a reduced gap config, 72 instances in batches of 16
    and a last batch of 8: one graph per minibatch gives the losses and
    parameters of one graph per instance, each backpropagated at 1/B."""
    insts = generate(replace(GAP_SPEC, num_instances=72, seed=3))
    cfg = replace(GAP_MODEL, d=16, ffn=32, variant=variant, seed=3)
    tcfg = replace(GAP_TRAIN, epochs=2)
    packed = train(insts, cfg, tcfg)
    monkeypatch.setattr(model_module, "_batch_backward", loop_train_step)
    loop = train(insts, cfg, tcfg)
    assert len(packed.step_losses) == 10
    np.testing.assert_allclose(packed.step_losses, loop.step_losses, rtol=1e-12, atol=0)
    for (name, a), (_, b) in zip(named_parameters(packed.params), named_parameters(loop.params)):
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12, err_msg=name)


# ---- optimiser ---------------------------------------------------------------


def test_adam_first_steps_match_closed_form(monkeypatch):
    """With a constant gradient, bias correction makes the first updates
    exactly lr-sized (up to the eps guard)."""
    monkeypatch.setattr(model_module, "_GRAD_CLIP", 100.0)
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    for expected_shift in (1, 2):
        p.grad = np.array([[3.0, -4.0]])
        opt.step()
        want = np.array([[1.0, -2.0]]) - 0.1 * expected_shift * np.array([[1.0, -1.0]])
        assert np.allclose(p.data, want, rtol=0, atol=1e-8), expected_shift


def test_adam_clip_only_engages_above_threshold(monkeypatch):
    def run(clip, grads):
        monkeypatch.setattr(model_module, "_GRAD_CLIP", clip)
        p = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        return p.data.copy()

    quiet = [[0.3, 0.4], [0.1, 0.0]]
    assert np.array_equal(run(1.0, quiet), run(1e9, quiet))
    loud = [[3.0, 4.0], [1.0, 0.0]]
    assert not np.array_equal(run(1.0, loud), run(1e9, loud))


class LoopAdam:
    """``model.Adam``'s interface over ``oracles.loop_adam_step``, clipping
    to the same ``model._GRAD_CLIP``."""

    def __init__(self, named, lr):
        self.named, self.lr = list(named), lr
        self.t, self.m, self.v = 0, {}, {}

    def zero_grad(self):
        for _, p in self.named:
            p.zero_grad()

    def step(self):
        self.t += 1
        loop_adam_step(self.named, self.m, self.v, self.t, self.lr, model_module._GRAD_CLIP)


@pytest.mark.parametrize("clip", [1.0, 1e9])
def test_flat_adam_matches_the_loop_step(monkeypatch, clip):
    """Eight steps over tensors of four shapes, gradients large enough to
    clip at 1 on every other step and never at 1e9. Unclipped, the flat
    step is bit-identical to the loop; clipping only reorders the norm's
    sum."""
    monkeypatch.setattr(model_module, "_GRAD_CLIP", clip)
    rng = np.random.default_rng(4)
    shapes = [(3, 4), (1, 5), (2, 2), (6, 1)]
    start = [rng.normal(size=s) for s in shapes]
    flat = [Tensor(x.copy(), requires_grad=True) for x in start]
    loop = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam([(f"p{i}", t) for i, t in enumerate(flat)], lr=0.05)
    ref = LoopAdam([(f"p{i}", t) for i, t in enumerate(loop)], lr=0.05)
    clipped = 0
    for step in range(8):
        grads = [rng.normal(scale=3.0 if step % 2 else 0.1, size=s) for s in shapes]
        for i, g in enumerate(grads):
            flat[i].grad = g.copy()
            loop[i].grad = g.copy()
        clipped += math.sqrt(sum(float((g * g).sum()) for g in grads)) > clip
        opt.step()
        ref.step()
        for i, (a, b) in enumerate(zip(flat, loop)):
            if clip == 1e9:
                assert np.array_equal(a.data, b.data), (step, i)
            else:
                np.testing.assert_allclose(a.data, b.data, rtol=1e-14, atol=0, err_msg=f"{step} {i}")
    assert clipped == (4 if clip == 1.0 else 0)


@pytest.mark.parametrize("variant", ["MAF", "TextOnly", "Concat2"])
def test_flat_adam_training_matches_the_loop_step(monkeypatch, variant):
    """Two epochs at a reduced gap config: the flat-buffer step gives the
    loop step's losses and parameters."""
    insts = generate(replace(GAP_SPEC, num_instances=64, seed=2))
    cfg = replace(GAP_MODEL, d=16, ffn=32, variant=variant, seed=2)
    tcfg = replace(GAP_TRAIN, epochs=2)
    flat = train(insts, cfg, tcfg)
    monkeypatch.setattr(model_module, "Adam", LoopAdam)
    loop = train(insts, cfg, tcfg)
    np.testing.assert_allclose(flat.step_losses, loop.step_losses, rtol=1e-14, atol=0)
    for (name, a), (_, b) in zip(named_parameters(flat.params), named_parameters(loop.params)):
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-13, err_msg=name)


def test_adam_zero_grad_clears_everything():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    p.grad = np.array([[2.0]])
    opt.zero_grad()
    assert p.grad is None


# ---- training loop -----------------------------------------------------------


def test_training_is_deterministic():
    corpus = tiny_corpus()
    cfg = tiny_config()
    tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4)
    a = train(corpus, cfg, tcfg)
    b = train(corpus, cfg, tcfg)
    assert a.step_losses == b.step_losses
    for (name, ta), (_, tb) in zip(named_parameters(a.params), named_parameters(b.params)):
        assert np.array_equal(ta.data, tb.data), name


def test_seed_changes_training_trajectory():
    corpus = tiny_corpus()
    tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4)
    a = train(corpus, tiny_config(seed=3), tcfg)
    b = train(corpus, tiny_config(seed=4), tcfg)
    assert a.step_losses != b.step_losses


def test_zero_learning_rate_freezes_parameters():
    corpus = tiny_corpus()
    cfg = tiny_config()
    tm = train(corpus, cfg, TrainConfig(lr=0.0, epochs=2, batch_size=4))
    reference = init_model_params(replace(cfg, vocab_size=len(tm.vocab)))
    for (name, got), (_, want) in zip(named_parameters(tm.params), named_parameters(reference)):
        assert np.array_equal(got.data, want.data), name
    # with frozen weights every epoch sees the same per-instance losses
    assert tm.epoch_losses[0] == pytest.approx(tm.epoch_losses[1], rel=1e-12)


def test_overfits_a_single_instance():
    corpus = tiny_corpus(k=1)
    cfg = tiny_config(d=16, ffn=32, decoder_layers=1)
    tm = train(corpus, cfg, TrainConfig(lr=0.01, epochs=250, batch_size=1))
    assert tm.epoch_losses[-1] < 0.05
    assert generate_explanations(tm, corpus) == [tokenize(corpus[0].explanation)]


def test_loss_log_lengths():
    corpus = tiny_corpus(k=8)
    tm = train(corpus, tiny_config(), TrainConfig(lr=1e-3, epochs=2, batch_size=3))
    assert len(tm.epoch_losses) == 2
    assert len(tm.step_losses) == 2 * 3  # ceil(8 / 3) batches per epoch


def test_divergence_is_reported_with_the_step():
    corpus = tiny_corpus()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="step 2"):
            train(corpus, tiny_config(), TrainConfig(lr=1e200, epochs=1, batch_size=4))


def test_train_rejects_empty_and_overlong_instances():
    with pytest.raises(ContractError, match="empty"):
        train([], tiny_config(), TrainConfig(epochs=1))
    corpus = tiny_corpus(k=2)
    corpus[1].utterances[0].text = "a very long utterance " * 4
    with pytest.raises(ContractError, match="t1"):
        train(corpus, tiny_config(), TrainConfig(epochs=1))
    corpus = tiny_corpus(k=2)
    corpus[0].explanation = "far too many words in this explanation line"
    with pytest.raises(ContractError, match="t0"):
        train(corpus, tiny_config(), TrainConfig(epochs=1))


def test_train_validates_in_memory_instances():
    """Instances built in memory get the checks a corpus file gets."""
    corpus = tiny_corpus(k=2)
    corpus[1].audio_features = corpus[1].audio_features.copy()
    corpus[1].audio_features[0, 0] = np.nan
    with pytest.raises(ValidationError, match="audio_features") as err:
        train(corpus, tiny_config(), TrainConfig(epochs=1))
    assert err.value.field == "audio_features"


def test_textonly_never_touches_features():
    corpus = tiny_corpus(k=4)
    for inst in corpus:
        inst.audio_features = np.zeros((1, 99))  # wrong width on purpose
    tm = train(corpus, tiny_config(variant="TextOnly"), TrainConfig(lr=1e-3, epochs=1, batch_size=4))
    assert len(tm.epoch_losses) == 1


# ---- generation in packs ---------------------------------------------------------


@pytest.fixture(scope="module")
def gap_models():
    """MAF, TextOnly and Concat2 trained for four epochs at a reduced gap
    config (200 instances, width 16), so greedy outputs differ by instance."""
    insts = generate(replace(GAP_SPEC, num_instances=200, seed=1))
    return {v: train(insts, replace(GAP_MODEL, d=16, ffn=32, variant=v, seed=1),
                     replace(GAP_TRAIN, lr=2e-3, epochs=4))
            for v in ("MAF", "TextOnly", "Concat2")}


@pytest.mark.parametrize("variant", ["MAF", "TextOnly", "Concat2"])
@pytest.mark.parametrize("n", [1, 8, 9, 17])
def test_generate_explanations_matches_encode_and_the_prefix_loop(monkeypatch, gap_models, variant, n):
    """Packed encoding hands each instance's rows to ``decode_greedy``, once
    per instance and in input order: the rows are within 1e-12 of
    ``encode`` and the ids are the prefix loop's."""
    tm, cfg = gap_models[variant], gap_models[variant].config
    insts = generate(replace(GAP_SPEC, num_instances=n, seed=1 ^ TEST_SEED_SALT))
    lengths = [len(instance_token_ids(inst, tm.vocab)) for inst in insts]
    assert n == 1 or len(set(lengths)) > 1
    calls = []
    real = model_module.decode_greedy

    def recording(enc_out, *args, **kwargs):
        calls.append((enc_out.copy(), real(enc_out, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(model_module, "decode_greedy", recording)
    got = generate_explanations(tm, insts)
    assert len(calls) == len(got) == n
    for inst, (rows, ids), toks in zip(insts, calls, got):
        enc = encode(instance_token_ids(inst, tm.vocab), inst.audio_features,
                     inst.video_features, cfg, tm.params)
        np.testing.assert_allclose(rows, enc.data, rtol=0, atol=1e-12, err_msg=inst.id)
        assert ids == loop_decode_greedy(enc, cfg, tm.params)[0], inst.id
        assert toks == tm.vocab.decode(ids)
    assert generate_explanations(tm, insts[::-1]) == got[::-1]


def test_a_trained_vocabulary_token_is_its_own_tokenisation(gap_models):
    """Every token after the specials tokenises to itself, so a hypothesis
    scored as ``generate_explanations``' token list scores as its joined
    text would, tokenised again."""
    tokens = gap_models["MAF"].vocab.tokens[len(SPECIALS):]
    assert len(tokens) > 20
    for t in tokens:
        assert tokenize(t) == [t]
    assert tokenize(" ".join(tokens)) == tokens


def test_generate_explanations_rejects_overlong_text(gap_models):
    tm = gap_models["TextOnly"]
    insts = generate(replace(GAP_SPEC, num_instances=9, seed=1 ^ TEST_SEED_SALT))
    insts[8].utterances[0].text = "well " * tm.config.max_text_len
    with pytest.raises(ContractError, match=f"instance '{insts[8].id}'.*max_text_len"):
        generate_explanations(tm, insts)


@pytest.mark.parametrize("variant", ["MAF", "Concat2"])
def test_trained_and_loaded_models_are_frozen_and_decode_as_trainable_ones(
        monkeypatch, tmp_path, gap_models, variant):
    """``train`` and ``load_checkpoint`` return parameters with no
    ``requires_grad`` and no gradient, so evaluating them makes no graph
    node that needs one; the explanations are those of the same weights
    left trainable, whose evaluation does make such nodes."""
    tm = gap_models[variant]
    save_checkpoint(tm, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    trainable = init_model_params(tm.config)
    for (_, t), (_, frozen) in zip(named_parameters(trainable), named_parameters(tm.params)):
        t.data = frozen.data.copy()
    insts = generate(replace(GAP_SPEC, num_instances=9, seed=1 ^ TEST_SEED_SALT))
    real = tensor_module._node
    needs_grad = []

    def spying(*args):
        out = real(*args)
        needs_grad.append(out.requires_grad)
        return out

    def explain(m):
        needs_grad.clear()
        with monkeypatch.context() as patch:
            patch.setattr(tensor_module, "_node", spying)
            return generate_explanations(m, insts)

    want = explain(replace(tm, params=trainable))
    assert any(needs_grad)
    for m in (tm, loaded):
        assert all(not t.requires_grad and t.grad is None for _, t in named_parameters(m.params))
        assert explain(m) == want
        assert needs_grad and not any(needs_grad)


# ---- checkpoints ---------------------------------------------------------------


def trained_tiny(tmp_path, variant="MAF"):
    corpus = tiny_corpus(k=4)
    tm = train(corpus, tiny_config(variant=variant), TrainConfig(lr=1e-3, epochs=1, batch_size=4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(tm, path)
    return corpus, tm, path


def test_checkpoint_round_trip(tmp_path):
    corpus, tm, path = trained_tiny(tmp_path)
    loaded = load_checkpoint(path)
    assert asdict(loaded.config) == asdict(tm.config)
    assert loaded.vocab.tokens == tm.vocab.tokens
    a, b = dict(named_parameters(tm.params)), dict(named_parameters(loaded.params))
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name
    assert generate_explanations(loaded, corpus) == generate_explanations(tm, corpus)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    _, tm, path = trained_tiny(tmp_path)
    again = tmp_path / "again.ckpt"
    save_checkpoint(tm, again)
    assert path.read_bytes() == again.read_bytes()
    reloaded = tmp_path / "reloaded.ckpt"
    save_checkpoint(load_checkpoint(path), reloaded)
    assert path.read_bytes() == reloaded.read_bytes()


def test_evaluation_leaves_the_model_untouched(tmp_path):
    """Greedy decoding reads the weights in place: on a trained model they
    are views into Adam's flat buffer. Two evaluations of the trained model
    and of its loaded checkpoint leave every parameter's bytes and the
    checkpoint's bytes as they were, and give the same explanations."""
    corpus, tm, path = trained_tiny(tmp_path)
    outputs = []
    for m in (tm, load_checkpoint(path)):
        before = [(name, t.data.tobytes()) for name, t in named_parameters(m.params)]
        outputs += [generate_explanations(m, corpus), generate_explanations(m, corpus)]
        assert [(name, t.data.tobytes()) for name, t in named_parameters(m.params)] == before
        save_checkpoint(m, tmp_path / "after.ckpt")
        assert (tmp_path / "after.ckpt").read_bytes() == path.read_bytes()
    assert all(out == outputs[0] for out in outputs)


def _tamper_header(path, out, mutate):
    blob = path.read_bytes()
    head, rest = blob.split(b"\n", 1)
    header = json.loads(head)
    mutate(header)
    out.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"\x00\x01 not a checkpoint")
    with pytest.raises(ParseError, match="checkpoint"):
        load_checkpoint(bad)


def test_checkpoint_rejects_wrong_format_and_version(tmp_path):
    _, tm, path = trained_tiny(tmp_path)
    wrong = tmp_path / "wrong.ckpt"
    _tamper_header(path, wrong, lambda h: h.update(format="other"))
    with pytest.raises(ParseError, match="not a model checkpoint"):
        load_checkpoint(wrong)
    newer = tmp_path / "newer.ckpt"
    _tamper_header(path, newer, lambda h: h.update(version=99))
    with pytest.raises(ParseError, match="version 99"):
        load_checkpoint(newer)
    _tamper_header(path, newer, lambda h: h.update(version=True))
    with pytest.raises(ParseError, match="version True"):
        load_checkpoint(newer)


def _repeat(h, i, token):
    h["vocab"][i] = token


_NOT_VOCAB_SIZE = "'vocab' must be a list of vocab_size=[0-9]+ token strings"


@pytest.mark.parametrize("mutate, match", [
    (lambda h: h["vocab"].pop(), _NOT_VOCAB_SIZE),  # decoded ids would index past the token list
    (lambda h: h["vocab"].append("extra"), _NOT_VOCAB_SIZE),
    # the specials no longer come first
    (lambda h: h["vocab"].reverse(), "token list must start with the four specials"),
    # the index would map a repeated word to its later id only
    (lambda h: _repeat(h, 5, h["vocab"][4]), "'vocab' repeats the token 'ana'"),
    (lambda h: _repeat(h, 5, "<eos>"), "'vocab' repeats the token '<eos>'"),
    # decoded, it would score as the tokens of its text, not as itself
    (lambda h: _repeat(h, 4, h["vocab"][4].upper()), "'vocab' token 'ANA' is not one token"),
], ids=["short", "long", "specials-last", "repeated", "repeated-eos", "not-a-token"])
def test_checkpoint_rejects_vocab_that_does_not_fit_the_config(tmp_path, mutate, match):
    _, tm, path = trained_tiny(tmp_path)
    tampered = tmp_path / "vocab.ckpt"
    _tamper_header(path, tampered, mutate)
    with pytest.raises(ParseError, match=match):
        load_checkpoint(tampered)


def test_vocabulary_from_tokens_rejects_a_repeated_token():
    specials = list(SPECIALS)
    vocab = Vocabulary.from_tokens(specials + ["a", "b"])
    assert vocab.encode(["a", "b", "c"]) == [4, 5, Vocabulary.UNK_ID]
    # an index over a repeated token would map it to its last id only
    with pytest.raises(ContractError, match="'vocab' repeats the token 'a'"):
        Vocabulary.from_tokens(specials + ["a", "b", "a"])
    with pytest.raises(ContractError, match="repeats the token '<eos>'"):
        Vocabulary.from_tokens(specials + ["<eos>"])
    with pytest.raises(ContractError, match="four specials"):
        Vocabulary.from_tokens(["a"] + specials)
    # no tokenisation of a text yields these, so no trained model decodes them
    for odd in ("Ana", "a_b", "two words", "a.", ""):
        with pytest.raises(ContractError, match=f"token {odd!r} is not one token"):
            Vocabulary.from_tokens(specials + ["a", odd])


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    _, tm, path = trained_tiny(tmp_path)
    short = tmp_path / "short.ckpt"
    short.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(short)
    long = tmp_path / "long.ckpt"
    long.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ParseError, match="trailing"):
        load_checkpoint(long)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values(tmp_path, value):
    """A blob value that is not finite is refused as the blob is read,
    naming its parameter: a model of NaN weights would decode every
    instance to an empty explanation and score a row of zeros."""
    _, tm, path = trained_tiny(tmp_path)
    head, rest = path.read_bytes().split(b"\n", 1)
    names = [name for name, _ in named_parameters(tm.params)]
    bad = np.array([value], dtype="<f8").tobytes()
    one = tmp_path / "one.ckpt"  # the last value of the last parameter
    one.write_bytes(head + b"\n" + rest[:-8] + bad)
    with pytest.raises(ParseError, match=f"parameter '{names[-1]}' holds a non-finite value"):
        load_checkpoint(one)
    every = tmp_path / "every.ckpt"
    every.write_bytes(head + b"\n" + bad * (len(rest) // 8))
    with pytest.raises(ParseError, match=f"parameter '{names[0]}' holds a non-finite value"):
        load_checkpoint(every)


def test_checkpoint_rejects_renamed_parameter(tmp_path):
    _, tm, path = trained_tiny(tmp_path)

    def rename(h):
        h["params"][-1]["name"] = "mystery"

    tampered = tmp_path / "renamed.ckpt"
    _tamper_header(path, tampered, rename)
    with pytest.raises(ParseError, match="'params' lists .*\"name\": \"mystery\""):
        load_checkpoint(tampered)

    def drop(h):
        del h["params"][-1]

    _tamper_header(path, tmp_path / "short_table.ckpt", drop)
    with pytest.raises(ParseError, match="'params' lists [0-9]+ parameters, the configured "
                                         "architecture has [0-9]+"):
        load_checkpoint(tmp_path / "short_table.ckpt")


@pytest.mark.parametrize("rows", ["fewer", "more", 10**12, 2**62])
def test_checkpoint_rejects_shape_mismatch(tmp_path, rows):
    """A shape in the table that the architecture does not have is refused
    before any blob is read: reading the declared 10**12 or 2**62 rows
    would raise MemoryError or OverflowError instead."""
    _, tm, path = trained_tiny(tmp_path)

    def reshape(h):
        entry = h["params"][0]
        entry["rows"] = {"fewer": entry["rows"] - 1, "more": entry["rows"] + 1}.get(rows, rows)

    tampered = tmp_path / "reshaped.ckpt"
    _tamper_header(path, tampered, reshape)
    with pytest.raises(ParseError, match="'params' lists .*\"name\": \"embedding\""):
        load_checkpoint(tampered)


def _swap_first_two(h):
    h["params"][:2] = h["params"][1::-1]


@pytest.mark.parametrize("mutate", [
    _swap_first_two,
    # the last parameter, a bias, is one row: true and 1.0 equal 1 in Python, not in JSON text
    lambda h: h["params"][-1].update(rows=True),
    lambda h: h["params"][-1].update(rows=1.0),
    lambda h: h["params"][0].update(dtype="float64"),
], ids=["reordered", "rows-true", "rows-float", "extra-key"])
def test_checkpoint_table_must_be_the_written_one(tmp_path, mutate):
    """The table is compared whole with the one ``save_checkpoint`` writes:
    a reordered table would load each blob into the wrong parameter."""
    _, tm, path = trained_tiny(tmp_path)
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["params"][-1]["rows"] == 1
    tampered = tmp_path / "table.ckpt"
    _tamper_header(path, tampered, mutate)
    with pytest.raises(ParseError, match="'params' lists "):
        load_checkpoint(tampered)


def test_checkpoint_vocab_is_checked_before_init_allocates(tmp_path):
    """A config claiming 10**6 tokens, inside the allocation limit, would
    make init allocate their rows; the vocab length is compared first.
    (10**12 tokens is refused earlier, by the limit.)"""
    _, tm, path = trained_tiny(tmp_path)
    tampered = tmp_path / "huge.ckpt"
    _tamper_header(path, tampered, lambda h: h["config"].update(vocab_size=10**6))
    with pytest.raises(ParseError, match="vocab_size=1000000 token strings"):
        load_checkpoint(tampered)
