"""Acceptance suite: the eight gate criteria for this package.

Each test states its threshold inline and prints one PASS line with the
measured numbers, so a log of this file is a complete acceptance record.
The two training-based criteria (the fusion gap and the ablation ordering)
share one session fixture that trains TextOnly, MAF, and Concat2 at three
seeds on the synthetic task; everything else runs in seconds.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from maf.data import (
    DialogueInstance,
    Utterance,
    load_and_validate,
    merge_annotations,
    split,
)
from maf.errors import ContractError, ParseError, ValidationError
from maf.experiments import main as cli_main
from maf.gif import GifParams, gif_fuse
from maf.mca2 import Mca2Params, mca2_forward
from maf.metrics import METRIC_COLUMNS, MetricReport, bleu_k, rouge_l, rouge_n
from maf.model import (
    ModelConfig,
    build_vocabulary,
    encode,
    init_model_params,
    instance_target_ids,
    instance_token_ids,
    named_parameters,
    train,
)
from maf.model import _instance_loss
from maf.presets import GAP_MODEL, GAP_SEEDS, GAP_SPEC, GAP_TRAIN, TEST_SEED_SALT
from maf.synthetic import evaluate_variant, generate
from maf.tensor import Tensor, backward

from oracles import (
    gradients_close,
    loop_attend,
    loop_gif,
    loop_mca2,
    numeric_gradient,
)

# ---- shared training runs for the two gap criteria --------------------------------


@pytest.fixture(scope="session")
def gap_runs():
    """Train TextOnly, MAF, and Concat2 at three seeds; return per-cell
    held-out scores and the total wall time."""
    t0 = time.monotonic()
    scores = {}
    for seed in GAP_SEEDS:
        train_insts = generate(replace(GAP_SPEC, seed=seed))
        test_insts = generate(
            replace(GAP_SPEC, seed=seed ^ TEST_SEED_SALT, num_instances=100)
        )
        for variant in ("TextOnly", "MAF", "Concat2"):
            tm = train(train_insts, replace(GAP_MODEL, variant=variant, seed=seed), GAP_TRAIN)
            scores[(variant, seed)] = evaluate_variant(tm, test_insts)
    return scores, time.monotonic() - t0


def _seed_mean(scores, variant, key):
    return sum(scores[(variant, s)][key] for s in GAP_SEEDS) / len(GAP_SEEDS)


# ---- criterion 1: finite-difference gradient suite ---------------------------------


def test_acceptance_1_gradient_suite():
    """Every learnable parameter of the full fused model in a width-8,
    length-4 configuration matches central finite differences with relative
    error < 1e-4, in under 60 seconds."""
    t0 = time.monotonic()
    corpus = [
        DialogueInstance(
            id="g0",
            utterances=[Utterance("bo", "hi"), Utterance("cy", "yo")],
            audio_features=np.random.default_rng(1).normal(size=(3, 4)),
            video_features=np.random.default_rng(2).normal(size=(2, 4)),
            explanation="cy mocks bo",
            sarcasm_source="cy",
            sarcasm_target="bo",
            action_word="mocks",
        )
    ]
    cfg = ModelConfig(
        d=8,
        encoder_layers=2,
        decoder_layers=1,
        ffn=16,
        heads=2,
        fusion_layer_index=2,
        d_c_audio=4,
        d_c_video=4,
        audio_raw_dim=4,
        video_raw_dim=4,
        max_text_len=4,
        max_target_len=4,
        variant="MAF",
        seed=5,
    )
    vocab = build_vocabulary(corpus)
    cfg = replace(cfg, vocab_size=len(vocab))
    params = init_model_params(cfg)
    inst = corpus[0]
    src = instance_token_ids(inst, vocab)
    tgt = instance_target_ids(inst, vocab)
    audio, video = Tensor(inst.audio_features), Tensor(inst.video_features)
    assert len(src) == 4

    named = named_parameters(params)
    per_block = {"adapter.mca2_audio.": 0, "adapter.mca2_video.": 0, "adapter.gif.": 0}
    for name, _ in named:
        for prefix in per_block:
            per_block[prefix] += name.startswith(prefix)
    assert per_block["adapter.mca2_audio."] == 9
    assert per_block["adapter.mca2_video."] == 9
    assert per_block["adapter.gif."] == 4

    loss = _instance_loss(src, audio, video, tgt, cfg, params)
    backward(loss)

    def loss_value():
        return _instance_loss(src, audio, video, tgt, cfg, params).item()

    checked = entries = 0
    worst_overall = 0.0
    for name, t in named:
        assert t.grad is not None, f"no gradient reached '{name}'"
        analytic = t.grad.copy()
        numeric = numeric_gradient(loss_value, t.data)
        ok, worst = gradients_close(analytic, numeric, rtol=1e-4, atol=1e-8)
        assert ok, f"{name}: violation ratio {worst:.3e} beyond rtol=1e-4"
        worst_overall = max(worst_overall, worst)
        checked += 1
        entries += t.data.size
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE PASS [1/8] gradient suite: {checked} parameters "
        f"({entries} entries) within rtol 1e-4 (worst ratio {worst_overall:.2e}) "
        f"in {elapsed:.1f}s"
    )


# ---- criterion 2: equation-literal loop oracles ------------------------------------


def test_acceptance_2_loop_oracles():
    """The fused attention block and the gated merge both match explicit
    per-element loop oracles within 1e-12 on 100 random instances each."""
    rng = np.random.default_rng(2024)
    worst_att = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        d_c = int(rng.integers(1, 7))
        p = Mca2Params.init(d, d_c, rng)
        for g in (p.gate_k_text, p.gate_k_ctx, p.gate_v_text, p.gate_v_ctx):
            g.data = rng.normal(scale=0.7, size=g.data.shape)
        h = rng.normal(size=(n, d))
        c = rng.normal(size=(n, d_c))
        got = mca2_forward(Tensor(h), Tensor(c), p).data
        want = loop_mca2(h.tolist(), c.tolist(), {k: t.data.tolist() for k, t in named_parameters(p)})
        worst_att = max(worst_att, float(np.max(np.abs(got - np.array(want)))))
    assert worst_att < 1e-12

    worst_gif = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 8))
        gp = GifParams.zero_init(d)
        gp.w_audio.data = rng.normal(size=(2 * d, d))
        gp.w_video.data = rng.normal(size=(2 * d, d))
        gp.b_audio.data = rng.normal(size=(1, d))
        gp.b_video.data = rng.normal(size=(1, d))
        h, ha, hv = (rng.normal(size=(n, d)) for _ in range(3))
        got = gif_fuse(Tensor(h), Tensor(ha), Tensor(hv), gp).data
        want = loop_gif(
            h.tolist(), ha.tolist(), hv.tolist(),
            gp.w_audio.data.tolist(), gp.w_video.data.tolist(),
            gp.b_audio.data.tolist(), gp.b_video.data.tolist(),
        )
        worst_gif = max(worst_gif, float(np.max(np.abs(got - np.array(want)))))
    assert worst_gif < 1e-12
    print(
        f"ACCEPTANCE PASS [2/8] loop oracles: 100+100 random instances, "
        f"attention worst {worst_att:.2e}, fusion worst {worst_gif:.2e} (< 1e-12)"
    )


# ---- criterion 3: reduction invariants ---------------------------------------------


def test_acceptance_3_reduction_invariants():
    """Three collapses: a zeroed mixing gate reduces the fused attention to
    plain scaled dot-product attention (within 1e-12); zero fusion weights
    make the gated merge the exact identity; a freshly initialised adapter
    leaves the whole model equal to the text-only variant before training."""
    rng = np.random.default_rng(77)

    # (a) mixing gate pinned to the text side == plain attention over Q,K,V
    worst = 0.0
    for _ in range(20):
        n, d, d_c = 5, 8, 4
        p = Mca2Params.init(d, d_c, rng)
        for g in (p.gate_k_text, p.gate_k_ctx, p.gate_v_text, p.gate_v_ctx):
            g.data = rng.normal(size=g.data.shape)
        h = rng.normal(size=(n, d))
        c = rng.normal(size=(n, d_c))
        got = mca2_forward(Tensor(h), Tensor(c), p, gate_override=0.0).data
        q, k, v = h @ p.w_q.data, h @ p.w_k.data, h @ p.w_v.data
        want = np.array(loop_attend(q.tolist(), k.tolist(), v.tolist(), d))
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-12

    # (b) zero fusion parameters: output is bit-for-bit the text stream
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        h, ha, hv = (rng.normal(size=(n, d)) for _ in range(3))
        out = gif_fuse(Tensor(h), Tensor(ha), Tensor(hv), GifParams.zero_init(d)).data
        assert np.array_equal(out, h)

    # (c) fresh adapter: fused model == text-only model at step 0
    corpus = generate(replace(GAP_SPEC, num_instances=8, seed=9))
    vocab = build_vocabulary(corpus)
    base = replace(GAP_MODEL, vocab_size=len(vocab))
    params_maf = init_model_params(replace(base, variant="MAF", seed=4))
    params_txt = init_model_params(replace(base, variant="TextOnly", seed=4))
    for inst in corpus[:3]:
        ids = instance_token_ids(inst, vocab)
        fused = encode(ids, inst.audio_features, inst.video_features,
                       replace(base, variant="MAF", seed=4), params_maf)
        plain = encode(ids, None, None, replace(base, variant="TextOnly", seed=4), params_txt)
        assert np.array_equal(fused.data, plain.data)
    print(
        f"ACCEPTANCE PASS [3/8] reduction invariants: gate collapse worst {worst:.2e} "
        f"(< 1e-12), zero-fusion identity bit-exact, fresh adapter == text-only at step 0"
    )


# ---- criteria 4 and 5: trained fusion gap and ablation ordering --------------------


def test_acceptance_4_synthetic_fusion_gap(gap_runs):
    """Trained on the controlled task (6 speakers, 5 actions, 6 targets,
    noise 0.1, 600 train / 100 held-out, seeds 1-3): the text-only model
    stays within ±10 points of the 20% action-accuracy floor while the
    fused model beats it by at least 30 points on the seed mean, with the
    whole training budget under 15 minutes."""
    scores, elapsed = gap_runs
    floor = _seed_mean(scores, "TextOnly", "action_acc")
    fused = _seed_mean(scores, "MAF", "action_acc")
    gap = fused - floor
    assert 0.10 <= floor <= 0.30, f"TextOnly action accuracy {floor:.3f} left the chance band"
    assert gap >= 0.30, f"fusion gap {gap:+.3f} under the 30-point bar"
    assert elapsed <= 900.0, f"training budget blown: {elapsed:.0f}s"
    per_seed = ", ".join(
        f"seed {s}: {scores[('MAF', s)]['action_acc']:.2f} vs "
        f"{scores[('TextOnly', s)]['action_acc']:.2f}"
        for s in GAP_SEEDS
    )
    print(
        f"ACCEPTANCE PASS [4/8] fusion gap: TextOnly action {floor:.3f} (in 0.10..0.30), "
        f"MAF action {fused:.3f}, gap {gap:+.3f} >= +0.30 ({per_seed}); "
        f"all nine runs in {elapsed:.0f}s <= 900s"
    )


def test_acceptance_5_ablation_ordering(gap_runs):
    """Replacing the whole fusion block with a single concatenation layer
    costs at least 10 exact-match points against the gated design (seed
    mean over three seeds)."""
    scores, _ = gap_runs
    maf = _seed_mean(scores, "MAF", "exact_match")
    concat = _seed_mean(scores, "Concat2", "exact_match")
    drop = maf - concat
    assert drop >= 0.10, f"Concat2 only {drop:+.3f} below MAF"
    per_seed = ", ".join(
        f"seed {s}: {scores[('MAF', s)]['exact_match']:.2f} vs "
        f"{scores[('Concat2', s)]['exact_match']:.2f}"
        for s in GAP_SEEDS
    )
    print(
        f"ACCEPTANCE PASS [5/8] ablation ordering: exact-match MAF {maf:.3f} vs "
        f"Concat2 {concat:.3f}, drop {drop:+.3f} >= +0.10 ({per_seed})"
    )


# ---- criterion 6: metric hand examples ---------------------------------------------


def test_acceptance_6_metric_oracles():
    """The overlap metrics reproduce the frozen hand-worked examples to
    1e-9, score identity pairs at 1.0, and the report renders dashes for
    the two score columns this package does not compute."""
    tol = 1e-9
    assert abs(rouge_n("a b c", "a b d", 1) - 2 / 3) < tol
    assert abs(rouge_l("a c b", "a b c") - 2 / 3) < tol
    assert abs(rouge_n("c b a", "a b c", 1) - 1.0) < tol   # order-blind
    assert abs(rouge_l("c b a", "a b c") - 1 / 3) < tol    # order-aware
    assert abs(rouge_n("a b c d", "a b c e", 2) - 2 / 3) < tol
    assert abs(bleu_k("a b", "a b c", 1) - np.exp(1 - 3 / 2)) < tol
    assert abs(bleu_k("a a a", "a b", 1) - 1 / 3) < tol    # count clipping, no penalty
    assert abs(bleu_k("a b c", "a b d", 2) - np.sqrt((2 / 3) * (1 / 2))) < tol

    sentence = "the gold explanation repeats itself exactly"
    assert abs(rouge_n(sentence, sentence, 1) - 1.0) < tol
    assert abs(rouge_n(sentence, sentence, 2) - 1.0) < tol
    assert abs(rouge_l(sentence, sentence) - 1.0) < tol
    for k in (1, 2, 3, 4):
        assert abs(bleu_k(sentence, sentence, k) - 1.0) < tol

    report = MetricReport()
    report.add_row("MAF", {"R1": 0.5, "B4": 0.25, "source_acc": 1.0})
    text, csv = report.to_text(), report.to_csv()
    m_col, bs_col = METRIC_COLUMNS.index("M"), METRIC_COLUMNS.index("BS")
    cells = csv.splitlines()[1].split(",")          # cell 0 is the row label
    assert cells[m_col + 1] == "-" and cells[bs_col + 1] == "-"
    assert text.splitlines()[1].split()[m_col + 1] == "-"
    print(
        "ACCEPTANCE PASS [6/8] metric oracles: hand examples to 1e-9, "
        "identity pairs 1.0, report dashes in the uncomputed columns"
    )


# ---- criterion 7: data pipeline ----------------------------------------------------


def _pipeline_instance(k):
    return DialogueInstance(
        id=f"dlg-{k:04d}",
        utterances=[Utterance("ana", "first line"), Utterance("bo", "second line")],
        audio_features=np.ones((2, 3)),
        video_features=np.ones((2, 3)),
        explanation="bo mocks ana",
        sarcasm_source="bo",
        sarcasm_target="ana",
        action_word="mocks",
    )


def test_acceptance_7_data_pipeline(tmp_path):
    """The corpus split reproduces the 1792/224/224 partition of 2240
    instances, annotation merging takes all three documented branches, and
    malformed files are rejected with located diagnostics."""
    corpus = [_pipeline_instance(k) for k in range(2240)]
    ids = split(corpus, seed=13)
    assert (len(ids.train), len(ids.validation), len(ids.test)) == (1792, 224, 224)
    assert set(ids.train) | set(ids.validation) | set(ids.test) == {i.id for i in corpus}
    assert not (set(ids.train) & set(ids.validation)) and not (set(ids.train) & set(ids.test))

    same = merge_annotations("he mocks her cooking", "he mocks her cooking")
    assert same.chosen == "he mocks her cooking" and same.similarity == pytest.approx(1.0)
    apart = merge_annotations("completely different words", "nothing shared here")
    assert apart.conflict is not None and apart.similarity == pytest.approx(0.0)
    near = merge_annotations(
        "maya taunts monisha for cooking",
        "maya taunts monisha for her cooking skills",
    )
    assert near.similarity == pytest.approx(5 / np.sqrt(35), abs=1e-9)
    assert near.conflict is not None  # 0.845 similarity stays below the 0.9 bar

    rec = {
        "id": "x",
        "utterances": [
            {"speaker": "ana", "text": "fine weather"},
            {"speaker": "bo", "text": "sure it is"},
        ],
        "audio_features": [[1.0], [2.0]],
        "video_features": [[1.0], [2.0]],
        "explanation": "ana mocks bo",
        "sarcasm_source": "ana",
        "sarcasm_target": "bo",
        "action_word": "mocks",
        "description": None,
    }
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text(json.dumps(rec) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_and_validate(bad_json)

    one_utt = tmp_path / "one_utt.jsonl"
    short = dict(rec, utterances=rec["utterances"][:1], audio_features=[[1.0]],
                 video_features=[[1.0]])
    one_utt.write_text(json.dumps(short) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="at-least-two") as exc_info:
        load_and_validate(one_utt)
    assert exc_info.value.field == "utterances"
    assert exc_info.value.line == 1

    ragged = tmp_path / "ragged.jsonl"
    rec2 = dict(rec, audio_features=[[1.0, 2.0], [3.0]])
    ragged.write_text(json.dumps(rec2) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="audio_features"):
        load_and_validate(ragged)

    with pytest.raises(ContractError, match="at least 10"):
        split(corpus[:9], seed=1)
    print(
        "ACCEPTANCE PASS [7/8] data pipeline: 2240 -> 1792/224/224 partition, "
        "all three merge branches, malformed fixtures rejected with located diagnostics"
    )


# ---- criterion 8: byte-identical reruns --------------------------------------------


def test_acceptance_8_byte_identical_reruns(tmp_path, capsys):
    """Repeating a command with the same config and seed rewrites every
    metric file byte for byte."""
    out = tmp_path / "run"
    config = {
        "model": {
            "d": 8, "encoder_layers": 2, "decoder_layers": 1, "ffn": 16,
            "heads": 2, "d_c_audio": 4, "d_c_video": 4,
            "max_text_len": 24, "max_target_len": 8,
        },
        "train": {"lr": 1e-3, "epochs": 1, "batch_size": 8},
        "synthetic": {
            "num_instances": 16, "speakers": 3, "actions": 3, "targets": 3,
            "frames": 4, "windows": 3, "noise": 0.1,
        },
        "test_instances": 6,
        "variants": ["TextOnly", "MAF"],
        "seeds": [1, 2],
        "out": str(out),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    assert cli_main(["ablate", "--config", str(cfg_path)]) == 0
    files = sorted(p.name for p in out.iterdir())
    metric_files = [n for n in files if n.startswith("metrics_")]
    assert len(metric_files) == 4
    first = {name: (out / name).read_bytes() for name in files}

    assert cli_main(["ablate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    for name in files:
        assert (out / name).read_bytes() == first[name], f"'{name}' changed between runs"
    print(
        f"ACCEPTANCE PASS [8/8] determinism: {len(metric_files)} metric files, "
        f"reports, and loss logs byte-identical across repeated runs"
    )
