"""Synthetic task tests.

The two load-bearing properties are checked with independent statistical
oracles: the modality streams must carry their class label (a least-squares
linear probe on mean-pooled features), and the text must carry none of it
(chi-square independence of filler tokens and action labels across seeds).
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from maf.data import validate_instance
from maf.errors import ConfigError, ContractError
from maf.model import ModelConfig, TrainConfig, train
from maf.presets import GAP_MODEL, GAP_SPEC, GAP_VARIANTS, TEST_SEED_SALT
from maf.synthetic import (
    SyntheticSpec,
    action_word,
    evaluate_variant,
    generate,
    speaker_name,
    target_word,
)
from maf.text import tokenize

SPEC = SyntheticSpec(num_instances=120, seed=7)


@pytest.fixture(scope="module")
def corpus():
    return generate(SPEC)


# ---- spec validation ---------------------------------------------------------


def test_default_spec_is_valid():
    SyntheticSpec().validate()


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(num_instances=0), "num_instances"),
        (dict(speakers=1), "speakers"),
        (dict(actions=1), "actions"),
        (dict(targets=1), "targets"),
        (dict(frames=0), "frames"),
        (dict(noise=-0.5), "noise"),
        (dict(actions=17), "'actions' must be <= 16"),
        (dict(targets=33), "'targets' must be <= 32"),
        (dict(seed=-1), "seed"),
        # one cap, model._MAX_FRAMES, on an instance's audio frames and video windows
        (dict(windows=10**6), "'windows' must be <= 512"),
        (dict(num_instances=10_000, frames=4096), "'frames' must be <= 512"),
        (dict(num_instances=10_000, frames=512, windows=512), "the corpus would take"),
        # 384 MB of features, but 2 KiB of objects per instance on top
        (dict(num_instances=10**6, frames=1, windows=1), "the corpus would take"),
    ],
    ids=["num_instances-0", "speakers-1", "actions-1", "targets-1", "frames-0", "noise-negative",
         "actions-past-audio-width", "targets-past-video-width", "seed-negative", "windows-past-cap",
         "frames-past-cap", "corpus-at-frame-caps", "corpus-of-one-frame-instances"],
)
def test_spec_rejects(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        replace(SPEC, **kw).validate()


# ---- corpus shape and determinism ---------------------------------------------


def test_generate_count_and_unique_ids(corpus):
    assert len(corpus) == SPEC.num_instances
    ids = [inst.id for inst in corpus]
    assert len(set(ids)) == len(ids)
    assert ids[3] == "syn-7-00003"


def test_generated_instances_pass_the_dataset_contract(corpus):
    for inst in corpus:
        validate_instance(inst)


def test_generate_is_deterministic(corpus):
    again = generate(SPEC)
    for a, b in zip(corpus, again):
        assert a.id == b.id
        assert a.explanation == b.explanation
        assert [u.text for u in a.utterances] == [u.text for u in b.utterances]
        assert np.array_equal(a.audio_features, b.audio_features)
        assert np.array_equal(a.video_features, b.video_features)


def test_generate_depends_on_seed():
    a = generate(replace(SPEC, num_instances=20, seed=1))
    b = generate(replace(SPEC, num_instances=20, seed=2))
    assert any(x.explanation != y.explanation for x, y in zip(a, b))


def test_feature_shapes(corpus):
    for inst in corpus:
        assert inst.audio_features.shape == (SPEC.frames, ModelConfig().audio_raw_dim)
        assert inst.video_features.shape == (SPEC.windows, ModelConfig().video_raw_dim)
        assert 2 <= len(inst.utterances) <= 3


def test_source_speaks_last(corpus):
    for inst in corpus:
        assert inst.utterances[-1].speaker == inst.sarcasm_source


def test_explanation_is_source_action_target(corpus):
    for inst in corpus:
        toks = tokenize(inst.explanation)
        assert toks == [inst.sarcasm_source, inst.action_word, inst.sarcasm_target]
        assert inst.description is None


def test_label_words_are_well_formed(corpus):
    for inst in corpus:
        assert inst.sarcasm_source in {speaker_name(i) for i in range(SPEC.speakers)}
        assert inst.action_word in {action_word(i) for i in range(SPEC.actions)}
        assert inst.sarcasm_target in {target_word(i) for i in range(SPEC.targets)}


def test_filler_text_vocabulary_is_label_free(corpus):
    label_words = (
        {speaker_name(i) for i in range(SPEC.speakers)}
        | {action_word(i) for i in range(SPEC.actions)}
        | {target_word(i) for i in range(SPEC.targets)}
    )
    for inst in corpus:
        for u in inst.utterances:
            assert not (set(tokenize(u.text)) & label_words), inst.id


def test_every_label_value_occurs(corpus):
    actions = {inst.action_word for inst in corpus}
    targets = {inst.sarcasm_target for inst in corpus}
    sources = {inst.sarcasm_source for inst in corpus}
    assert len(actions) == SPEC.actions
    assert len(targets) == SPEC.targets
    assert len(sources) == SPEC.speakers


# ---- class signal in the feature streams ----------------------------------------


def test_noiseless_features_are_exact_basis_rows():
    clean = generate(replace(SPEC, num_instances=12, noise=0.0))
    for inst in clean:
        a = int(inst.action_word.removeprefix("act"))
        t = int(inst.sarcasm_target.removeprefix("tgt"))
        want_a = np.zeros(ModelConfig().audio_raw_dim)
        want_a[a] = 1.0
        assert np.array_equal(inst.audio_features, np.tile(want_a, (SPEC.frames, 1)))
        want_v = np.zeros(ModelConfig().video_raw_dim)
        want_v[t] = 1.0
        assert np.array_equal(inst.video_features, np.tile(want_v, (SPEC.windows, 1)))


def test_noise_level_controls_feature_spread():
    spec = replace(SPEC, num_instances=40, noise=0.1)
    offs = []
    for inst in generate(spec):
        a = int(inst.action_word.removeprefix("act"))
        off = np.delete(inst.audio_features, a, axis=1)
        offs.append(off.std())
    assert 0.05 < float(np.mean(offs)) < 0.2


def _probe_accuracy(features, labels, classes):
    """Least-squares linear probe: one-hot regression on mean-pooled rows,
    scored on a held-out tail. Plain numpy oracle, no model code."""
    x = np.stack([f.mean(axis=0) for f in features])
    x = np.hstack([x, np.ones((len(x), 1))])
    y = np.zeros((len(labels), classes))
    y[np.arange(len(labels)), labels] = 1.0
    cut = int(0.7 * len(x))
    w, *_ = np.linalg.lstsq(x[:cut], y[:cut], rcond=None)
    pred = np.argmax(x[cut:] @ w, axis=1)
    return float(np.mean(pred == np.asarray(labels[cut:])))


def test_linear_probe_reads_action_from_audio():
    corpus = generate(replace(SPEC, num_instances=300, seed=11))
    feats = [inst.audio_features for inst in corpus]
    labels = [int(inst.action_word.removeprefix("act")) for inst in corpus]
    assert _probe_accuracy(feats, labels, SPEC.actions) > 0.95


def test_linear_probe_reads_target_from_video():
    corpus = generate(replace(SPEC, num_instances=300, seed=11))
    feats = [inst.video_features for inst in corpus]
    labels = [int(inst.sarcasm_target.removeprefix("tgt")) for inst in corpus]
    assert _probe_accuracy(feats, labels, SPEC.targets) > 0.95


def test_linear_probe_cannot_read_action_from_video():
    corpus = generate(replace(SPEC, num_instances=300, seed=11))
    feats = [inst.video_features for inst in corpus]
    labels = [int(inst.action_word.removeprefix("act")) for inst in corpus]
    assert _probe_accuracy(feats, labels, SPEC.actions) < 0.5


# ---- text carries no label information -------------------------------------------


def _filler_action_pvalue(seed: int) -> float:
    corpus = generate(replace(SPEC, num_instances=250, seed=seed))
    vocab = sorted({w for inst in corpus for u in inst.utterances for w in tokenize(u.text)})
    index = {w: i for i, w in enumerate(vocab)}
    table = np.zeros((SPEC.actions, len(vocab)))
    for inst in corpus:
        a = int(inst.action_word.removeprefix("act"))
        for u in inst.utterances:
            for w in tokenize(u.text):
                table[a, index[w]] += 1
    _, p, _, _ = scipy.stats.chi2_contingency(table)
    return float(p)


def test_filler_tokens_independent_of_action():
    """Independent draws still produce p < 0.05 about one seed in twenty,
    so the guarantee is counted over a seed pool rather than per seed."""
    pvalues = {seed: _filler_action_pvalue(seed) for seed in range(1, 9)}
    passing = [seed for seed, p in pvalues.items() if p > 0.05]
    assert len(passing) >= 5, pvalues


def test_source_label_independent_of_action():
    corpus = generate(replace(SPEC, num_instances=400, seed=3))
    table = np.zeros((SPEC.speakers, SPEC.actions))
    for inst in corpus:
        s = int(inst.sarcasm_source.removeprefix("spk"))
        a = int(inst.action_word.removeprefix("act"))
        table[s, a] += 1
    _, p, _, _ = scipy.stats.chi2_contingency(table)
    assert p > 0.05


# ---- rich templates -----------------------------------------------------------


def test_rich_templates_append_a_deterministic_clause():
    rich = generate(replace(SPEC, num_instances=60, rich_templates=True))
    plain = generate(replace(SPEC, num_instances=60))
    for r, p in zip(rich, plain):
        toks = tokenize(r.explanation)
        assert len(toks) == 7
        assert toks[:3] == tokenize(p.explanation)
        assert toks[3] == "while" and toks[5] == "and"
        assert r.description is not None
        assert r.explanation.endswith(r.description)
        assert r.id == p.id


def test_rich_clause_is_a_function_of_the_labels():
    rich = generate(replace(SPEC, num_instances=200, rich_templates=True, seed=5))
    seen: dict[tuple[str, str], str] = {}
    for inst in rich:
        key = (inst.action_word, inst.sarcasm_target)
        if key in seen:
            assert seen[key] == inst.description, key
        else:
            seen[key] = inst.description
    # the clause varies across label pairs rather than being one constant
    assert len(set(seen.values())) > 1


def test_rich_templates_leave_features_and_text_unchanged():
    rich = generate(replace(SPEC, num_instances=30, rich_templates=True))
    plain = generate(replace(SPEC, num_instances=30))
    for r, p in zip(rich, plain):
        assert np.array_equal(r.audio_features, p.audio_features)
        assert [u.text for u in r.utterances] == [u.text for u in p.utterances]


# ---- gap evaluation ------------------------------------------------------------


class _Canned:
    """Stands in for a trained model inside evaluate_variant via the
    generate_explanations hook."""

    def __init__(self, mapping):
        self.mapping = mapping


def _patch_generation(monkeypatch):
    monkeypatch.setattr(
        "maf.synthetic.generate_explanations",
        lambda tm, insts: [tokenize(tm.mapping[inst.id]) for inst in insts],
    )


def test_evaluate_variant_rejects_empty_test():
    with pytest.raises(ContractError, match="empty test set"):
        evaluate_variant(_Canned({}), [])


def test_evaluate_variant_scores_by_hand(monkeypatch, corpus):
    _patch_generation(monkeypatch)
    test = corpus[:4]
    hyps = {
        test[0].id: test[0].explanation,                       # exact
        test[1].id: test[1].explanation,                       # exact
        test[2].id: f"{test[2].sarcasm_source} {test[2].action_word} elsewhere",
        test[3].id: "completely unrelated words",
    }
    row = evaluate_variant(_Canned(hyps), test)
    assert row["exact_match"] == pytest.approx(2 / 4)
    assert row["action_acc"] == pytest.approx(3 / 4)
    assert row["source_acc"] == pytest.approx(3 / 4)
    assert row["target_acc"] == pytest.approx(2 / 4)
    assert row["R1"] == pytest.approx((1.0 + 1.0 + 2 / 3 + 0.0) / 4)
    for key in ("R2", "RL", "B1", "B2", "B3", "B4"):
        assert key in row


def test_gap_variant_roster():
    assert GAP_VARIANTS == ("TextOnly", "MAF", "Concat2", "DPA", "NoGIF")


# ---- single-modality variants -----------------------------------------------------


@pytest.mark.parametrize("variant, learned, blind", [
    ("TA", "action_acc", "target_acc"),
    ("TV", "target_acc", "action_acc"),
])
def test_single_modality_variant_learns_only_its_label(variant, learned, blind):
    """TA reads audio only, so it learns the action and stays at chance on
    the target; TV is the mirror image. A reduced gap config (300 plain
    instances, width 16, 6 epochs) keeps the run to a few seconds; the
    measured split there is 1.0 against 0.13-0.18 at seeds 1-3."""
    spec = replace(GAP_SPEC, num_instances=300, rich_templates=False, seed=1)
    train_insts = generate(spec)
    test_insts = generate(replace(spec, seed=1 ^ TEST_SEED_SALT, num_instances=100))
    cfg = replace(GAP_MODEL, d=16, ffn=32, variant=variant, seed=1)
    row = evaluate_variant(train(train_insts, cfg, TrainConfig(lr=2e-3, epochs=6)), test_insts)
    chance = {"action_acc": 1 / spec.actions, "target_acc": 1 / spec.targets}
    assert row[learned] >= 0.8, row
    assert row[blind] <= chance[blind] + 0.15, row
