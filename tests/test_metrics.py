"""Metric suite: frozen hand-computed values, identity and bound
properties, accuracy tallies, and the report table layout."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from maf.errors import ContractError
from maf.metrics import (
    METRIC_COLUMNS,
    SCORES,
    MetricReport,
    bleu_k,
    rouge_l,
    rouge_n,
    score_corpus,
)
from maf.text import tokenize

class Gold(NamedTuple):
    """What ``score_corpus`` reads of a gold instance."""

    sarcasm_source: str
    sarcasm_target: str
    action_word: str = ""
    explanation: str = ""


def tokenised(texts):
    return [tokenize(t) for t in texts]


def source_target(hyps, golds):
    row = score_corpus(hyps, golds)
    return row["source_acc"], row["target_acc"]


short_texts = st.lists(
    st.sampled_from("a b c d e".split()), min_size=0, max_size=8
).map(" ".join)


# ---- frozen hand-computed examples ------------------------------------------------


def test_rouge1_hand_example():
    # unigram overlap {a, b}: P = R = 2/3, F1 = 2/3
    assert rouge_n("a b c", "a b d", 1) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rouge2_hand_example():
    # bigrams: hyp {ab, bc}, ref {ab, bd} -> overlap 1, P = R = 1/2
    assert rouge_n("a b c", "a b d", 2) == pytest.approx(0.5, abs=1e-12)


def test_rouge_l_hand_example():
    # LCS("a c b", "a b c") = 2 -> P = R = 2/3
    assert rouge_l("a c b", "a b c") == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rouge_l_order_sensitivity():
    # same unigrams, reversed order: LCS = 1
    assert rouge_l("c b a", "a b c") == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rouge_n("c b a", "a b c", 1) == pytest.approx(1.0, abs=1e-12)


def test_bleu_brevity_penalty_hand_example():
    # perfect unigrams, hyp len 2 vs ref len 3: B1 = exp(1 - 3/2)
    assert bleu_k("a b", "a b c", 1) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_bleu_clipping_hand_example():
    # "a a a" vs "a b": clipped unigram precision 1/3, no brevity penalty
    assert bleu_k("a a a", "a b", 1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bleu4_zero_without_smoothing():
    # no 4-gram can match a 3-token reference
    assert bleu_k("a b c", "a b c", 4) == 0.0


def test_bleu2_hand_example():
    # hyp "a b c" vs ref "a b d": p1 = 2/3, p2 = 1/2, equal lengths
    want = math.sqrt((2.0 / 3.0) * 0.5)
    assert bleu_k("a b c", "a b d", 2) == pytest.approx(want, abs=1e-12)


# ---- identity, bounds, degeneracy ---------------------------------------------------


def test_identity_pairs_score_one():
    s = "maya mocks the cooking"
    assert rouge_n(s, s, 1) == 1.0
    assert rouge_n(s, s, 2) == 1.0
    assert rouge_l(s, s) == 1.0
    for k in (1, 2, 3, 4):
        assert bleu_k(s, s, k) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_pairs_score_zero():
    assert rouge_n("a b", "c d", 1) == 0.0
    assert rouge_l("a b", "c d") == 0.0
    assert bleu_k("a b", "c d", 1) == 0.0


def test_empty_sides_score_zero():
    assert rouge_n("", "a b", 1) == 0.0
    assert rouge_n("a b", "", 1) == 0.0
    assert rouge_l("", "") == 0.0
    assert bleu_k("", "a", 1) == 0.0


def test_tokenization_is_shared_and_case_insensitive():
    assert rouge_n("Hello, World!", "hello world", 1) == 1.0
    assert bleu_k("Hello, World!", "hello world", 2) == pytest.approx(1.0)


def test_rejects_bad_orders():
    with pytest.raises(ContractError):
        rouge_n("a", "a", 0)
    with pytest.raises(ContractError):
        bleu_k("a", "a", 0)


@settings(max_examples=80, deadline=None)
@given(short_texts, short_texts)
def test_all_metrics_bounded_and_exact_on_identity(hyp, ref):
    for v in (rouge_n(hyp, ref, 1), rouge_n(hyp, ref, 2), rouge_l(hyp, ref),
              bleu_k(hyp, ref, 1), bleu_k(hyp, ref, 4)):
        assert 0.0 <= v <= 1.0
    if hyp.split():
        assert rouge_n(hyp, hyp, 1) == 1.0
        assert rouge_l(hyp, hyp) == 1.0
        assert bleu_k(hyp, hyp, 1) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(short_texts, short_texts)
def test_rouge1_and_bleu1_agree_without_repeats_or_brevity(hyp, ref):
    h, r = hyp.split(), ref.split()
    if len(h) != len(r) or not h:
        return
    if len(set(h)) != len(h) or len(set(r)) != len(r):
        return
    # equal lengths, no repeats: unigram P = R = F1 and no brevity penalty
    assert bleu_k(hyp, ref, 1) == pytest.approx(rouge_n(hyp, ref, 1), abs=1e-12)


# ---- attribute accuracy ----------------------------------------------------------------------


def test_accuracy_all_hits_and_all_misses():
    golds = [Gold("maya", "the food") for _ in range(3)]
    hits = ["maya hates the food today"] * 3
    assert source_target(tokenised(hits), golds) == (1.0, 1.0)
    misses = ["nothing relevant here"] * 3
    assert source_target(tokenised(misses), golds) == (0.0, 0.0)


def test_accuracy_mixed_manual_tally():
    golds = [
        Gold("maya", "food"),
        Gold("indravardhan", "sahil"),
        Gold("monisha", "the neighbours"),
        Gold("rosesh", "poetry"),
    ]
    hyps = [
        "maya mocks the food",          # source hit, target hit
        "sahil is teased",              # source miss, target hit
        "monisha laughs at neighbours", # source hit, target miss (partial phrase)
        "someone recites poetry",       # source miss, target hit
    ]
    src, tgt = source_target(tokenised(hyps), golds)
    assert src == pytest.approx(2.0 / 4.0)
    assert tgt == pytest.approx(3.0 / 4.0)


def test_accuracy_multi_word_gold_requires_all_tokens():
    golds = [Gold("maya sarabhai", "x")]
    assert source_target([["maya", "speaks"]], golds)[0] == 0.0
    assert source_target([["sarabhai", "maya", "speaks"]], golds)[0] == 1.0


def test_accuracy_works_with_attribute_objects():
    class Plain:
        sarcasm_source = "maya"
        sarcasm_target = "food"
        action_word = "mocks"
        explanation = "Maya mocks food."

    row = score_corpus([["maya", "mocks", "food"]], [Plain()])
    assert [row[k] for k in ("action_acc", "source_acc", "target_acc", "exact_match")] == [1.0] * 4


def test_action_accuracy_follows_the_shared_token_rule():
    """The action word is tokenised like every other gold attribute: a
    capitalised or two-token action hits, an action with no token never
    does."""
    hyps = [["maya", "mocks", "food"], ["eyes", "maya", "rolls"], ["maya", "rolls"], [], ["maya"]]
    golds = [Gold("maya", "food", "Mocks"), Gold("maya", "food", "rolls eyes"),
             Gold("maya", "food", "rolls eyes"), Gold("maya", "food", ""),
             Gold("maya", "food", "?!")]
    assert score_corpus(hyps, golds)["action_acc"] == pytest.approx(2 / 5)


def test_accuracy_rejects_length_mismatch_and_empty():
    with pytest.raises(ContractError):
        source_target([["a"]], [])
    with pytest.raises(ContractError):
        source_target([], [])


# ---- corpus aggregation -------------------------------------------------------------------


def test_score_corpus_is_mean_of_per_instance_scores():
    hyps = ["a b c", "a b", "x y"]
    refs = ["a b d", "a b c", "X, y!"]
    got = score_corpus(tokenised(hyps), [Gold("", "", explanation=r) for r in refs])
    assert tuple(got) == SCORES
    assert got["exact_match"] == pytest.approx(1 / 3)  # compared after tokenization
    for key, fn in (("R1", lambda h, r: rouge_n(h, r, 1)),
                    ("R2", lambda h, r: rouge_n(h, r, 2)),
                    ("RL", rouge_l)):
        want = sum(fn(h, r) for h, r in zip(hyps, refs)) / 3
        assert got[key] == pytest.approx(want, abs=1e-12)
    for k in (1, 2, 3, 4):
        want = sum(bleu_k(h, r, k) for h, r in zip(hyps, refs)) / 3
        assert got[f"B{k}"] == pytest.approx(want, abs=1e-12)


def test_score_corpus_rejects_mismatch():
    with pytest.raises(ContractError):
        score_corpus([["a"]], [Gold("a", "b"), Gold("a", "b")])


def test_score_corpus_refuses_untokenised_text():
    """A string where a token list belongs would be scored character by
    character, so the scorer refuses it."""
    with pytest.raises(ContractError, match="token lists"):
        source_target(["a"], [Gold("a", "b")])
    with pytest.raises(ContractError, match="token lists"):
        score_corpus(["a b"], [Gold("a", "b", explanation="a b")])


# ---- report table ---------------------------------------------------------------------------


def test_report_columns_follow_the_table_layout():
    assert METRIC_COLUMNS == ("R1", "R2", "RL", "B1", "B2", "B3", "B4", "M", "BS",
                              "action_acc", "source_acc", "target_acc", "exact_match")
    # every score, then the two model-based columns after B4
    b4 = SCORES.index("B4") + 1
    assert METRIC_COLUMNS == (*SCORES[:b4], "M", "BS", *SCORES[b4:])


def test_report_renders_percentages_and_dashes():
    rep = MetricReport()
    rep.add_row("MAF", {"R1": 0.5, "R2": 0.25, "RL": 0.5, "B1": 1.0, "action_acc": 0.5,
                        "source_acc": 0.75, "target_acc": 1.0, "exact_match": 0.25})
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0].split() == ["label"] + list(METRIC_COLUMNS)
    cells = lines[1].split()
    assert cells[0] == "MAF"
    assert cells[1] == "50.00"
    # M and BS columns render as dashes, as do missing B2..B4
    m_idx = 1 + METRIC_COLUMNS.index("M")
    bs_idx = 1 + METRIC_COLUMNS.index("BS")
    assert cells[m_idx] == "-" and cells[bs_idx] == "-"
    assert cells[1 + METRIC_COLUMNS.index("B2")] == "-"
    assert cells[1 + METRIC_COLUMNS.index("source_acc")] == "75.00"

    csv = rep.to_csv()
    assert csv.splitlines()[0] == "label," + ",".join(METRIC_COLUMNS)
    assert csv.splitlines()[1] == "MAF,50.00,25.00,50.00,100.00,-,-,-,-,-,50.00,75.00,100.00,25.00"


def test_report_passes_string_cells_through():
    rep = MetricReport()
    rep.add_row("mean", {"R1": "12.00±1.00"})
    assert "12.00±1.00" in rep.to_text()
