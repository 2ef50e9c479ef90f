"""Generation metrics: n-gram overlap F1, LCS F1, clipped-precision BLEU,
and token-membership accuracy for structured explanation attributes.

All scorers share the package tokenizer, score a single reference per
hypothesis, and return fractions in [0, 1]; report tables convert to
percentages. Corpus scores are arithmetic means of per-instance scores.
The corpus scorers ``score_corpus`` and ``source_target_accuracy`` take
texts already tokenised, so a scoring pass tokenises each text once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import ContractError
from .text import tokenize

__all__ = [
    "rouge_n",
    "rouge_l",
    "bleu_k",
    "source_target_accuracy",
    "score_corpus",
    "MetricReport",
    "METRIC_COLUMNS",
]

def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    # one-row dynamic program; O(len(a) * len(b))
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


class _Counts(NamedTuple):
    """One hypothesis/reference pair, tokenised and counted once: the token
    counts, then for each n-gram order 1..k the hypothesis and reference
    n-gram totals and their clipped matches, then the LCS length."""

    hyp: int
    ref: int
    orders: tuple[tuple[int, int, int], ...]
    lcs: int


def _count(h: Sequence[str], r: Sequence[str], k: int) -> _Counts:
    orders = []
    for n in range(1, k + 1):
        hg, rg = _ngrams(h, n), _ngrams(r, n)
        matched = sum(min(c, rg[g]) for g, c in hg.items())
        orders.append((sum(hg.values()), sum(rg.values()), matched))
    return _Counts(len(h), len(r), tuple(orders), _lcs_len(h, r))


def _rouge_n(c: _Counts, n: int) -> float:
    hyp_total, ref_total, overlap = c.orders[n - 1]
    if not hyp_total or not ref_total:
        return 0.0
    return _f1(overlap / hyp_total, overlap / ref_total)


def _rouge_l(c: _Counts) -> float:
    if not c.hyp or not c.ref:
        return 0.0
    return _f1(c.lcs / c.hyp, c.lcs / c.ref)


def _bleu(c: _Counts, k: int) -> float:
    if not c.hyp:
        return 0.0
    precisions = []
    for hyp_total, _, matched in c.orders[:k]:
        if matched == 0:  # no n-gram matches, or the hypothesis has none
            return 0.0
        precisions.append(matched / hyp_total)
    log_mean = sum(math.log(p) for p in precisions) / k
    bp = 1.0 if c.hyp >= c.ref else math.exp(1.0 - c.ref / c.hyp)
    return bp * math.exp(log_mean)


def rouge_n(hyp: str, ref: str, n: int) -> float:
    """Clipped n-gram overlap F1 between one hypothesis and one reference."""
    if n < 1:
        raise ContractError(f"n-gram order must be >= 1, got {n}")
    return _rouge_n(_count(tokenize(hyp), tokenize(ref), n), n)


def rouge_l(hyp: str, ref: str) -> float:
    """Longest-common-subsequence F1."""
    return _rouge_l(_count(tokenize(hyp), tokenize(ref), 0))


def bleu_k(hyp: str, ref: str, k: int) -> float:
    """BLEU with orders 1..k: geometric mean of clipped modified precisions
    times the brevity penalty exp(1 - |ref| / |hyp|) when the hypothesis is
    shorter. A zero precision zeroes the score.
    """
    if k < 1:
        raise ContractError(f"BLEU order must be >= 1, got {k}")
    return _bleu(_count(tokenize(hyp), tokenize(ref), k), k)


def _check_pairs(hyps: Sequence[Sequence[str]], others: Sequence, what: str) -> None:
    """Refuse unequal lengths, nothing to score, and a string where a token
    list belongs: scored as one, it would count characters."""
    if len(hyps) != len(others):
        raise ContractError(f"got {len(hyps)} hypotheses for {len(others)} {what}")
    if not hyps:
        raise ContractError("nothing to score")
    if any(isinstance(x, str) for x in (*hyps, *others)):
        raise ContractError(f"hypotheses and {what} must be token lists (text.tokenize), "
                            f"not strings")


def source_target_accuracy(hyps: Sequence[Sequence[str]], golds: Sequence) -> tuple[float, float]:
    """Fraction of tokenised hypotheses containing the gold source / target
    token(s).

    Each of ``golds`` has ``sarcasm_source`` and ``sarcasm_target``
    attributes, as a ``DialogueInstance`` does. Matching is exact token
    membership after shared tokenization; multi-word golds must appear in
    full.
    """
    _check_pairs(hyps, golds, "golds")

    def contains(hyp_tokens: Sequence[str], gold: str) -> bool:
        want = tokenize(gold)
        return bool(want) and all(w in hyp_tokens for w in want)

    src_hits = tgt_hits = 0
    for toks, gold in zip(hyps, golds):
        src_hits += contains(toks, gold.sarcasm_source)
        tgt_hits += contains(toks, gold.sarcasm_target)
    return src_hits / len(hyps), tgt_hits / len(hyps)


def score_corpus(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> dict[str, float]:
    """Mean per-instance scores for the standard columns, as fractions, of
    tokenised hypotheses against tokenised references."""
    _check_pairs(hyps, refs, "references")
    n = len(hyps)
    counts = [_count(h, r, 4) for h, r in zip(hyps, refs)]
    out = {
        "R1": sum(_rouge_n(c, 1) for c in counts) / n,
        "R2": sum(_rouge_n(c, 2) for c in counts) / n,
        "RL": sum(_rouge_l(c) for c in counts) / n,
    }
    for k in (1, 2, 3, 4):
        out[f"B{k}"] = sum(_bleu(c, k) for c in counts) / n
    return out


# ---- report rendering ----------------------------------------------------

# column layout mirrors the standard generation-quality table; the two
# model-based columns are not computed here and render as dashes
METRIC_COLUMNS = ("R1", "R2", "RL", "B1", "B2", "B3", "B4", "M", "BS", "source_acc", "target_acc")
_UNCOMPUTED = ("M", "BS")


@dataclass
class MetricReport:
    """Rows of per-variant scores, renderable as aligned text or CSV.

    Row values are fractions; rendering multiplies by 100. Missing keys
    and the model-based columns render as a dash.
    """

    rows: list[dict] = field(default_factory=list)

    def add_row(self, label: str, values: dict) -> None:
        row = {"label": label}
        row.update(values)
        self.rows.append(row)

    def _cell(self, row: dict, col: str) -> str:
        if col in _UNCOMPUTED or col not in row or row[col] is None:
            return "-"
        v = row[col]
        if isinstance(v, str):
            return v
        return f"{100.0 * v:.2f}"

    def to_csv(self) -> str:
        header = "label," + ",".join(METRIC_COLUMNS)
        lines = [header]
        for row in self.rows:
            lines.append(",".join([str(row["label"])] + [self._cell(row, c) for c in METRIC_COLUMNS]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cols = ("label",) + METRIC_COLUMNS
        table = [list(cols)]
        for row in self.rows:
            table.append([str(row["label"])] + [self._cell(row, c) for c in METRIC_COLUMNS])
        widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
        out = []
        for r in table:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(out) + "\n"
