"""Generation metrics: n-gram overlap F1, LCS F1, clipped-precision BLEU,
exact match, and token-membership accuracy for structured explanation
attributes.

All scorers share the package tokenizer, score a single reference per
hypothesis, and return fractions in [0, 1]; report tables convert to
percentages. Corpus scores are arithmetic means of per-instance scores.
``score_corpus`` is the one corpus scorer: it takes hypotheses already
tokenised and returns every score of a metric row.
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
    "score_corpus",
    "SCORES",
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


# each overlap score, with its score of one pair's counts
_OVERLAP = {"R1": lambda c: _rouge_n(c, 1), "R2": lambda c: _rouge_n(c, 2), "RL": _rouge_l,
            "B1": lambda c: _bleu(c, 1), "B2": lambda c: _bleu(c, 2),
            "B3": lambda c: _bleu(c, 3), "B4": lambda c: _bleu(c, 4)}
# each attribute accuracy, with the gold attribute it reads
_ATTRIBUTES = {"action_acc": "action_word", "source_acc": "sarcasm_source",
               "target_acc": "sarcasm_target"}
# every score of a metric row, in the order ``score_corpus`` returns them
SCORES = (*_OVERLAP, *_ATTRIBUTES, "exact_match")


def score_corpus(hyps: Sequence[Sequence[str]], golds: Sequence) -> dict[str, float]:
    """The ``SCORES`` of a metric row, as fractions, of token lists against
    gold instances (``explanation`` and the ``_ATTRIBUTES``, as a
    ``DialogueInstance`` has them). The overlap scores and exact match
    compare a hypothesis with the tokenised explanation; an attribute hits
    when the hypothesis holds every token of it, and one with no token never
    hits. A string hypothesis is refused: it would count characters."""
    if len(hyps) != len(golds):
        raise ContractError(f"got {len(hyps)} hypotheses for {len(golds)} golds")
    if not hyps:
        raise ContractError("nothing to score")
    if any(isinstance(h, str) for h in hyps):
        raise ContractError("hypotheses must be token lists (text.tokenize), not strings")
    refs = [tokenize(g.explanation) for g in golds]
    counts = [_count(h, r, 4) for h, r in zip(hyps, refs)]
    overlap = [sum(map(score, counts)) for score in _OVERLAP.values()]
    wants = [[tokenize(getattr(g, attr)) for g in golds] for attr in _ATTRIBUTES.values()]
    attributes = [sum(bool(w) and all(t in h for t in w) for h, w in zip(hyps, ws)) for ws in wants]
    exact = sum(h == r for h, r in zip(hyps, refs))
    return {name: total / len(hyps) for name, total in zip(SCORES, (*overlap, *attributes, exact))}


# ---- report rendering ----------------------------------------------------

# column layout mirrors the standard generation-quality table, then the
# scores ``score_corpus`` adds; no scorer here computes the two model-based
# columns, M and BS, so they render as dashes
METRIC_COLUMNS = (*_OVERLAP, "M", "BS", *SCORES[len(_OVERLAP):])


@dataclass
class MetricReport:
    """Rows of per-variant scores, renderable as aligned text or CSV.

    Row values are fractions; rendering multiplies by 100. A string value
    renders as it is, and a missing key as a dash.
    """

    rows: list[dict] = field(default_factory=list)

    def add_row(self, label: str, values: dict) -> None:
        row = {"label": label}
        row.update(values)
        self.rows.append(row)

    def _cell(self, row: dict, col: str) -> str:
        v = row.get(col, "-")
        return v if isinstance(v, str) else f"{100.0 * v:.2f}"

    def _table(self) -> list[list[str]]:
        """The header, then each row's label and cells."""
        return [["label", *METRIC_COLUMNS]] + [
            [str(row["label"])] + [self._cell(row, c) for c in METRIC_COLUMNS] for row in self.rows]

    def to_csv(self) -> str:
        return "".join(",".join(r) + "\n" for r in self._table())

    def to_text(self) -> str:
        table = self._table()
        widths = [max(map(len, col)) for col in zip(*table)]
        return "".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
                       for r in table)
