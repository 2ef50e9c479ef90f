"""Shared tokenizer and closed vocabulary.

One tokenizer is used everywhere (model inputs, metric scoring, annotation
similarity) so that token-level comparisons across modules agree: lowercase,
split on whitespace and punctuation, punctuation dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ContractError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation acts as a separator and is dropped."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Closed token vocabulary with fixed special ids 0..3.

    Built from training text only; unseen tokens map to the unknown id at
    encode time. Token order (and therefore every id) is deterministic:
    specials first, then sorted unique tokens.
    """

    tokens: list[str]
    index: dict[str, int] = field(repr=False)

    PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        seen: set[str] = set()
        for text in texts:
            seen.update(tokenize(text))
        tokens = list(SPECIALS) + sorted(seen - set(SPECIALS))
        return cls(tokens=tokens, index={t: i for i, t in enumerate(tokens)})

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        """The vocabulary of a saved token list (a checkpoint's 'vocab'):
        token i gets id i, so every token must be distinct, and each one
        after the specials must be a token ``tokenize`` can produce, as in
        a vocabulary ``from_texts`` builds: decoded ids are read as tokens."""
        tokens = list(tokens)
        if tokens[:4] != list(SPECIALS):
            raise ContractError("vocabulary token list must start with the four specials")
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) < len(tokens):  # the index keeps a repeated token's last id only
            repeated = next(t for i, t in enumerate(tokens) if index[t] != i)
            raise ContractError(f"'vocab' repeats the token '{repeated}'")
        odd = next((t for t in tokens[4:] if tokenize(t) != [t]), None)
        if odd is not None:
            raise ContractError(f"'vocab' token {odd!r} is not one token of the tokenizer")
        return cls(tokens=tokens, index=index)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: Sequence[str]) -> list[int]:
        unk = self.UNK_ID
        return [self.index.get(w, unk) for w in words]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Ids back to tokens, with special ids skipped."""
        return [self.tokens[i] for i in ids if i >= len(SPECIALS)]
