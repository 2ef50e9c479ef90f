"""Dialogue corpus model: records, file format, splits, annotation merging.

A corpus is a list of dialogue instances, each pairing a multi-speaker
dialogue with aligned audio/video feature matrices and a gold sarcasm
explanation plus its structured attributes (source speaker, target,
action word, optional description).

File format: one JSON record per line whose keys are exactly the fields
of ``DialogueInstance`` (``description`` is nullable). Utterances are
``{speaker, text}`` objects; the ``str`` fields and utterance speakers and
texts are JSON strings.
A feature field holds the matrix inline, a list of rows of JSON numbers.
The loader converts no types: anything else is a ParseError naming the
field and the line.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .text import tokenize

__all__ = [
    "Utterance",
    "DialogueInstance",
    "DatasetSplit",
    "MergeOutcome",
    "load_and_validate",
    "read_json_object",
    "save_corpus",
    "atomic_write",
    "validate_instance",
    "split",
    "instances_for",
    "merge_annotations",
    "cosine_token_similarity",
]

@dataclass
class Utterance:
    speaker: str
    text: str


@dataclass
class DialogueInstance:
    """One dialogue with aligned modality features and explanation labels."""

    id: str
    utterances: list[Utterance]
    audio_features: np.ndarray
    video_features: np.ndarray
    explanation: str
    sarcasm_source: str
    sarcasm_target: str
    action_word: str
    description: str | None = None

    def speakers(self) -> list[str]:
        return [u.speaker for u in self.utterances]


# a corpus line's keys, in declaration order, then those holding strings and matrices
_FIELDS = tuple(f.name for f in fields(DialogueInstance))
_STRING_FIELDS = tuple(name for name, hint in get_type_hints(DialogueInstance).items() if hint is str)
_MATRIX_FIELDS = tuple(name for name, hint in get_type_hints(DialogueInstance).items()
                       if hint is np.ndarray)


# ---- validation ------------------------------------------------------------


def _require(cond: bool, field_name: str, rule: str, detail: str, line: int | None) -> None:
    if not cond:
        raise ValidationError(detail, field=field_name, rule=rule, line=line)


def validate_instance(inst: DialogueInstance, line: int | None = None) -> None:
    """Raise ValidationError naming the field and rule on the first breach."""
    _require(bool(inst.id), "id", "non-empty", "instance id is empty", line)
    _require(len(inst.utterances) >= 2, "utterances", "at-least-two",
             f"got {len(inst.utterances)} utterance(s)", line)
    for i, u in enumerate(inst.utterances):
        _require(bool(u.speaker), "utterances", "speaker-non-empty",
                 f"utterance {i} has an empty speaker", line)
        _require(bool(u.text.strip()), "utterances", "text-non-empty",
                 f"utterance {i} has empty text", line)
    _require(inst.sarcasm_source in inst.speakers(), "sarcasm_source", "source-is-a-speaker",
             f"'{inst.sarcasm_source}' does not appear among utterance speakers", line)
    _require(bool(inst.explanation.strip()), "explanation", "non-empty", "explanation is empty", line)
    _require(bool(inst.sarcasm_target), "sarcasm_target", "non-empty", "target is empty", line)
    _require(bool(inst.action_word), "action_word", "non-empty", "action word is empty", line)
    for name, mat in (("audio_features", inst.audio_features), ("video_features", inst.video_features)):
        _require(mat.ndim == 2, name, "matrix", f"expected a 2-D matrix, got ndim={mat.ndim}", line)
        _require(mat.shape[0] >= 1 and mat.shape[1] >= 1, name, "non-empty",
                 f"got shape {mat.shape}; a silent modality must be one all-zero frame", line)
        _require(bool(np.isfinite(mat).all()), name, "finite",
                 "matrix contains NaN or infinite values", line)


# ---- file i/o: JSON documents, corpus files --------------------------------------


def read_json_object(raw: bytes, what: str, error: Callable[[str], Exception]) -> dict:
    """The JSON object that ``raw`` holds. Bytes that are not UTF-8, bad
    JSON, nesting too deep for the parser and any value but an object
    raise ``error(message)``, the message naming ``what``."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise error(f"{what} is not UTF-8 text") from None
    except ValueError as exc:  # bad JSON, or an integer of more digits than Python converts
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested thousands deep
        raise error(f"{what} is JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise error(f"{what} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _json_text(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _string_field(value, field_name: str, line: int) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{field_name} must be a string, got {_json_text(value)}", line)
    return value


def _matrix_from_field(value, field_name: str, line: int) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{field_name} must be a matrix, got {_json_text(value)}", line)
    if not all(isinstance(row, list) for row in value):
        raise ParseError(f"{field_name} must be a list of equal-length rows", line)
    # every cell a JSON number: NumPy would read true as 1.0 and "2" as 2.0
    if not set(map(type, chain.from_iterable(value))) <= {int, float}:
        bad = next(x for x in chain.from_iterable(value) if type(x) not in (int, float))
        raise ParseError(f"{field_name} cells must be numbers, got {_json_text(bad)}", line)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, or an integer beyond float range
        raise ParseError(f"{field_name} is not a numeric matrix: {exc}", line) from None
    if arr.ndim != 2:
        raise ParseError(f"{field_name} must be a list of equal-length rows", line)
    return arr


def _instance_from_record(rec: dict, line: int) -> DialogueInstance:
    missing = [f for f in _FIELDS if f not in rec]
    if missing:
        raise ParseError(f"missing field(s) {missing}", line)
    unknown = [k for k in rec if k not in _FIELDS]
    if unknown:
        raise ParseError(f"unknown field(s) {unknown}", line)
    utts_raw = rec["utterances"]
    if not isinstance(utts_raw, list):
        raise ParseError("utterances must be a list of {speaker, text} objects", line)
    utterances = []
    for i, u in enumerate(utts_raw):
        if not isinstance(u, dict) or set(u) != {"speaker", "text"}:
            raise ParseError(f"utterance {i} must be an object with exactly speaker and text", line)
        utterances.append(Utterance(
            speaker=_string_field(u["speaker"], f"utterance {i} speaker", line),
            text=_string_field(u["text"], f"utterance {i} text", line),
        ))
    desc = rec["description"]
    if desc is not None and not isinstance(desc, str):
        raise ParseError("description must be a string or null", line)
    strings = {name: _string_field(rec[name], name, line) for name in _STRING_FIELDS}
    matrices = {name: _matrix_from_field(rec[name], name, line) for name in _MATRIX_FIELDS}
    return DialogueInstance(utterances=utterances, description=desc, **strings, **matrices)


def load_and_validate(path: str | Path) -> list[DialogueInstance]:
    """Parse a corpus file and validate every record.

    Parse failures raise ParseError and invariant breaches ValidationError,
    both carrying the 1-based line number. Duplicate ids are rejected.
    """
    instances: list[DialogueInstance] = []
    seen_ids: set[str] = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            rec = read_json_object(raw, "record", lambda message: ParseError(message, line_no))
            inst = _instance_from_record(rec, line_no)
            validate_instance(inst, line=line_no)
            if inst.id in seen_ids:
                raise ValidationError(f"id '{inst.id}' appears more than once",
                                      field="id", rule="unique", line=line_no)
            seen_ids.add(inst.id)
            instances.append(inst)
    return instances


def _json_value(value):
    """A matrix as its list of rows, an utterance as its ``{speaker, text}`` object."""
    return value.tolist() if isinstance(value, np.ndarray) else vars(value)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator:
    """A file to write ``path``'s new bytes into, in place of ``path`` itself:
    a temporary sibling named ``.<name>.<pid>.tmp``, which replaces ``path``
    (``os.replace``, atomic within a file system) once the block ends. A
    block that raises, ``KeyboardInterrupt`` included, removes the temporary
    and leaves ``path`` as it was. The leading ``.`` keeps the temporary out
    of the output globs."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_corpus(instances: Iterable[DialogueInstance], path: str | Path) -> None:
    """Write instances one JSON record per line, feature matrices inline."""
    with atomic_write(path) as fh:
        for inst in instances:
            rec = {name: getattr(inst, name) for name in _FIELDS}
            fh.write(json.dumps(rec, sort_keys=True, default=_json_value) + "\n")


# ---- splitting ----------------------------------------------------------------


@dataclass
class DatasetSplit:
    """Disjoint id lists covering the corpus, in 80:10:10 proportion."""

    train: list[str]
    validation: list[str]
    test: list[str]


def split(corpus: Sequence[DialogueInstance], seed: int) -> DatasetSplit:
    """Seeded shuffle, then floor(0.8 N) / floor(0.1 N) / remainder by id."""
    n = len(corpus)
    if n < 10:
        raise ContractError(f"need at least 10 instances to split, got {n}")
    ids = [inst.id for inst in corpus]
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in order]
    n_train = (8 * n) // 10
    n_val = n // 10
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def instances_for(corpus: Sequence[DialogueInstance], ids: Sequence[str]) -> list[DialogueInstance]:
    by_id = {inst.id: inst for inst in corpus}
    return [by_id[i] for i in ids]


# ---- annotation merging ---------------------------------------------------------


@dataclass
class MergeOutcome:
    """Result of reconciling two candidate explanations.

    Exactly one of ``chosen`` / ``conflict`` is set: above the similarity
    threshold the shorter annotation wins; otherwise both are surfaced for
    external resolution.
    """

    similarity: float
    chosen: str | None = None
    conflict: tuple[str, str] | None = None


def cosine_token_similarity(a: str, b: str) -> float:
    """Cosine between token-count vectors under the shared tokenizer."""
    ca, cb = Counter(tokenize(a)), Counter(tokenize(b))
    if not ca or not cb:
        return 0.0
    dot = sum(ca[t] * cb[t] for t in ca.keys() & cb.keys())
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


def merge_annotations(a: str, b: str) -> MergeOutcome:
    """Merge two explanation annotations of the same instance.

    Similarity strictly above 0.9 selects the annotation with
    fewer tokens (ties: fewer characters, then the first argument);
    anything at or below the threshold is reported as a conflict.
    """
    if not a.strip() or not b.strip():
        raise ContractError("merge_annotations requires two non-empty annotations")
    sim = cosine_token_similarity(a, b)
    if sim > 0.9:
        ta, tb = len(tokenize(a)), len(tokenize(b))
        if ta != tb:
            chosen = a if ta < tb else b
        elif len(a) != len(b):
            chosen = a if len(a) < len(b) else b
        else:
            chosen = a
        return MergeOutcome(similarity=sim, chosen=chosen)
    return MergeOutcome(similarity=sim, conflict=(a, b))

