"""Dataset layer: file parsing and validation diagnostics, deterministic
splits, annotation merging, the texts a vocabulary holds."""

import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maf import experiments
from maf.data import (
    DialogueInstance,
    Utterance,
    atomic_write,
    cosine_token_similarity,
    instances_for,
    load_and_validate,
    merge_annotations,
    save_corpus,
    split,
    validate_instance,
)
from maf.errors import ContractError, ParseError, ValidationError
from maf.experiments import main as cli_main
from maf.model import build_vocabulary
from maf.text import SPECIALS


def make_instance(k=0, n_utts=2, **overrides):
    fields = dict(
        id=f"dlg-{k:04d}",
        utterances=[Utterance(speaker=f"spk{j % 3}", text=f"utterance number {j}")
                    for j in range(n_utts)],
        audio_features=np.full((3, 4), 0.25 * (k + 1)),
        video_features=np.full((2, 5), -0.5),
        explanation=f"spk0 mocks thing{k}",
        sarcasm_source="spk0",
        sarcasm_target=f"thing{k}",
        action_word="mocks",
        description=None,
    )
    fields.update(overrides)
    return DialogueInstance(**fields)


def record_dict(inst):
    return {
        "id": inst.id,
        "utterances": [{"speaker": u.speaker, "text": u.text} for u in inst.utterances],
        "audio_features": inst.audio_features.tolist(),
        "video_features": inst.video_features.tolist(),
        "explanation": inst.explanation,
        "sarcasm_source": inst.sarcasm_source,
        "sarcasm_target": inst.sarcasm_target,
        "action_word": inst.action_word,
        "description": inst.description,
    }


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# ---- loading and round trip ---------------------------------------------------


def test_empty_file_loads_to_empty_corpus(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_and_validate(p) == []


def test_golden_three_record_round_trip(tmp_path):
    originals = [make_instance(k, n_utts=2 + k) for k in range(3)]
    p = tmp_path / "golden.jsonl"
    save_corpus(originals, p)
    # one key per field of the record, and no other
    assert [list(json.loads(line)) for line in p.read_text(encoding="utf-8").splitlines()] \
        == 3 * [sorted(f.name for f in fields(DialogueInstance))]
    loaded = load_and_validate(p)
    assert len(loaded) == 3
    # serialize again: byte-identical files means identical structure
    p2 = tmp_path / "again.jsonl"
    save_corpus(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()
    for a, b in zip(originals, loaded):
        assert a.id == b.id
        assert a.utterances == b.utterances
        assert np.array_equal(a.audio_features, b.audio_features)
        assert np.array_equal(a.video_features, b.video_features)
        assert (a.explanation, a.sarcasm_source, a.sarcasm_target, a.action_word,
                a.description) == (b.explanation, b.sarcasm_source, b.sarcasm_target,
                                   b.action_word, b.description)


def test_inline_matrix_round_trip_is_bit_exact(tmp_path):
    """Every float64 survives save and load byte for byte: random values,
    the extremes of the range, a subnormal and a negative zero."""
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(7, 5))
    video = np.array([[1.7976931348623157e308, -5e-324, -0.0, 0.1, 1 / 3]])
    p = tmp_path / "c.jsonl"
    save_corpus([make_instance(audio_features=audio, video_features=video)], p)
    loaded = load_and_validate(p)[0]
    assert loaded.audio_features.tobytes() == audio.tobytes()
    assert loaded.video_features.tobytes() == video.tobytes()


def test_an_atomic_write_that_raises_creates_nothing(tmp_path):
    """A block that raises before its end leaves no file at the path and no
    temporary beside it; one that ends puts the bytes at the path alone."""
    p = tmp_path / "c.jsonl"
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(p) as fh:
            fh.write("half a record")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []
    with atomic_write(p, binary=True) as fh:
        fh.write(b"a whole record\n")
    assert list(tmp_path.iterdir()) == [p]
    assert p.read_bytes() == b"a whole record\n"


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "gaps.jsonl"
    rec = json.dumps(record_dict(make_instance()))
    p.write_text("\n" + rec + "\n\n")
    assert len(load_and_validate(p)) == 1


# ---- parse errors with line numbers ---------------------------------------------


def test_invalid_json_names_the_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    rec = json.dumps(record_dict(make_instance()))
    p.write_text(rec + "\n{not json\n")
    with pytest.raises(ParseError) as err:
        load_and_validate(p)
    assert err.value.line == 2
    deep = tmp_path / "deep.jsonl"
    deep.write_text(rec + "\n" + "[" * 100_000 + "\n")
    with pytest.raises(ParseError, match="nested too deeply") as err:
        load_and_validate(deep)
    assert err.value.line == 2


def test_missing_field_is_a_parse_error(tmp_path):
    rec = record_dict(make_instance())
    del rec["action_word"]
    write_records(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ParseError, match="action_word"):
        load_and_validate(tmp_path / "c.jsonl")


def test_unknown_field_is_rejected(tmp_path):
    rec = record_dict(make_instance())
    rec["extra"] = 1
    write_records(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ParseError, match="extra"):
        load_and_validate(tmp_path / "c.jsonl")


def test_non_object_record_rejected(tmp_path):
    (tmp_path / "c.jsonl").write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="record must hold a JSON object, got list"):
        load_and_validate(tmp_path / "c.jsonl")


def test_malformed_utterance_rejected(tmp_path):
    rec = record_dict(make_instance())
    rec["utterances"] = [{"speaker": "a"}, {"speaker": "b", "text": "hi"}]
    write_records(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ParseError, match="utterance 0"):
        load_and_validate(tmp_path / "c.jsonl")


def test_ragged_matrix_rejected(tmp_path):
    rec = record_dict(make_instance())
    rec["audio_features"] = [[1.0, 2.0], [3.0]]
    write_records(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ParseError, match="audio_features"):
        load_and_validate(tmp_path / "c.jsonl")


def test_non_string_description_rejected(tmp_path):
    rec = record_dict(make_instance())
    rec["description"] = 7
    write_records(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ParseError, match="description"):
        load_and_validate(tmp_path / "c.jsonl")


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda r: r.update(id=7), "id"),
        (lambda r: r["utterances"][1].update(speaker={"x": 1}), "utterance 1 speaker"),
        (lambda r: r["utterances"][0].update(text=["hi"]), "utterance 0 text"),
        (lambda r: r.update(explanation=None), "explanation"),
        (lambda r: r.update(sarcasm_source=True), "sarcasm_source"),
        (lambda r: r.update(sarcasm_target=5), "sarcasm_target"),
        (lambda r: r.update(action_word=1.5), "action_word"),
        (lambda r: r.update(audio_features=[[True, False]]), "audio_features"),
        (lambda r: r.update(video_features=[["1", 2.0]]), "video_features"),
        (lambda r: r.update(video_features=[[1.0], 2.0]), "video_features"),
        (lambda r: r.update(audio_features=[[10 ** 400]]), "audio_features"),
        (lambda r: r.update(audio_features={"rows": 1}), "audio_features"),
        (lambda r: r.update(audio_features="a0.bin"), "audio_features"),
        (lambda r: r.update(audio_features=[1.0, 2.0]), "audio_features"),
        (lambda r: r.update(video_features=[[[1.0]]]), "video_features"),
    ],
    ids=["id-int", "speaker-object", "text-list", "explanation-null", "sarcasm_source-bool",
         "sarcasm_target-int", "action_word-float", "audio-bool-cells", "video-str-cell",
         "video-ragged", "audio-huge-int", "audio-object", "audio-file-name", "audio-1-d",
         "video-3-d"],
)
def test_mistyped_field_is_a_parse_error(tmp_path, capsys, monkeypatch, mutate, field):
    """Nothing is coerced: a null explanation does not become "None", nor
    a true feature cell 1.0. The error names the field and the line, and
    ``maf train`` exits 3 before training or making its output directory."""
    good, bad = record_dict(make_instance(0)), record_dict(make_instance(1))
    mutate(bad)
    write_records(tmp_path / "c.jsonl", [good, bad])
    with pytest.raises(ParseError, match=field) as err:
        load_and_validate(tmp_path / "c.jsonl")
    assert err.value.line == 2
    monkeypatch.setattr(experiments, "train", lambda *a, **k: pytest.fail("train was called"))
    out = tmp_path / "run"
    assert cli_main(["train", "--dataset", str(tmp_path / "c.jsonl"), "--seed", "1",
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("audio_features", "a.bin"),
    ("audio_features", "../a.bin"),
    ("audio_features", "absolute"),
    ("video_features", "nowhere.bin"),
    ("video_features", ""),
    ("video_features", "."),
    ("video_features", "sub"),
    ("video_features", "a\x00.bin"),
    pytest.param("video_features", "x" * 300, id="video_features-name-too-long"),
])
def test_file_name_in_a_feature_field_is_refused_unread(tmp_path, field, value):
    """A string is never taken as a path: a file of that name beside the
    corpus, outside it, missing, a directory or a name the file system
    refuses all give the same 'must be a matrix' ParseError with the line,
    never an OSError."""
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "sub").mkdir(parents=True)
    (corpus_dir / "a.bin").write_bytes(b"\0" * 64)
    (tmp_path / "a.bin").write_bytes(b"\0" * 64)
    rec = record_dict(make_instance())
    rec[field] = str(tmp_path / "a.bin") if value == "absolute" else value
    write_records(corpus_dir / "c.jsonl", [rec])
    with pytest.raises(ParseError, match=f"{field} must be a matrix, got ") as err:
        load_and_validate(corpus_dir / "c.jsonl")
    assert err.value.line == 1


def test_line_cut_inside_a_matrix_is_a_parse_error(tmp_path):
    line = json.dumps(record_dict(make_instance()))
    cut = line.index('"video_features"') + len('"video_features": [[')
    (tmp_path / "c.jsonl").write_text(line + "\n" + line[:cut] + "\n")
    with pytest.raises(ParseError, match="not valid JSON") as err:
        load_and_validate(tmp_path / "c.jsonl")
    assert err.value.line == 2


def test_line_that_is_not_utf8_is_a_parse_error(tmp_path):
    line = json.dumps(record_dict(make_instance(explanation="spk0 mocks caf\u00e9")), ensure_ascii=False)
    raw = line.encode("utf-8")
    cut = raw.index("é".encode("utf-8")) + 1  # inside the two-byte character
    (tmp_path / "c.jsonl").write_bytes(raw + b"\n" + raw[:cut] + b"\n")
    with pytest.raises(ParseError, match="UTF-8") as err:
        load_and_validate(tmp_path / "c.jsonl")
    assert err.value.line == 2


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A corpus directory and a counter that names each mutant file:
    writing a fresh file is much cheaper than overwriting one on some file
    systems."""
    return tmp_path_factory.mktemp("fuzz"), itertools.count()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_SIDECARS = st.sampled_from(["a.bin", "../a.bin", "sub/../../a.bin", "", ".", "sub", "a.bin/",
                             "a\x00.bin", "x" * 300, "missing.bin", "sub/a.bin"]) | st.text(max_size=8)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(action=st.sampled_from(["drop", "add", "retype", "truncate", "sidecar"]), data=st.data())
def test_mutated_corpus_line_raises_only_parse_or_validation_errors(fuzz_dir, action, data):
    """Drop, add or retype a key of a record, of an utterance or a feature
    cell, cut the line short at any byte, or give a feature field a string
    such as a file path: loading either succeeds or raises ParseError or
    ValidationError, never anything else."""
    d, names = fuzz_dir
    rec = record_dict(make_instance(explanation="spk0 mocks caf\u00e9"))
    where = data.draw(st.sampled_from(["record", "utterance", "cell"]))
    target = {"record": rec, "utterance": rec["utterances"][0],
              "cell": rec["video_features"][0]}[where]
    keys = list(range(len(target))) if where == "cell" else sorted(target)
    if action == "drop" and where != "cell":
        del target[data.draw(st.sampled_from(keys))]
    elif action == "add" and where != "cell":
        target[data.draw(st.text(max_size=4).filter(lambda k: k not in target))] = \
            data.draw(_JSON_VALUES)
    elif action in ("retype", "drop", "add"):
        target[data.draw(st.sampled_from(keys))] = data.draw(_JSON_VALUES)
    elif action == "sidecar":
        rec[data.draw(st.sampled_from(["audio_features", "video_features"]))] = data.draw(_SIDECARS)
    raw = json.dumps(rec, ensure_ascii=False).encode("utf-8")
    if action == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    path = d / f"m{next(names)}.jsonl"
    path.write_bytes(raw + b"\n")
    try:
        load_and_validate(path)
    except (ParseError, ValidationError):
        pass


# ---- validation errors: field, rule, line -----------------------------------------


@pytest.mark.parametrize(
    "overrides,field,rule",
    [
        (dict(id=""), "id", "non-empty"),
        (dict(utterances=[Utterance("a", "hi")]), "utterances", "at-least-two"),
        (dict(utterances=[Utterance("", "hi"), Utterance("b", "yo")]),
         "utterances", "speaker-non-empty"),
        (dict(utterances=[Utterance("a", "  "), Utterance("b", "yo")]),
         "utterances", "text-non-empty"),
        (dict(sarcasm_source="ghost"), "sarcasm_source", "source-is-a-speaker"),
        (dict(explanation=" "), "explanation", "non-empty"),
        (dict(sarcasm_target=""), "sarcasm_target", "non-empty"),
        (dict(action_word=""), "action_word", "non-empty"),
        (dict(audio_features=np.zeros((0, 4))), "audio_features", "non-empty"),
        (dict(video_features=np.array([[np.nan, 1.0]])), "video_features", "finite"),
        (dict(audio_features=np.zeros(4)), "audio_features", "matrix"),
    ],
)
def test_validate_instance_names_field_and_rule(overrides, field, rule):
    with pytest.raises(ValidationError) as err:
        validate_instance(make_instance(**overrides), line=17)
    assert err.value.field == field
    assert err.value.rule == rule
    assert err.value.line == 17


def test_single_utterance_record_cites_the_rule_with_line(tmp_path):
    good = record_dict(make_instance(0))
    bad = record_dict(make_instance(1))
    bad["utterances"] = bad["utterances"][:1]
    write_records(tmp_path / "c.jsonl", [good, bad])
    with pytest.raises(ValidationError) as err:
        load_and_validate(tmp_path / "c.jsonl")
    assert err.value.rule == "at-least-two"
    assert err.value.line == 2


def test_duplicate_ids_rejected(tmp_path):
    rec = record_dict(make_instance())
    write_records(tmp_path / "c.jsonl", [rec, rec])
    with pytest.raises(ValidationError) as err:
        load_and_validate(tmp_path / "c.jsonl")
    assert err.value.rule == "unique"
    assert err.value.line == 2


# ---- splits -------------------------------------------------------------------------


def test_split_2240_gives_documented_sizes():
    corpus = [make_instance(k) for k in range(2240)]
    s = split(corpus, seed=1)
    assert (len(s.train), len(s.validation), len(s.test)) == (1792, 224, 224)


def test_split_smallest_corpus():
    corpus = [make_instance(k) for k in range(10)]
    s = split(corpus, seed=3)
    assert (len(s.train), len(s.validation), len(s.test)) == (8, 1, 1)


def test_split_determinism_and_seed_sensitivity():
    corpus = [make_instance(k) for k in range(50)]
    a = split(corpus, seed=5)
    b = split(corpus, seed=5)
    c = split(corpus, seed=6)
    assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)
    assert a.train != c.train
    assert (len(c.train), len(c.validation), len(c.test)) == (40, 5, 5)


def test_split_rejects_undersized_corpus():
    with pytest.raises(ContractError):
        split([make_instance(k) for k in range(9)], seed=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 400), st.integers(0, 2**32 - 1))
def test_split_is_a_partition(n, seed):
    corpus = [make_instance(k) for k in range(n)]
    s = split(corpus, seed)
    combined = s.train + s.validation + s.test
    assert len(combined) == n
    assert set(combined) == {inst.id for inst in corpus}
    assert len(s.train) == (8 * n) // 10
    assert len(s.validation) == n // 10


def test_instances_for_preserves_order():
    corpus = [make_instance(k) for k in range(5)]
    got = instances_for(corpus, ["dlg-0003", "dlg-0001"])
    assert [i.id for i in got] == ["dlg-0003", "dlg-0001"]


# ---- annotation merging ----------------------------------------------------------------


def test_merge_identical_strings_chooses_them():
    out = merge_annotations("maya mocks the food", "maya mocks the food")
    assert out.similarity == pytest.approx(1.0)
    assert out.chosen == "maya mocks the food"
    assert out.conflict is None


def test_merge_disjoint_strings_conflict():
    out = merge_annotations("alpha beta", "gamma delta")
    assert out.similarity == 0.0
    assert out.chosen is None
    assert out.conflict == ("alpha beta", "gamma delta")


def test_merge_documented_pair_lands_in_conflict_branch():
    a = "maya taunts monisha for cooking"
    b = "maya taunts monisha for her cooking skills"
    # hand cosine: 5 shared tokens, norms sqrt(5) and sqrt(7)
    expected = 5.0 / math.sqrt(35.0)
    out = merge_annotations(a, b)
    assert out.similarity == pytest.approx(expected, abs=1e-12)
    assert out.conflict == (a, b)


def test_merge_above_threshold_picks_fewer_tokens():
    a = "maya taunts monisha for her cooking skills today"
    b = "maya taunts monisha for her cooking skills"
    out = merge_annotations(a, b)
    assert out.similarity > 0.9
    assert out.chosen == b


def test_merge_token_tie_breaks_on_characters_then_first():
    # same tokens either way; the punctuated variant is longer in characters
    out = merge_annotations("it is a cat!", "it is a cat")
    assert out.similarity == pytest.approx(1.0)
    assert out.chosen == "it is a cat"
    out = merge_annotations("it is a cat", "it is a cat!")
    assert out.chosen == "it is a cat"
    # full tie on tokens and characters: first argument wins
    same = merge_annotations("same length", "length same")
    assert same.chosen == "same length"


def test_merge_rejects_empty_annotation():
    with pytest.raises(ContractError):
        merge_annotations("", "x")
    with pytest.raises(ContractError):
        merge_annotations("x", "   ")


@settings(max_examples=50, deadline=None)
@given(st.text("abcd ", min_size=1, max_size=30), st.text("abcd ", min_size=1, max_size=30))
def test_merge_similarity_is_symmetric(a, b):
    if not a.strip() or not b.strip():
        return
    assert cosine_token_similarity(a, b) == pytest.approx(
        cosine_token_similarity(b, a), abs=1e-15
    )


def test_cosine_counts_repeated_tokens():
    # "a a b" -> (2,1); "a b b" -> (1,2); cos = (2+2)/ (sqrt5*sqrt5) = 0.8
    assert cosine_token_similarity("a a b", "a b b") == pytest.approx(0.8)
    assert cosine_token_similarity("Hello!", "hello") == pytest.approx(1.0)


# ---- vocabulary ----------------------------------------------------------------------------


def test_vocabulary_tokenises_speakers_like_every_text():
    """A model's vocabulary holds the tokens of each speaker and utterance
    and of the explanation: "Dr. Rosesh" is two words."""
    inst = make_instance(utterances=[Utterance("Dr. Rosesh", "hi"), Utterance("bo", "yo")])
    # dr rosesh bo hi yo, then spk0 mocks thing0 from the explanation
    assert len(build_vocabulary([inst])) == 8 + len(SPECIALS)


def test_vocabulary_matches_brute_force_token_set():
    """The vocabulary is the specials, then the sorted tokens of every
    speaker, utterance and explanation; no other field adds a token."""
    corpus = [make_instance(k, n_utts=2 + (k % 4), description=f"zebra{k}",
                            sarcasm_target=f"quokka{k}", action_word="yawns")
              for k in range(50)]
    words = set()
    for inst in corpus:
        for u in inst.utterances:
            words.update(u.speaker.lower().split() + u.text.lower().split())
        words.update(inst.explanation.lower().split())
    vocab = build_vocabulary(corpus)
    assert vocab.tokens == list(SPECIALS) + sorted(words)
    assert not {t for t in vocab.tokens if t.startswith(("zebra", "quokka", "yawns"))}

