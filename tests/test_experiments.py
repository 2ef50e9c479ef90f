"""Experiment runner and CLI tests.

Every run here is a real (tiny) training job, so the suite doubles as an
end-to-end check: config file in, checkpoints, metric rows, and reports
out, byte-identical on repetition.
"""

import argparse
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import asdict, fields, replace
from operator import delitem
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maf
from maf import experiments
from maf.data import load_and_validate, save_corpus, split
from maf.errors import ConfigError, ParseError
from maf.experiments import (
    ExperimentConfig,
    MetricRow,
    _identity,
    _parser,
    cmd_ablate,
    cmd_evaluate,
    cmd_gen_synthetic,
    cmd_report,
    cmd_sweep_fusion_layer,
    cmd_train,
    load_experiment_config,
    main,
)
from maf.metrics import SCORES
from maf.model import ModelConfig, TrainConfig, _check_fields, load_checkpoint
from maf.presets import GAP_MODEL, GAP_SPEC, GAP_TRAIN, TEST_SEED_SALT
from maf.synthetic import SyntheticSpec, generate


def config_dict(default_out, **overrides):
    base = {
        "model": {
            "d": 8,
            "encoder_layers": 2,
            "decoder_layers": 1,
            "ffn": 16,
            "heads": 2,
            "d_c_audio": 4,
            "d_c_video": 4,
            "max_text_len": 24,
            "max_target_len": 8,
        },
        "train": {"lr": 1e-3, "epochs": 1, "batch_size": 8},
        "synthetic": {
            "num_instances": 16,
            "speakers": 3,
            "actions": 3,
            "targets": 3,
            "frames": 4,
            "windows": 3,
            "noise": 0.1,
        },
        "test_instances": 6,
        "variants": ["MAF"],
        "seeds": [1],
        "out": str(default_out),
    }
    base.update(overrides)
    return base


def write_config(tmp_path, name="exp.json", **overrides):
    path = tmp_path / name
    payload = config_dict(tmp_path / "run", **overrides)
    if payload.get("out") is None:
        payload.pop("out", None)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load(tmp_path, **overrides):
    return load_experiment_config(str(write_config(tmp_path, **overrides)))


DROP = object()


def metric_row(**changes):
    """A complete metric file's object, with ``changes`` applied; a change
    to ``DROP`` deletes the key."""
    row = {"artifact_version": maf.__version__, "config_hash": "abc", "variant": "MAF",
           "seed": 1, "fusion_layer_index": 2, "action_acc": 0.75, "source_acc": 1.0,
           "target_acc": 0.5, "exact_match": 0.25, "R1": 0.5, "R2": 0.25, "RL": 0.5,
           "B1": 0.5, "B2": 0.4, "B3": 0.3, "B4": 0.2}
    row.update(changes)
    return {k: v for k, v in row.items() if v is not DROP}


# ---- config loading ------------------------------------------------------------


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_experiment_config("/nonexistent/exp.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(str(p))


def test_config_must_be_an_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_experiment_config(str(p))


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'extra_knob'"):
        load(tmp_path, extra_knob=1)


def test_unknown_model_field(tmp_path):
    with pytest.raises(ConfigError, match="config section 'model'"):
        load(tmp_path, model={"d": 8, "nonsense": True})


def test_section_must_be_object(tmp_path):
    with pytest.raises(ConfigError, match="section 'train' must be an object"):
        load(tmp_path, train=[1])


def test_missing_keys_take_their_defaults(tmp_path):
    """A partial section keeps the defaults of the keys it omits, and an
    empty synthetic section is the default spec, not an absent one."""
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"model": {"d": 8}, "synthetic": {}}), encoding="utf-8")
    cfg = load_experiment_config(str(p))
    assert cfg.model == ModelConfig(d=8)
    assert cfg.train == TrainConfig()
    assert cfg.synthetic == SyntheticSpec()
    cfg.validate()


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(section=st.sampled_from([None, "model", "train", "synthetic"]),
       action=st.sampled_from(["drop", "add", "swap"]), data=st.data())
def test_mutated_config_raises_only_config_errors(tmp_path_factory, section, action, data):
    """Drop a key, add one, or swap in a value of another JSON type, at the
    top level or in a section: loading and validating either passes or
    raises ConfigError (CLI exit 2), never anything else."""
    raw = config_dict("run")
    target = raw if section is None else raw[section]
    key = data.draw(st.sampled_from(sorted(target)))
    if action == "drop":
        del target[key]
    elif action == "add":
        target[data.draw(st.text(min_size=1, max_size=4))] = data.draw(_JSON_VALUES)
    else:
        old = target[key]
        target[key] = data.draw(_JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    path = tmp_path_factory.mktemp("fuzz") / "exp.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        load_experiment_config(str(path)).validate()
    except ConfigError:
        pass


def test_flag_overrides_narrow_the_grid(tmp_path):
    path = write_config(tmp_path, variants=["MAF", "TextOnly"], seeds=[1, 2, 3])
    args = argparse.Namespace(dataset=None, seed=2, variant="TextOnly", out="elsewhere")
    cfg = load_experiment_config(str(path), args)
    assert cfg.seeds == [2]
    assert cfg.variants == ["TextOnly"]
    assert cfg.out == "elsewhere"


def test_dataset_flag_replaces_synthetic(tmp_path):
    path = write_config(tmp_path)
    args = argparse.Namespace(dataset="corpus.jsonl", seed=None, variant=None, out=None)
    cfg = load_experiment_config(str(path), args)
    assert cfg.dataset == "corpus.jsonl"
    assert cfg.synthetic is None


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(variants=[]), "variants"),
        (dict(variants=["Fancy"]), "'variants' must be one of"),
        (dict(seeds=[]), "seeds"),
        (dict(seeds=[1, 1]), "duplicates"),
        (dict(test_instances=0), "test_instances"),
        (dict(dataset="x.jsonl"), "exactly one"),
        (dict(seeds=[2, -1]), "seeds"),
        # training binds it to the vocabulary, so a set value would misstate the run
        (dict(model={"vocab_size": 7}), "'vocab_size'"),
        (dict(variants=["TextOnly", "MAF", "TextOnly"]), "'variants' must be a non-empty list "
                                                          "without duplicates"),
        # the cap on an instance's frames and windows holds though no variant reads them
        (dict(variants=["TextOnly"], synthetic={"frames": 513}), "'frames' must be <= 512"),
        (dict(variants=["TextOnly"], synthetic={"windows": 513}), "'windows' must be <= 512"),
    ],
    ids=["variants-empty", "variants-unknown", "seeds-empty", "seeds-repeated", "test_instances-0",
         "dataset-and-synthetic", "seeds-negative", "vocab_size-set", "variants-repeated",
         "frames-past-cap", "windows-past-cap"],
)
def test_experiment_validation(tmp_path, overrides, fragment):
    """Loading checks each field's own rule (an unknown variant, a negative
    seed), validate the rest; either way the config is refused."""
    with pytest.raises(ConfigError, match=fragment):
        load(tmp_path, **overrides).validate()


def _fail_if_called(name):
    return lambda *args, **kwargs: pytest.fail(f"{name} was called")


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "sweep-fusion-layer"])
@pytest.mark.parametrize("section, key, value", [
    ("model", "vocab_size", 50), ("model", "audio_raw_dim", 7), ("model", "video_raw_dim", 5),
    ("model", "variant", "DPA"), ("model", "seed", 7), ("synthetic", "seed", 7),
])
def test_cli_a_key_the_run_sets_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, section, key, value):
    """The run takes ``model.vocab_size`` from the vocabulary,
    ``model.audio_raw_dim`` and ``video_raw_dim`` from the training data's
    feature widths, ``model.variant`` from each entry of ``variants``, and
    ``model.seed`` and ``synthetic.seed`` from each entry of ``seeds``. A
    config that sets one exits 2 naming it and its source, from a synthetic
    source or a ``--dataset``, before any data is generated or read, any
    model trained or loaded, or ``--out`` made."""
    for name in ("generate", "load_and_validate", "train", "load_checkpoint"):
        monkeypatch.setattr(experiments, name, _fail_if_called(name))
    raw = config_dict(tmp_path / "run")
    raw[section][key] = value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    argv = [command, "--config", str(path)]
    if command == "evaluate":
        argv += ["--checkpoint", str(tmp_path / "model.ckpt")]
    sources = [[], ["--dataset", str(tmp_path / "corpus.jsonl")]] if section == "model" else [[]]
    where_from = next(source for s, k, source in experiments._BOUND if (s, k) == (section, key))
    for source in sources:
        assert main(argv + source) == 2
        assert (f"config error: '{key}' in config section '{section}' must be left out: the run "
                f"sets it from {where_from}, got {value!r}") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# a valid value other than the tiny config's, where adding 1 (or doubling
# a float, or negating a bool) would break a rule on two fields
_OTHER_VALUE = {"d": 10, "heads": 4, "fusion_layer_index": 1, "vocab_size": 50, "variant": "DPA"}


def test_every_config_setting_is_refused_or_reaches_the_run(tmp_path, monkeypatch):
    """Each leaf field of an experiment config, set alone to another valid
    value, makes ``maf ablate`` exit 2, or reaches the run: its value is on
    the ``SyntheticSpec`` given to ``generate`` (``test_instances`` as the
    held-out spec's ``num_instances``), or on the ``ModelConfig`` or
    ``TrainConfig`` given to ``train``. Only the keys the run sets itself
    exit 2. The data source, the output directory and the grid are not
    settings of a run; nothing trains."""
    seen = []
    real_generate = experiments.generate
    monkeypatch.setattr(experiments, "generate", lambda spec: seen.append(spec) or real_generate(spec))
    monkeypatch.setattr(experiments, "train", lambda insts, mcfg, tcfg: seen.extend([mcfg, tcfg])
                        or SimpleNamespace(step_losses=[1.0]))
    monkeypatch.setattr(experiments, "evaluate_variant", lambda tm, insts: dict.fromkeys(SCORES, 0.0))
    base = config_dict(None, variants=["TextOnly"])
    leaves = [(None, f.name, ExperimentConfig) for f in fields(ExperimentConfig)
              if f.name not in ("model", "train", "synthetic", "dataset", "out", "variants", "seeds")]
    leaves += [(section, f.name, cls) for section, cls in
               (("model", ModelConfig), ("train", TrainConfig), ("synthetic", SyntheticSpec))
               for f in fields(cls)]
    refused = set()
    for section, name, cls in leaves:
        raw = json.loads(json.dumps(base))
        part = raw if section is None else raw[section]
        old = part.get(name, getattr(cls(), name))
        value = (_OTHER_VALUE[name] if name in _OTHER_VALUE else not old if isinstance(old, bool)
                 else 2 * old if isinstance(old, float) else old + 1)
        part[name] = value
        raw["out"] = str(tmp_path / f"{section}.{name}")
        path = tmp_path / f"{section}.{name}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        seen.clear()
        code = main(["ablate", "--config", str(path)])
        where = f"{section}.{name}" if section else name
        if code == 2:
            assert not seen, where
            refused.add(where)
            continue
        assert code == 0, where
        attr = "num_instances" if name == "test_instances" else name
        owner = SyntheticSpec if section is None else cls
        assert any(getattr(obj, attr) == value for obj in seen if isinstance(obj, owner)), where
    assert refused == {"model.vocab_size", "model.audio_raw_dim", "model.video_raw_dim",
                       "model.variant", "model.seed", "synthetic.seed"}


# int and float fields with no rule of their own, and the rule that bounds them
_UNRULED = {
    (ModelConfig, "fusion_layer_index"): "1..encoder_layers, in ModelConfig.validate",
}
_VALID = {
    ModelConfig: ModelConfig(vocab_size=50),
    TrainConfig: TrainConfig(),
    SyntheticSpec: SyntheticSpec(),
    ExperimentConfig: ExperimentConfig(synthetic=SyntheticSpec()),
    MetricRow: MetricRow(**metric_row()),
}


def _bounds_and_past(rule: dict, valid) -> list[tuple]:
    """(a field value the rule accepts, the values just past it) per bound,
    for a field whose value ``valid`` is valid. A list's item bound is
    tried on one-item lists, the item past it alone and after the accepted
    one; ``distinct`` on no item and on the first valid item twice."""
    pairs = []
    if "lo" in rule:
        lo = rule["lo"]
        pairs.append((lo, lo - 1 if isinstance(lo, int) else math.nextafter(lo, -math.inf)))
    if "hi" in rule:
        hi = rule["hi"]
        pairs.append((hi, hi + 1 if isinstance(hi, int) else math.nextafter(hi, math.inf)))
    pairs += [(v, "not " + v) for v in rule.get("among", ())]
    if not isinstance(valid, list):
        return [(ok, [bad]) for ok, bad in pairs]
    pairs = [([ok], [[bad], [ok, bad]]) for ok, bad in pairs]
    if rule.get("distinct"):
        pairs.append((valid[:1], [[], valid[:1] * 2]))
    return pairs


@pytest.mark.parametrize("cls, f", [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
                                    for cls in _VALID for f in fields(cls)])
def test_each_field_rule_accepts_its_bound_and_refuses_past_it(cls, f):
    """Every rule declared on a field: the bound passes the field checker
    (a rule on two fields may still refuse it), the value just past it is
    refused naming the field, by ``validate`` where the class has one, and
    so is one such item in a list, and a list with no item or one item
    twice where the field is ``distinct``. A number field with no rule
    must be in ``_UNRULED``."""
    hint = get_type_hints(cls)[f.name]
    is_list = get_origin(hint) is list
    item = get_args(hint)[0] if is_list else hint
    if not f.metadata:
        assert not {int, float} & {item, *get_args(item)} or (cls, f.name) in _UNRULED
        return
    base = _VALID[cls]
    for ok, past in _bounds_and_past(f.metadata, getattr(base, f.name)):
        _check_fields(replace(base, **{f.name: ok}))
        for value in past:
            obj = replace(base, **{f.name: value})
            with pytest.raises(ConfigError, match=f"'{f.name}' must be "):
                obj.validate() if hasattr(obj, "validate") else _check_fields(obj)


def test_data_source_is_required():
    cfg = ExperimentConfig()
    cfg.model.vocab_size = None
    with pytest.raises(ConfigError, match="exactly one"):
        cfg.validate()


def test_config_hash_is_stable_and_sensitive(tmp_path):
    a = load(tmp_path)
    b = load(tmp_path)
    assert _identity(a)[0] == _identity(b)[0]
    assert len(_identity(a)[0]) == 12
    int(_identity(a)[0], 16)
    b.seeds = [4]
    assert _identity(a)[0] != _identity(b)[0]
    # the output directory is a location, not an experiment identity
    c = load(tmp_path)
    c.out = "somewhere/else"
    assert _identity(a)[0] == _identity(c)[0]


# ---- training and evaluation commands --------------------------------------------


def test_train_then_evaluate(tmp_path):
    cfg = load(tmp_path)
    result = cmd_train(cfg)
    ckpt = Path(result["checkpoint"])
    assert ckpt.exists()
    assert result["final_loss"] == pytest.approx(result["final_loss"])

    log = Path(result["loss_log"]).read_text(encoding="utf-8").splitlines()
    assert log[0] == "step,loss"
    assert len(log) == 1 + 2  # 16 instances / batch 8 = 2 steps, 1 epoch

    run_config = json.loads((tmp_path / "run" / "run_config.json").read_text(encoding="utf-8"))
    assert run_config["config_hash"] == _identity(cfg)[0]

    row = cmd_evaluate(cfg, str(ckpt))
    metrics_file = tmp_path / "run" / "metrics_MAF_seed1.json"
    assert metrics_file.exists()
    # the experiment plus the checkpoint's bytes: not the training run's hash
    assert row["config_hash"] != _identity(cfg)[0]
    int(row["config_hash"], 16)
    assert len(row["config_hash"]) == 12
    assert row["artifact_version"] == maf.__version__
    assert row["variant"] == "MAF"
    assert row["seed"] == 1
    assert list(row) == [f.name for f in fields(MetricRow)]
    assert [name for name, hint in get_type_hints(MetricRow).items() if hint is float] == list(SCORES)
    assert 0.0 <= row["exact_match"] <= 1.0
    assert json.loads(metrics_file.read_text(encoding="utf-8")) == row


@pytest.mark.parametrize("command", [cmd_train, cmd_ablate, cmd_sweep_fusion_layer])
def test_run_config_names_the_thread_setting(tmp_path, monkeypatch, command):
    """``run_config.json``, beside the checkpoint of ``train`` and the report
    of a grid, records the thread variables as the process saw them, null
    when unset, the NumPy version and its BLAS; none enters the hash."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = load(tmp_path)
    command(cfg)
    run_config = json.loads((tmp_path / "run" / "run_config.json").read_text(encoding="utf-8"))
    assert run_config["threads"] == {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                                     "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
    assert run_config["numpy_version"] == np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 cannot report its BLAS
        assert run_config["blas"] is None
    else:
        assert run_config["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert run_config["config_hash"] == _identity(cfg)[0]
    assert {k: run_config[k] for k in cfg.resolved()} == cfg.resolved()
    # the keys the run sets itself are neither hashed nor recorded
    assert {"vocab_size", "variant", "seed"}.isdisjoint(run_config["model"])
    assert "seed" not in run_config["synthetic"]


def test_evaluate_row_names_its_checkpoint(tmp_path):
    """Two checkpoints scored under one config give different hashes; one
    checkpoint scored twice writes byte-identical metric files."""
    ckpts = [Path(cmd_train(load(tmp_path, seeds=[seed], out=str(tmp_path / f"train{seed}")))
                  ["checkpoint"]) for seed in (1, 2)]
    rows = [cmd_evaluate(load(tmp_path, out=str(tmp_path / f"eval{k}")), str(ckpt))
            for k, ckpt in enumerate([*ckpts, ckpts[0]])]
    assert rows[0]["config_hash"] != rows[1]["config_hash"]
    assert ((tmp_path / "eval0" / "metrics_MAF_seed1.json").read_bytes()
            == (tmp_path / "eval2" / "metrics_MAF_seed1.json").read_bytes())


def test_cli_evaluate_checks_the_data_against_the_checkpoint_model(tmp_path, capsys):
    """A MAF checkpoint scored under a TextOnly config whose corpus has 513
    audio frames, one past the cap, which holds whatever variant the config
    names: exit 2 on the field's rule, before the checkpoint is read, and no
    --out."""
    ckpt = cmd_train(load(tmp_path, out=str(tmp_path / "train")))["checkpoint"]
    raw = config_dict(tmp_path / "scores", variants=["TextOnly"])
    raw["synthetic"]["frames"] = 513
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["evaluate", "--config", str(path), "--checkpoint", ckpt]) == 2
    assert "config error: 'frames' must be <= 512, got 513" in capsys.readouterr().err
    assert not (tmp_path / "scores").exists()


def _narrow_corpus(path: Path, wider: str | None = None) -> list:
    """A corpus file of 40 synthetic instances whose audio is 7 wide and
    video 5 wide: the generated features cut to their first columns, which
    hold each instance's class (3 actions, 3 targets). The instance whose
    id is ``wider`` has 8-wide audio. Returns the instances."""
    spec = SyntheticSpec(**{**config_dict(None)["synthetic"], "num_instances": 40})
    insts = [replace(inst, audio_features=inst.audio_features[:, :8 if inst.id == wider else 7],
                     video_features=inst.video_features[:, :5]) for inst in generate(spec)]
    save_corpus(insts, path)
    return insts


def test_cli_ablate_reads_the_feature_widths_of_its_corpus(tmp_path):
    """A corpus of 7-wide audio and 5-wide video, under a config that names
    no width: ``maf ablate`` trains MAF, TA and TV on it and writes their
    metric rows."""
    corpus = tmp_path / "narrow.jsonl"
    _narrow_corpus(corpus)
    path = write_config(tmp_path, variants=["MAF", "TA", "TV"])
    assert main(["ablate", "--config", str(path), "--dataset", str(corpus)]) == 0
    assert sorted(p.name for p in (tmp_path / "run").glob("metrics_*.json")) == [
        "metrics_MAF_seed1.json", "metrics_TA_seed1.json", "metrics_TV_seed1.json"]


@pytest.fixture(scope="module")
def narrow_checkpoint(tmp_path_factory):
    """A config file, a 7/5-wide corpus file and the MAF checkpoint that
    ``maf train`` writes from them."""
    d = tmp_path_factory.mktemp("narrow")
    corpus = d / "narrow.jsonl"
    _narrow_corpus(corpus)
    path = write_config(d)
    assert main(["train", "--config", str(path), "--dataset", str(corpus)]) == 0
    return path, corpus, d / "run" / "checkpoint_MAF_seed1.ckpt"


def test_cli_train_and_evaluate_a_corpus_of_other_widths(narrow_checkpoint, tmp_path):
    """The checkpoint records the corpus's widths, 7 and 5, and ``maf
    evaluate`` scores it on the same corpus's held-out split."""
    path, corpus, ckpt = narrow_checkpoint
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    assert (header["config"]["audio_raw_dim"], header["config"]["video_raw_dim"]) == (7, 5)
    loaded = load_checkpoint(ckpt).config
    assert (loaded.audio_raw_dim, loaded.video_raw_dim) == (7, 5)
    out = tmp_path / "scores"
    assert main(["evaluate", "--config", str(path), "--dataset", str(corpus),
                 "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    assert (out / "metrics_MAF_seed1.json").exists()


def test_cli_evaluate_on_data_of_other_widths_exits_3(narrow_checkpoint, tmp_path, capsys):
    """The 7/5 checkpoint scored on the gap config's synthetic held-out
    data, whose audio is 16 wide: exit 3 naming both widths, and no --out."""
    ckpt = narrow_checkpoint[2]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps({"synthetic": asdict(GAP_SPEC), "seeds": [1]}), encoding="utf-8")
    out = tmp_path / "scores"
    assert main(["evaluate", "--config", str(gap), "--checkpoint", str(ckpt), "--out", str(out)]) == 3
    assert ("audio: feature width 16 does not match the model's width 7"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_a_training_instance_of_another_width_exits_3_before_the_first_step(
        tmp_path, capsys, monkeypatch):
    """The model takes its widths from the first training instance; the
    second, 8 wide, stops ``maf train`` with exit 3 naming it and both
    widths, before any step and with no --out."""
    corpus = tmp_path / "narrow.jsonl"
    train_ids = split(_narrow_corpus(corpus), 1).train
    _narrow_corpus(corpus, wider=train_ids[1])
    monkeypatch.setattr(maf.model, "_batch_backward", _fail_if_called("_batch_backward"))
    path = write_config(tmp_path)
    assert main(["train", "--config", str(path), "--dataset", str(corpus)]) == 3
    assert capsys.readouterr().err == (f"error: instance '{train_ids[1]}': audio: feature width 8 "
                                       f"does not match the model's width 7\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "sweep-fusion-layer"])
def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(tmp_path, monkeypatch,
                                                                       capsys, command):
    """An existing file, or a path under one: exit 2 before anything is
    loaded or trained, and nothing is made."""
    calls = []
    for name in ("train", "load_checkpoint"):
        monkeypatch.setattr(experiments, name, lambda *a, **k: calls.append(a))
    path = write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory", encoding="utf-8")
    flags = ["--checkpoint", str(tmp_path / "model.ckpt")] if command == "evaluate" else []
    for out in (blocker, blocker / "sub"):
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
        assert (f"config error: '{out}' cannot be an output directory: '{blocker}' is not a "
                f"directory") in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "file"]


def test_train_requires_a_single_cell(tmp_path):
    cfg = load(tmp_path, variants=["MAF", "TextOnly"])
    with pytest.raises(ConfigError, match="one variant and one seed"):
        cmd_train(cfg)


def test_output_directory_is_required(tmp_path):
    cfg = load(tmp_path)
    cfg.out = None
    with pytest.raises(ConfigError, match="output directory"):
        cmd_train(cfg)


def test_ablate_writes_rows_and_report(tmp_path):
    cfg = load(tmp_path, variants=["TextOnly", "MAF"])
    rows = cmd_ablate(cfg)
    assert len(rows) == 2
    out = tmp_path / "run"
    assert (out / "metrics_TextOnly_seed1.json").exists()
    assert (out / "metrics_MAF_seed1.json").exists()
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "TextOnly s1" in report and "MAF mean" in report
    assert (out / "report.csv").read_text(encoding="utf-8").startswith("label,R1,")


def test_reruns_are_byte_identical(tmp_path):
    """The reproducibility contract: run again, get the same bytes."""
    cfg = load(tmp_path, variants=["TextOnly", "MAF"])
    cmd_ablate(cfg)
    out = tmp_path / "run"
    files = sorted(p.name for p in out.iterdir())
    first = {name: (out / name).read_bytes() for name in files}
    cmd_ablate(load(tmp_path, variants=["TextOnly", "MAF"]))
    for name in files:
        assert (out / name).read_bytes() == first[name], name


def test_report_over_two_single_variant_runs_lists_both_hashes(tmp_path):
    """``--variant`` narrows the hashed config, so one variant and then
    another into one ``--out`` write rows of two hashes; ``maf report``
    over both succeeds and names each."""
    path = write_config(tmp_path, variants=["TextOnly", "MAF"])
    for variant in ("TextOnly", "MAF"):
        assert main(["ablate", "--config", str(path), "--variant", variant]) == 0
    assert main(["report", "--config", str(path)]) == 0
    out = tmp_path / "run"
    digests = {json.loads((out / f"metrics_{v}_seed1.json").read_text(encoding="utf-8"))["config_hash"]
               for v in ("TextOnly", "MAF")}
    assert len(digests) == 2
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "the rows pool 2 configs" in text
    for digest in digests:
        assert f"\nconfig {digest}: 1 row\n" in text


def test_corpus_runs_write_the_same_bytes_whatever_the_path_spelling(tmp_path, monkeypatch, capsys):
    """The corpus enters the config hash and ``run_config.json`` by its
    bytes, so no file that ``maf ablate`` or ``maf train`` writes for one
    experiment depends on how its corpus path is written."""
    path = write_config(tmp_path)
    assert main(["gen-synthetic", "--config", str(path), "--out", str(tmp_path / "corpus.jsonl")]) == 0
    monkeypatch.chdir(tmp_path)
    spellings = ["corpus.jsonl", "./corpus.jsonl", str(tmp_path / "corpus.jsonl")]
    written = {"ablate": ["loss_MAF_seed1.csv", "metrics_MAF_seed1.json", "report.csv", "report.txt",
                          "run_config.json"],
               "train": ["checkpoint_MAF_seed1.ckpt", "loss_MAF_seed1.csv", "run_config.json"]}
    for command, names in written.items():
        runs = []
        for i, spelling in enumerate(spellings):
            out = tmp_path / f"{command}{i}"
            assert main([command, "--config", str(path), "--dataset", spelling,
                         "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert list(runs[0]) == names
        for spelling, files in zip(spellings[1:], runs[1:]):
            assert files == runs[0], (command, spelling)
    capsys.readouterr()
    # a corpus that is missing or cannot be read stays a runtime error
    for unreadable in ("missing.jsonl", "ablate0"):
        assert main(["ablate", "--config", str(path), "--dataset", unreadable, "--out", "bad"]) == 3
        assert "error:" in capsys.readouterr().err


def test_a_grid_hashes_its_corpus_once(tmp_path, monkeypatch):
    """``run_config.json`` and every metric row of a grid carry one hash,
    taken before the first cell trains: a corpus rewritten mid-run changes
    neither."""
    path = write_config(tmp_path, variants=["TextOnly", "MAF"])
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-synthetic", "--config", str(path), "--out", str(corpus)]) == 0
    real_train = experiments.train

    def train_then_rewrite(*args, **kwargs):
        model = real_train(*args, **kwargs)
        corpus.write_bytes(corpus.read_bytes() + b"\n")  # new bytes, the same records
        return model

    monkeypatch.setattr(experiments, "train", train_then_rewrite)
    rows = cmd_ablate(load(tmp_path, variants=["TextOnly", "MAF"], dataset=str(corpus),
                           synthetic=None))
    run_config = json.loads((tmp_path / "run" / "run_config.json").read_text(encoding="utf-8"))
    assert len(rows) == 2
    assert {row["config_hash"] for row in rows} == {run_config["config_hash"]}


def test_a_dataset_grid_reads_its_corpus_once(tmp_path, monkeypatch):
    """A two-seed ``maf ablate --dataset`` parses its corpus file once, and
    each seed's loss log and metric scores are those of a one-seed run."""
    path = write_config(tmp_path, seeds=[1, 2])
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-synthetic", "--config", str(path), "--out", str(corpus)]) == 0
    loads = []
    real_load = experiments.load_and_validate
    monkeypatch.setattr(experiments, "load_and_validate", lambda p: loads.append(p) or real_load(p))
    both = tmp_path / "both"
    assert main(["ablate", "--config", str(path), "--dataset", str(corpus), "--out", str(both)]) == 0
    assert len(loads) == 1
    for seed in (1, 2):
        one = tmp_path / f"seed{seed}"
        assert main(["ablate", "--config", str(path), "--dataset", str(corpus), "--seed", str(seed),
                     "--out", str(one)]) == 0
        name = f"loss_MAF_seed{seed}.csv"
        assert (one / name).read_bytes() == (both / name).read_bytes()
        first, second = (json.loads((d / f"metrics_MAF_seed{seed}.json").read_text(encoding="utf-8"))
                         for d in (one, both))
        assert {**first, "config_hash": None} == {**second, "config_hash": None}


def _spy_on_generate(monkeypatch) -> list:
    """The specs ``experiments.generate`` is called with, in order."""
    specs = []
    real_generate = experiments.generate
    monkeypatch.setattr(experiments, "generate", lambda spec: specs.append(spec) or real_generate(spec))
    return specs


def test_train_and_evaluate_generate_only_the_side_they_read(tmp_path, monkeypatch):
    """``maf train`` generates the seed's training set alone, and ``maf
    evaluate`` its held-out set alone (``seed ^ TEST_SEED_SALT``,
    ``test_instances`` of them)."""
    specs = _spy_on_generate(monkeypatch)
    path = write_config(tmp_path, seeds=[2])
    assert main(["train", "--config", str(path)]) == 0
    spec = load(tmp_path, seeds=[2]).synthetic
    assert specs == [replace(spec, seed=2)]
    specs.clear()
    assert main(["evaluate", "--config", str(path), "--checkpoint",
                 str(tmp_path / "run" / "checkpoint_MAF_seed2.ckpt")]) == 0
    assert specs == [replace(spec, seed=2 ^ TEST_SEED_SALT, num_instances=6)]


def test_a_grid_generates_each_seed_s_training_then_held_out_set(tmp_path, monkeypatch):
    """A two-seed ``maf ablate`` generates seed 1's training set, then its
    held-out set, then seed 2's. Each seed's loss log is the one ``maf
    train`` writes, and its scores are those ``maf evaluate`` gives that
    checkpoint."""
    specs = _spy_on_generate(monkeypatch)
    cfg = load(tmp_path, seeds=[1, 2])
    cmd_ablate(cfg)
    assert specs == [replace(cfg.synthetic, **side) for seed in (1, 2)
                     for side in ({"seed": seed}, {"seed": seed ^ TEST_SEED_SALT, "num_instances": 6})]
    for seed in (1, 2):
        one = load(tmp_path, seeds=[seed], out=str(tmp_path / f"seed{seed}"))
        tm = cmd_train(one)
        assert (Path(tm["loss_log"]).read_bytes()
                == (tmp_path / "run" / f"loss_MAF_seed{seed}.csv").read_bytes())
        grid_row = json.loads((tmp_path / "run" / f"metrics_MAF_seed{seed}.json").read_text(encoding="utf-8"))
        assert {**cmd_evaluate(one, tm["checkpoint"]), "config_hash": None} == {**grid_row, "config_hash": None}


def test_sweep_fusion_layer(tmp_path):
    cfg = load(tmp_path)
    rows = cmd_sweep_fusion_layer(cfg)
    assert [r["fusion_layer_index"] for r in rows] == [1, 2]
    out = tmp_path / "run"
    assert (out / "metrics_MAF_layer1_seed1.json").exists()
    assert (out / "metrics_MAF_layer2_seed1.json").exists()
    for layer in (1, 2):
        log = (out / f"loss_MAF_layer{layer}_seed1.csv").read_text(encoding="utf-8")
        assert log.startswith("step,loss\n1,")
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "MAF@L1" in report and "MAF@L2" in report


def test_sweep_requires_one_variant(tmp_path):
    cfg = load(tmp_path, variants=["MAF", "DPA"])
    with pytest.raises(ConfigError, match="one variant"):
        cmd_sweep_fusion_layer(cfg)


def test_sweep_refuses_a_variant_without_adapter(tmp_path, capsys):
    """TextOnly has no adapter, so every fusion layer would train the same
    model: the sweep is refused before anything is trained or written."""
    cfg = load(tmp_path, variants=["TextOnly"])
    with pytest.raises(ConfigError, match="TextOnly has no adapter"):
        cmd_sweep_fusion_layer(cfg)
    path = write_config(tmp_path, variants=["MAF"])
    assert main(["sweep-fusion-layer", "--config", str(path), "--variant", "TextOnly"]) == 2
    assert "config error: sweep-fusion-layer: TextOnly has no adapter" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_gen_synthetic_writes_a_loadable_corpus(tmp_path):
    cfg = load(tmp_path)
    corpus_file = tmp_path / "syn.jsonl"
    count = cmd_gen_synthetic(cfg, str(corpus_file))
    assert count == 16
    corpus = load_and_validate(corpus_file)
    assert len(corpus) == 16


def test_gen_synthetic_is_byte_deterministic(tmp_path):
    cfg = load(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cmd_gen_synthetic(cfg, str(a))
    cmd_gen_synthetic(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_synthetic_needs_a_spec(tmp_path):
    cfg = load(tmp_path)
    cfg.synthetic = None
    with pytest.raises(ConfigError, match="synthetic"):
        cmd_gen_synthetic(cfg, str(tmp_path / "x.jsonl"))


def test_report_requires_metric_files(tmp_path):
    cfg = load(tmp_path)
    (tmp_path / "run").mkdir()
    with pytest.raises(ConfigError, match="nothing to report"):
        cmd_report(cfg)


def test_report_on_a_missing_directory_creates_nothing(tmp_path, capsys):
    path = write_config(tmp_path)
    missing = tmp_path / "missing"
    assert main(["report", "--config", str(path), "--out", str(missing)]) == 2
    assert "nothing to report" in capsys.readouterr().err
    assert not missing.exists()


def test_report_aggregates_seeds(tmp_path):
    cfg = load(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    for seed, r1 in ((1, 0.5), (2, 0.7)):
        row = metric_row(seed=seed, R1=r1)
        (out / f"metrics_MAF_seed{seed}.json").write_text(json.dumps(row), encoding="utf-8")
    text, csv = cmd_report(cfg)
    assert "MAF s1" in text and "MAF s2" in text
    assert "60.00±14.14" in text  # mean and sample std of 50 and 70
    assert text.startswith("# fusion-mechanism comparison: rows differ only in the fusion pathway")
    assert text.endswith("\nconfig abc: 2 rows\n")
    again_text, again_csv = cmd_report(cfg)
    assert (text, csv) == (again_text, again_csv)


def test_report_names_the_configs_it_pools(tmp_path):
    """Rows of two config hashes: the report lists each hash with its row
    count under the table, and its header claims nothing held fixed."""
    cfg = load(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    for variant, seed, digest in (("MAF", 1, "aaa"), ("MAF", 2, "bbb"), ("TextOnly", 1, "bbb")):
        row = metric_row(variant=variant, seed=seed, config_hash=digest)
        (out / f"metrics_{variant}_seed{seed}.json").write_text(json.dumps(row), encoding="utf-8")
    text, csv = cmd_report(cfg)
    assert text.startswith("# fusion-mechanism comparison: the rows pool 2 configs, listed below\n")
    assert "held fixed" not in text
    assert "\nconfig aaa: 1 row\nconfig bbb: 2 rows\n\naction gap" in text
    assert "config" not in csv


def test_report_prints_the_fusion_gap(tmp_path):
    """After the table, one line per variant: its seed-mean action accuracy
    minus TextOnly's at the same fusion layer. The CSV carries no gap."""
    cfg = load(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    accs = {"TextOnly": (0.0, 0.0), "MAF": (1.0, 1.0), "Concat2": (0.5, 0.25)}
    for variant, per_seed in accs.items():
        for seed, acc in zip((1, 2), per_seed):
            row = metric_row(variant=variant, seed=seed, action_acc=acc)
            (out / f"metrics_{variant}_seed{seed}.json").write_text(json.dumps(row), encoding="utf-8")
    text, csv = cmd_report(cfg)
    assert text.endswith("\naction gap over TextOnly, Concat2: +37.50 points\n"
                         "action gap over TextOnly, MAF: +100.00 points\n")
    assert "gap" not in csv
    for seed in (1, 2):
        (out / f"metrics_TextOnly_seed{seed}.json").unlink()
    assert "action gap" not in cmd_report(cfg)[0]


# ---- CLI entry point ---------------------------------------------------------------


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("{bad", "is not valid JSON"),
        ("[1]", "must hold a JSON object"),
        (dict(seed=DROP), "missing key 'seed'"),
        (dict(variant=DROP), "missing key 'variant'"),
        (dict(fusion_layer_index=DROP), "missing key 'fusion_layer_index'"),
        (dict(variant=5), "'variant' must be str"),
        (dict(seed=True), "'seed' must be int"),
        (dict(fusion_layer_index="2"), "'fusion_layer_index' must be int"),
        (dict(action_acc="high"), "'action_acc' must be float"),
        # JSON's NaN, and an int beyond float range, are numbers no range check stops
        (dict(action_acc=float("nan")), "'action_acc' must be float, got nan"),
        (dict(action_acc=10**400), "'action_acc' must be float, got 1000"),
        (dict(action_acc=1.5), "'action_acc' must be <= 1.0, got 1.5"),
        # the layout before the scores had one name each
        (dict(meteor=None), "unknown key 'meteor'"),
        (dict(target_acc=DROP, target_word_acc=0.5), "unknown key 'target_word_acc'"),
        # Python's JSON parser recurses once per level
        ("[" * 100_000, "nested too deeply"),
    ],
    ids=["not-json", "not-object", "no-seed", "no-variant", "no-fusion_layer_index", "variant-int",
         "seed-bool", "fusion_layer_index-str", "action_acc-str", "action_acc-nan",
         "action_acc-huge-int", "action_acc-above-1", "old-key-meteor", "old-key-target_word_acc",
         "nested-100000-deep"],
)
def test_cli_report_rejects_broken_metric_files(tmp_path, capsys, content, fragment):
    """A metric file that is not a ``MetricRow`` (``content`` is its text,
    or the changes to a valid row) is a runtime error naming the file and
    the key (exit 3), not a traceback."""
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics_TextOnly_seed1.json").write_text(
        json.dumps(metric_row(variant="TextOnly", action_acc=0.2)), encoding="utf-8")
    bad = out / "metrics_MAF_seed1.json"
    bad.write_text(content if isinstance(content, str) else json.dumps(metric_row(**content)),
                   encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: metric file '{bad}'")
    assert fragment in err


def test_cli_ablate_succeeds(tmp_path, capsys):
    path = write_config(tmp_path, variants=["TextOnly"])
    assert main(["ablate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote 1 metric rows" in out
    assert "TextOnly" in out


def test_cli_ablate_refuses_duplicate_variants(tmp_path, capsys):
    """A repeated variant would train its cell twice into one metric file."""
    path = write_config(tmp_path, variants=["TextOnly", "TextOnly"])
    assert main(["ablate", "--config", str(path)]) == 2
    assert "config error: 'variants' must be a non-empty list without duplicates" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_train_narrowed_by_flags(tmp_path, capsys):
    path = write_config(tmp_path, variants=["TextOnly", "MAF"], seeds=[1, 2])
    code = main(["train", "--config", str(path), "--variant", "MAF", "--seed", "2"])
    assert code == 0
    assert "checkpoint" in capsys.readouterr().out
    assert (tmp_path / "run" / "checkpoint_MAF_seed2.ckpt").exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["train", "--config", str(tmp_path)]) == 2  # a directory cannot be read
    assert f"config error: config file '{tmp_path}' cannot be read" in capsys.readouterr().err
    path = write_config(tmp_path, variants=["MAF", "TextOnly"])
    assert main(["train", "--config", str(path)]) == 2
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--variant", "MAF", "--seed", "-1"]) == 2
    assert "config error: 'seeds' must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("reader, code", [("config", 2), ("checkpoint", 3)])
def test_cli_deeply_nested_json_is_a_clean_error(tmp_path, capsys, reader, code):
    """JSON nested 100000 deep makes the parser raise RecursionError; the
    config reader turns it into a config error (exit 2) and the checkpoint
    reader into a bad-file error (exit 3), never a traceback."""
    deep = tmp_path / "deep"
    deep.write_text("[" * 100_000, encoding="utf-8")
    if reader == "config":
        argv = ["train", "--config", str(deep)]
    else:
        argv = ["evaluate", "--config", str(write_config(tmp_path)), "--checkpoint", str(deep)]
    assert main(argv) == code
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(model={"d": "64"}), "d"),
        (dict(model={"d": True}), "d"),
        (dict(train={"epochs": 1.5}), "epochs"),
        (dict(seeds=5), "seeds"),
        (dict(seeds=[True]), "seeds"),
        (dict(variants="MAF"), "variants"),
        (dict(test_instances="6"), "test_instances"),
        (dict(synthetic={"num_instances": "5"}), "num_instances"),
        (dict(synthetic={"noise": "x"}), "noise"),
        (dict(synthetic={"rich_templates": "no"}), "rich_templates"),
        (dict(out=5), "out"),
        (dict(dataset=5), "dataset"),
        # JSON's NaN and Infinity are floats that every range check lets through
        (dict(train={"lr": float("nan")}), "lr"),
        (dict(synthetic={"noise": float("inf")}), "noise"),
        # an int is a float only if it converts to a finite one
        (dict(train={"lr": 10**400}), "lr"),
        # NumPy's seeding takes no negative seed
        (dict(seeds=[-1]), "seeds"),
        (dict(model={"seed": -1}), "seed"),
        (dict(synthetic={"seed": -1}), "seed"),
    ],
)
def test_cli_mistyped_config_exits_2(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(path)]) == 2
    assert f"config error: '{field}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, fragment", [
    ("model", {"d": 10**15}, "the model would allocate"),
    ("model", {"ffn": 10**15}, "the model would allocate"),
    ("model", {"encoder_layers": 10**15}, "the model would allocate"),
    ("model", {"max_target_len": 10**15}, "the model would allocate"),
    ("synthetic", {"num_instances": 10**15}, "the corpus would take"),
    # an instance's frames and windows stop at their cap, so the count passes the limit
    ("synthetic", {"num_instances": 10_000, "frames": 512, "windows": 512}, "the corpus would take"),
    ("synthetic", {"frames": 10**15}, "'frames' must be <= 512"),
    ("synthetic", {"windows": 10**15}, "'windows' must be <= 512"),
], ids=["model-d", "model-ffn", "model-encoder_layers", "model-max_target_len",
        "synthetic-num_instances", "synthetic-at-frame-caps", "synthetic-frames", "synthetic-windows"])
def test_cli_oversized_config_exits_2_before_allocating(tmp_path, capsys, section, values, fragment):
    """A size whose allocation would pass its limit is a config error,
    raised before data generation or parameter init tries to allocate."""
    raw = config_dict(tmp_path / "run")
    raw[section].update(values)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_cli_diverged_training_exits_3_and_writes_nothing(tmp_path, capsys, command):
    path = write_config(tmp_path, train={"lr": 1e200, "epochs": 1, "batch_size": 8})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--config", str(path)]) == 3
    assert "non-finite loss at step" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_removed_bleu_smoothing_key_exits_2(tmp_path, capsys):
    """Nothing read this knob, so it is no longer a config key."""
    path = write_config(tmp_path, bleu_smoothing=False)
    assert main(["train", "--config", str(path)]) == 2
    assert "unknown key 'bleu_smoothing'" in capsys.readouterr().err


def test_cli_train_writes_the_same_bytes_at_any_blas_thread_count(tmp_path):
    """``maf train`` at the gap operating point (2 epochs, seed 71) in three
    processes, with the BLAS and OpenMP thread counts at 1, at 2 and unset:
    the checkpoint and the loss log are byte-identical."""
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"model": asdict(GAP_MODEL), "synthetic": asdict(GAP_SPEC),
                                "train": asdict(replace(GAP_TRAIN, epochs=2)),
                                "variants": ["MAF"], "seeds": [71]}), encoding="utf-8")
    src = str(Path(maf.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "maf", "train", "--config", str(path), "--out", str(out)],
                       env={**env, "PYTHONPATH": src}, check=True, capture_output=True, timeout=600)
        outputs.append([(out / name).read_bytes()
                        for name in ("checkpoint_MAF_seed71.ckpt", "loss_MAF_seed71.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def _never_train(*args, **kwargs):
    pytest.fail("train was called")


def test_cli_runtime_errors_exit_3(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)
    code = main(["evaluate", "--config", str(path), "--checkpoint",
                 str(tmp_path / "missing.ckpt")])
    assert code == 3
    assert "error:" in capsys.readouterr().err

    # a corrupt corpus stops ``maf train`` before it trains or makes --out
    monkeypatch.setattr(experiments, "train", _never_train)
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("{broken\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(corrupt), "--seed", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: line 1: record is not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize("flag, code, fragment", [
    ("--variant=", 2, "config error: 'variants' must be one of"),
    ("--dataset=", 3, "error: "),  # as a missing corpus file is
    ("--out=", 2, "config error: an output directory is required"),
], ids=["variant", "dataset", "out"])
def test_cli_a_flag_given_an_empty_value_is_applied(tmp_path, capsys, monkeypatch, flag, code,
                                                     fragment):
    """An empty value replaces what the config says, a synthetic source and
    an ``out`` included, and is refused as that value: nothing trains and
    no output directory is made."""
    monkeypatch.setattr(experiments, "train", _never_train)
    path = write_config(tmp_path, variants=["TextOnly"])
    assert main(["ablate", "--config", str(path), flag]) == code
    assert capsys.readouterr().err.startswith(fragment)
    assert not (tmp_path / "run").exists()


def test_cli_ctrl_c_is_a_clean_exit(tmp_path):
    """One ``maf train`` child, interrupted while it trains: exit 130, the
    one line ``interrupted`` on stderr, and no output directory. The child
    restores Python's own SIGINT handler, since a parent that ignores
    SIGINT passes that on."""
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"model": asdict(GAP_MODEL), "synthetic": asdict(GAP_SPEC),
                                "train": asdict(replace(GAP_TRAIN, epochs=50)),
                                "variants": ["MAF"], "seeds": [1]}), encoding="utf-8")
    out = tmp_path / "run"
    child = ("import signal, sys\n"
             "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
             "from maf.experiments import main\n"
             "print('ready', flush=True)\n"
             f"sys.exit(main(['train', '--config', {str(path)!r}, '--out', {str(out)!r}]))\n")
    src = str(Path(maf.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # into main; 50 epochs at the gap point train for about 20 s
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
    assert not out.exists()


def test_cli_stats_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["stats", "--dataset", "corpus.jsonl"])
    assert exit.value.code == 2
    assert "invalid choice: 'stats'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        # every checkpoint written while the config had this knob carries it
        (lambda h: h["config"].update(sigmoid_gates=False), "'sigmoid_gates'"),
        (lambda h: delitem(h, "config"), "'config'"),
        (lambda h: delitem(h["config"], "heads"), "'heads'"),
        (lambda h: [h], "must hold a JSON object, got list"),  # a returned value replaces the header
        (lambda h: delitem(h, "vocab"), "'vocab'"),
        (lambda h: h.update(params=5), "'params'"),
        (lambda h: delitem(h["params"][0], "rows"), '\'params\' lists {"cols": 8, "name": "embedding"}'),
        (lambda h: h["config"].update(d="8"), "'d'"),
        # an out-of-range value is a bad file (exit 3), not a bad run config (exit 2)
        (lambda h: h["config"].update(ffn=0), "'ffn'"),
        (lambda h: h["config"].update(max_text_len=float("nan")), "'max_text_len'"),
        (lambda h: h["config"].update(seed=-1), "'seed'"),
        (lambda h: h.update(written_by="x"), "'written_by'"),  # a key this version does not know
        # the table is compared before any blob is read, not read at the declared size
        (lambda h: h["params"][0].update(rows=10**12), '"rows": 1000000000000'),
        # and the vocab before init allocates vocab_size rows
        (lambda h: h["config"].update(vocab_size=10**6), "vocab_size=1000000 token strings"),
        # and what the sizes allocate before init allocates it
        (lambda h: h["config"].update(d=10**15), "the model would allocate"),
        (lambda h: h["config"].update(decoder_layers=10**15), "the model would allocate"),
        # a TA checkpoint in the layout that still held the unread video gate
        (lambda h: h["config"].update(variant="TA") or h.update(params=[
            e for e in h["params"] if not e["name"].startswith(("video_enc.", "adapter.mca2_video."))
        ]), '"name": "adapter.gif.w_video"'),
        # a checkpoint written while the config held the frame caps
        (lambda h: h["config"].update(max_frames=512, max_windows=512), "unknown key 'max_frames'"),
    ],
    ids=["old-key-sigmoid_gates", "no-config", "no-heads", "header-a-list", "no-vocab",
         "params-not-list", "params-entry-without-rows", "d-str", "ffn-0", "max_text_len-nan",
         "seed-negative", "unknown-key", "rows-huge", "vocab_size-huge", "d-huge",
         "decoder_layers-huge", "TA-with-video-gate", "old-keys-frame-caps"],
)
def test_cli_evaluate_rejects_bad_checkpoint_config(tmp_path, capsys, mutate, fragment):
    path = write_config(tmp_path)
    ckpt = Path(cmd_train(load_experiment_config(str(path)))["checkpoint"])
    head, rest = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header = mutate(header) or header
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
    assert main(["evaluate", "--config", str(path), "--checkpoint", str(ckpt)]) == 3
    assert fragment in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """An experiment config file, the bytes of a checkpoint trained from it,
    and a counter that names each mutant file (a fresh file is much cheaper
    than overwriting one on some file systems)."""
    path = write_config(tmp_path_factory.mktemp("ckpt"))
    blob = Path(cmd_train(load_experiment_config(str(path)))["checkpoint"]).read_bytes()
    return path, blob, itertools.count()


def test_cli_evaluate_on_a_truncated_checkpoint_creates_no_output_directory(tiny_checkpoint,
                                                                           tmp_path, capsys):
    config_path, blob, _ = tiny_checkpoint
    path = tmp_path / "cut.ckpt"
    path.write_bytes(blob[:len(blob) // 2])
    out = tmp_path / "scores"
    argv = ["evaluate", "--config", str(config_path), "--checkpoint", str(path), "--out", str(out)]
    assert main(argv) == 3
    assert "cut.ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_cli_evaluate_refuses_a_checkpoint_of_nan_weights(tiny_checkpoint, tmp_path, capsys):
    """Every blob NaN: ``maf evaluate`` exits 3 naming the first parameter
    and writes no metric row; decoding such a model would score zeros."""
    config_path, blob, _ = tiny_checkpoint
    head, rest = blob.split(b"\n", 1)
    path = tmp_path / "nan.ckpt"
    path.write_bytes(head + b"\n" + np.full(len(rest) // 8, np.nan, dtype="<f8").tobytes())
    out = tmp_path / "scores"
    argv = ["evaluate", "--config", str(config_path), "--checkpoint", str(path), "--out", str(out)]
    assert main(argv) == 3
    assert "parameter 'embedding' holds a non-finite value" in capsys.readouterr().err
    assert not list(out.glob("metrics_*.json"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutation=st.sampled_from([("header", "drop"), ("header", "add"), ("header", "retype"),
                                 ("config", "drop"), ("config", "add"), ("config", "retype"),
                                 ("blob", "truncate")]),
       data=st.data())
def test_mutated_checkpoint_raises_only_parse_errors(tiny_checkpoint, mutation, data):
    """Drop, add or retype a key of the header or of its config, or cut the
    file short: loading raises ParseError for every mutant, and ``maf
    evaluate`` on a sample of them exits 3."""
    config_path, blob, names = tiny_checkpoint
    where, action = mutation
    if action == "truncate":
        mutant = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        head, rest = blob.split(b"\n", 1)
        header = json.loads(head)
        target = header if where == "header" else header["config"]
        if action == "drop":
            del target[data.draw(st.sampled_from(sorted(target)))]
        elif action == "add":
            key = data.draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in target))
            target[key] = data.draw(_JSON_VALUES)
        else:
            key = data.draw(st.sampled_from(sorted(target)))
            old = target[key]
            target[key] = data.draw(_JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        mutant = json.dumps(header, sort_keys=True).encode() + b"\n" + rest
    path = config_path.parent / f"mutant{next(names)}.ckpt"
    path.write_bytes(mutant)
    with pytest.raises(ParseError):
        load_checkpoint(path)
    if data.draw(st.integers(0, 4), label="run maf evaluate") == 0:
        assert main(["evaluate", "--config", str(config_path), "--checkpoint", str(path)]) == 3


_KINDS = {
    "bool": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(-2, 2),
    "str": st.text(max_size=3),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
}


def _other_kind(data, value):
    """A JSON value of another kind than ``value``: never null, which an
    optional field takes, and never a number for a number, so no value
    drawn fits the field it replaces."""
    own = ("bool" if isinstance(value, bool) else "number" if isinstance(value, (int, float))
           else {str: "str", list: "list", dict: "dict"}[type(value)])
    return data.draw(st.sampled_from(sorted(set(_KINDS) - {own})).flatmap(_KINDS.get))


def _retype_some_key(data, obj: dict, skip=()):
    key = data.draw(st.sampled_from(sorted(k for k in obj if k not in skip)))
    obj[key] = _other_kind(data, obj[key])


@pytest.fixture(scope="module")
def cli_inputs(tiny_checkpoint):
    """Valid bytes of each input file the CLI reads: config, checkpoint,
    metric file and corpus."""
    config_path, blob, names = tiny_checkpoint
    corpus = config_path.parent / "corpus.jsonl"
    cmd_gen_synthetic(load_experiment_config(str(config_path)), str(corpus))
    metric = metric_row()
    return config_path, blob, metric, corpus.read_bytes(), names


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["config", "checkpoint", "metric", "corpus"]),
       mutation=st.sampled_from(["retype", "truncate", "non-utf8"]), data=st.data())
def test_cli_on_mutated_input_files_exits_2_or_3(cli_inputs, kind, mutation, data):
    """``maf train``, ``evaluate`` and ``report`` on a broken config,
    checkpoint, metric or corpus file: a retyped field, a file cut short
    inside its JSON, or a byte that is not UTF-8. Every mutant is invalid
    by construction, and the CLI exits 2 for a config and 3 for the rest,
    with a one-line message and no traceback; a broken corpus stops
    ``train`` before it trains or makes its output directory."""
    config_path, blob, metric, corpus, names = cli_inputs
    d = config_path.parent / f"cli{next(names)}"
    d.mkdir()
    if kind == "corpus":
        lines = corpus.split(b"\n")[:-1]
        i = data.draw(st.integers(0, len(lines) - 1))
        if mutation == "retype":
            rec = json.loads(lines[i])
            _retype_some_key(data, rec, skip=("description",))
            lines[i] = json.dumps(rec).encode()
        elif mutation == "truncate":  # cut inside line i, drop what follows
            lines = lines[:i] + [lines[i][:data.draw(st.integers(1, len(lines[i]) - 1))]]
        raw = b"\n".join(lines) + b"\n"
    elif kind == "checkpoint":
        head, rest = blob.split(b"\n", 1)
        if mutation == "retype":
            header = json.loads(head)
            _retype_some_key(data, data.draw(st.sampled_from([header, header["config"]])))
            head = json.dumps(header, sort_keys=True).encode()
        raw = head + b"\n" + rest
    else:
        obj = (json.loads(config_path.read_bytes()) if kind == "config" else dict(metric))
        if mutation == "retype":
            section = obj
            if kind == "config" and data.draw(st.booleans()):
                section = obj[data.draw(st.sampled_from(["model", "train", "synthetic"]))]
            _retype_some_key(data, section)
        raw = json.dumps(obj).encode()
    if mutation == "truncate" and kind != "corpus":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif mutation == "non-utf8":  # inside the checkpoint header, or anywhere in a text file
        end = raw.index(b"\n") if kind == "checkpoint" else len(raw)
        at = data.draw(st.integers(0, end))
        raw = raw[:at] + b"\xff" + raw[at:]
    path = d / {"config": "exp.json", "checkpoint": "model.ckpt",
                "metric": "metrics_MAF_seed1.json", "corpus": "corpus.jsonl"}[kind]
    path.write_bytes(raw)
    argv = {"config": ["train", "--config", str(path)],
            "checkpoint": ["evaluate", "--config", str(config_path), "--checkpoint", str(path)],
            "metric": ["report", "--out", str(d)],
            "corpus": ["train", "--dataset", str(path), "--seed", "1", "--out", str(d / "run")]}[kind]
    err = io.StringIO()
    with redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        if kind == "corpus":
            mp.setattr(experiments, "train", _never_train)
        code = main(argv)
    assert code == (2 if kind == "config" else 3), err.getvalue()
    assert err.getvalue().startswith("config error: " if code == 2 else "error: ")
    if kind == "corpus":
        assert err.getvalue().startswith("error: line "), err.getvalue()
        assert not (d / "run").exists()


# a corpus broken in each way the loader locates: (its lines from the valid
# corpus's lines, the start of the message)
_CORRUPT_CORPORA = {
    "not JSON": (lambda lines: [b"{broken\n", *lines], "error: line 1: record is not valid JSON"),
    "not UTF-8": (lambda lines: [lines[0], b"\xff" + lines[1]],
                  "error: line 2: record is not UTF-8 text"),
    "a repeated id": (lambda lines: [lines[0], lines[1], lines[0]],
                      "error: line 3: field 'id' violates rule 'unique'"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPT_CORPORA),
                         ids=lambda name: name.replace("a ", "").replace(" ", "-"))
@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "sweep-fusion-layer"])
def test_cli_corrupt_corpus_stops_before_any_work(cli_inputs, tmp_path, capsys, monkeypatch,
                                                  command, corruption):
    """Every subcommand that reads ``--dataset`` exits 3 on a corrupt
    corpus with the line's message, before it trains or scores a model or
    makes its output directory."""
    config_path, blob, _, corpus, _ = cli_inputs
    corrupt, message = _CORRUPT_CORPORA[corruption]
    path = tmp_path / "corrupt.jsonl"
    path.write_bytes(b"".join(corrupt(corpus.splitlines(keepends=True))))
    monkeypatch.setattr(experiments, "train", _never_train)
    monkeypatch.setattr(experiments, "evaluate_variant",
                        lambda *a, **k: pytest.fail("evaluate_variant was called"))
    out = tmp_path / "run"
    argv = [command, "--config", str(config_path), "--dataset", str(path), "--out", str(out)]
    if command == "evaluate":
        checkpoint = tmp_path / "model.ckpt"
        checkpoint.write_bytes(blob)
        argv += ["--checkpoint", str(checkpoint)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def _readme_flag_table() -> dict:
    """The flags each subcommand takes, from the README's ``| subcommand |
    flags |`` table: a row may name several subcommands."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flags |") + 2  # past the header and its rule
    takes = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
        commands, flags = (cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
        takes.update((command.strip(), tuple(flags.split())) for command in commands.split(","))
    return takes


_TAKES = _readme_flag_table()
_ALL_FLAGS = sorted(set(itertools.chain(*_TAKES.values())))


def test_readme_flag_table_is_the_cli():
    assert _TAKES == {name: flags for name, (_, flags) in experiments._COMMANDS.items()}


def test_readme_lists_the_keys_the_run_sets():
    """The backticked ``section.key`` names of the README's sentence that
    follows "(`experiments._BOUND`):" are ``_BOUND``'s keys, in order."""
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    sentence = text.split("(`experiments._BOUND`):", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`(\w+\.\w+)`", sentence) == [f"{s}.{k}" for s, k, _ in experiments._BOUND]


@pytest.mark.parametrize("command, flag", [(c, f) for c in _TAKES for f in _ALL_FLAGS
                                           if f not in _TAKES[c]])
def test_cli_flag_the_subcommand_does_not_take_exits_2(capsys, command, flag):
    """A flag the subcommand would ignore is a usage error: ``gen-synthetic
    --seed 5`` would write the same bytes as without it, and ``evaluate
    --variant`` would score the checkpoint's own variant."""
    argv = [command, flag, "1"] + (["--checkpoint", "x.ckpt"] if command == "evaluate" else [])
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_TAKES))
def test_cli_subcommand_parses_its_own_flags(command):
    args = _parser().parse_args([command, *itertools.chain(*((f, "1") for f in _TAKES[command]))])
    given = {name for name, value in vars(args).items() if value is not None}
    assert given == {"command", *(f.removeprefix("--") for f in _TAKES[command])}


def test_cli_gen_synthetic_needs_out(tmp_path, capsys):
    assert main(["gen-synthetic", "--config", str(write_config(tmp_path, out=None))]) == 2


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_report_round_trip(tmp_path, capsys):
    path = write_config(tmp_path, variants=["TextOnly"])
    assert main(["ablate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(path)]) == 0
    assert "TextOnly mean" in capsys.readouterr().out
