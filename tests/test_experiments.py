"""Experiment runner and CLI tests.

Every run here is a real (tiny) training job, so the suite doubles as an
end-to-end check: config file in, checkpoints, metric rows, and reports
out, byte-identical on repetition.
"""

import argparse
import io
import itertools
import json
from contextlib import redirect_stderr
from dataclasses import fields
from operator import delitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maf
from maf.data import load_and_validate
from maf.errors import ConfigError, ParseError
from maf.experiments import (
    ExperimentConfig,
    MetricRow,
    _parser,
    cmd_ablate,
    cmd_evaluate,
    cmd_gen_synthetic,
    cmd_report,
    cmd_stats,
    cmd_sweep_fusion_layer,
    cmd_train,
    config_hash,
    load_experiment_config,
    main,
)
from maf.model import ModelConfig, TrainConfig, load_checkpoint
from maf.synthetic import SyntheticSpec


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
        (dict(variants=["Fancy"]), "unknown variant"),
        (dict(seeds=[]), "seeds"),
        (dict(seeds=[1, 1]), "duplicates"),
        (dict(test_instances=0), "test_instances"),
        (dict(dataset="x.jsonl"), "exactly one"),
        (dict(seeds=[2, -1]), "seeds"),
        # training binds it to the vocabulary, so a set value would misstate the run
        (dict(model={"vocab_size": 7}), "'vocab_size'"),
        (dict(variants=["TextOnly", "MAF", "TextOnly"]), "variants contain duplicates"),
    ],
)
def test_experiment_validation(tmp_path, overrides, fragment):
    cfg = load(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


def test_data_source_is_required():
    cfg = ExperimentConfig()
    cfg.model.vocab_size = None
    with pytest.raises(ConfigError, match="exactly one"):
        cfg.validate()


def test_config_hash_is_stable_and_sensitive(tmp_path):
    a = load(tmp_path)
    b = load(tmp_path)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)
    b.seeds = [4]
    assert config_hash(a) != config_hash(b)
    # the output directory is a location, not an experiment identity
    c = load(tmp_path)
    c.out = "somewhere/else"
    assert config_hash(a) == config_hash(c)


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
    assert run_config["config_hash"] == config_hash(cfg)

    row = cmd_evaluate(cfg, str(ckpt))
    metrics_file = tmp_path / "run" / "metrics_MAF_seed1.json"
    assert metrics_file.exists()
    assert row["config_hash"] == config_hash(cfg)
    assert row["artifact_version"] == maf.__version__
    assert row["variant"] == "MAF"
    assert row["seed"] == 1
    assert list(row) == [f.name for f in fields(MetricRow)]
    assert 0.0 <= row["exact_match"] <= 1.0
    assert json.loads(metrics_file.read_text(encoding="utf-8")) == row


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


def test_corpus_runs_write_the_same_bytes_whatever_the_path_spelling(tmp_path, monkeypatch, capsys):
    """The corpus enters the config hash and ``run_config.json`` by its
    bytes, so no file that ``maf ablate`` or ``maf train`` writes for one
    experiment depends on how its corpus path is written."""
    path = write_config(tmp_path)
    assert main(["gen-synthetic", "--config", str(path), "--out", str(tmp_path / "corpus.jsonl")]) == 0
    monkeypatch.chdir(tmp_path)
    spellings = ["corpus.jsonl", "./corpus.jsonl", str(tmp_path / "corpus.jsonl")]
    written = {"ablate": ["loss_MAF_seed1.csv", "metrics_MAF_seed1.json", "report.csv", "report.txt"],
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


def test_gen_synthetic_and_stats(tmp_path):
    cfg = load(tmp_path)
    corpus_file = tmp_path / "syn.jsonl"
    count = cmd_gen_synthetic(cfg, str(corpus_file))
    assert count == 16
    corpus = load_and_validate(corpus_file)
    assert len(corpus) == 16
    text = cmd_stats(str(corpus_file))
    assert "dialogues" in text
    assert "utterances-per-dialogue histogram:" in text


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
    again_text, again_csv = cmd_report(cfg)
    assert (text, csv) == (again_text, again_csv)


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
        (dict(action_acc=1.5), "'action_acc' must lie in [0, 1], got 1.5"),
        # the layout before the scores had one name each
        (dict(meteor=None), "unknown key 'meteor'"),
        (dict(target_acc=DROP, target_word_acc=0.5), "unknown key 'target_word_acc'"),
        # Python's JSON parser recurses once per level
        pytest.param("[" * 100_000, "nested too deeply", id="nested-100000-deep"),
    ],
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
    assert "config error: variants contain duplicates" in capsys.readouterr().err
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
        (dict(train={"grad_clip": float("inf")}), "grad_clip"),
        # an int is a float only if it converts to a finite one
        (dict(train={"lr": 10**400}), "lr"),
        (dict(train={"grad_clip": 10**400}), "grad_clip"),
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


@pytest.mark.parametrize("section, field, fragment", [
    ("model", "d", "the model would allocate"),
    ("model", "ffn", "the model would allocate"),
    ("model", "encoder_layers", "the model would allocate"),
    ("model", "max_target_len", "the model would allocate"),
    ("synthetic", "num_instances", "the corpus would take"),
    ("synthetic", "frames", "the corpus would take"),
    ("synthetic", "windows", "the corpus would take"),
])
def test_cli_oversized_config_exits_2_before_allocating(tmp_path, capsys, section, field, fragment):
    """A size whose allocation would pass its limit is a config error,
    raised before data generation or parameter init tries to allocate."""
    raw = config_dict(tmp_path / "run")
    raw[section][field] = 10**15
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err


def test_cli_removed_bleu_smoothing_key_exits_2(tmp_path, capsys):
    """Nothing read this knob, so it is no longer a config key."""
    path = write_config(tmp_path, bleu_smoothing=False)
    assert main(["train", "--config", str(path)]) == 2
    assert "unknown key 'bleu_smoothing'" in capsys.readouterr().err


def test_cli_runtime_errors_exit_3(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["evaluate", "--config", str(path), "--checkpoint",
                 str(tmp_path / "missing.ckpt")])
    assert code == 3
    assert "error:" in capsys.readouterr().err

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("{broken\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(corrupt)]) == 3


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
    ],
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
    """``maf train``, ``evaluate``, ``report`` and ``stats`` on a broken
    config, checkpoint, metric or corpus file: a retyped field, a file cut
    short inside its JSON, or a byte that is not UTF-8. Every mutant is
    invalid by construction, and the CLI exits 2 for a config and 3 for
    the rest, with a one-line message and no traceback."""
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
            "corpus": ["stats", "--dataset", str(path)]}[kind]
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert code == (2 if kind == "config" else 3), err.getvalue()
    assert err.getvalue().startswith("config error: " if code == 2 else "error: ")


# the flags each subcommand takes: the CLI table of the README
_GRID_FLAGS = ("--config", "--seed", "--out", "--variant", "--dataset")
_TAKES = {
    "train": _GRID_FLAGS,
    "evaluate": ("--config", "--seed", "--out", "--dataset", "--checkpoint"),
    "ablate": _GRID_FLAGS,
    "sweep-fusion-layer": _GRID_FLAGS,
    "gen-synthetic": ("--config", "--out"),
    "stats": ("--config", "--dataset"),
    "report": ("--config", "--out"),
}
_ALL_FLAGS = sorted(set(itertools.chain(*_TAKES.values())))


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


def test_cli_stats_needs_dataset(tmp_path, capsys):
    assert main(["stats"]) == 2
    assert main(["gen-synthetic", "--config", str(write_config(tmp_path, out=None))]) == 2


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_stats_renders(tmp_path, capsys):
    path = write_config(tmp_path)
    corpus_file = tmp_path / "syn.jsonl"
    assert main(["gen-synthetic", "--config", str(path), "--out", str(corpus_file)]) == 0
    capsys.readouterr()
    assert main(["stats", "--dataset", str(corpus_file)]) == 0
    assert "top source speakers:" in capsys.readouterr().out


def test_cli_report_round_trip(tmp_path, capsys):
    path = write_config(tmp_path, variants=["TextOnly"])
    assert main(["ablate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(path)]) == 0
    assert "TextOnly mean" in capsys.readouterr().out
