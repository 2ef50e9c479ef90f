"""Experiment runner and command-line interface.

Subcommands: train, evaluate, ablate, sweep-fusion-layer, gen-synthetic,
report. All state flows through the JSON config file and flags;
--seed and --variant narrow the config's grids to a single cell, and a
subcommand takes only the flags it reads (``_COMMANDS``). Exit codes: 0
success, 2 configuration error or unknown flag, 3 runtime error
(divergence, missing or malformed files), 130 interrupted (Ctrl-C).

The dataclasses are the only schema of the JSON files: a config's keys
are the fields of ``ExperimentConfig`` (its sections those of
``ModelConfig``, ``TrainConfig`` and ``SyntheticSpec``), a metric file's
those of ``MetricRow``, whose scores are ``metrics.SCORES``, and a corpus
line's those of ``data.DialogueInstance``. Configs and metric files are
read by ``model._build`` and checked field by field by
``model._check_fields``, each value's type and then the rule on its
field; a ``validate`` adds the rules that read two fields or more, and
refuses the keys the run sets itself (``_BOUND``): ``model.train`` reads
the vocabulary and the raw audio and video widths from its data, and each
grid cell sets the variant and seeds. The report ends with the fusion
gap: each variant's action accuracy over TextOnly's.

Every metric row embeds the resolved config hash (for ``evaluate``, with
the checkpoint's bytes), the seed, and the package version. Output files
never contain timestamps, so re-running a command with the same config
and seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import reprlib
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, make_dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .data import instances_for, load_and_validate, read_json_object, save_corpus, split
from .errors import ConfigError, MafError, ParseError
from .metrics import SCORES, MetricReport
from .model import (_FORMS, VARIANTS, ModelConfig, TrainConfig, _build, _check_fields, _ruled,
                    load_checkpoint, save_checkpoint, train)
from .presets import TEST_SEED_SALT
from .synthetic import SyntheticSpec, evaluate_variant, generate

__all__ = [
    "ExperimentConfig",
    "MetricRow",
    "load_experiment_config",
    "cmd_train",
    "cmd_evaluate",
    "cmd_ablate",
    "cmd_sweep_fusion_layer",
    "cmd_gen_synthetic",
    "cmd_report",
    "main",
]


# each key the run sets itself, and where from: a config leaves it out, and so does the hash
_BOUND = (("model", "vocab_size", "the vocabulary"),
          ("model", "audio_raw_dim", "the training data's audio width"),
          ("model", "video_raw_dim", "the training data's video width"),
          ("model", "variant", "each entry of 'variants'"), ("model", "seed", "each entry of 'seeds'"),
          ("synthetic", "seed", "each entry of 'seeds'"))


@dataclass
class ExperimentConfig:
    """The JSON config file, one key per field; see ``model._build``."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: str | None = None
    synthetic: SyntheticSpec | None = None
    test_instances: int = _ruled(100, lo=1)
    variants: list[str] = _ruled(["MAF"], among=VARIANTS, distinct=True)
    seeds: list[int] = _ruled([1, 2, 3], lo=0, distinct=True)
    out: str | None = None

    def resolved(self) -> dict:
        """Everything that identifies the experiment: all but ``out`` and ``_BOUND``."""
        d = asdict(self)
        del d["out"]
        for section, key, _ in _BOUND:
            (d[section] or {}).pop(key, None)
        return d

    def validate(self) -> None:
        _check_fields(self)
        self.model.validate()
        self.train.validate()
        if self.synthetic is not None:
            self.synthetic.validate()
        for section, key, source in _BOUND:
            part = getattr(self, section)
            if part is not None and getattr(part, key) != getattr(type(part), key):  # its default
                raise ConfigError(f"'{key}' in config section '{section}' must be left out: the run "
                                  f"sets it from {source}, got {reprlib.repr(getattr(part, key))}")
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of 'dataset' and 'synthetic' must be configured")


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _identity(cfg: ExperimentConfig, checkpoint: str | None = None) -> tuple[str, dict]:
    """What identifies the experiment, and its hash. A corpus, and the
    checkpoint that ``evaluate`` scores, enter by the SHA-256 of their
    bytes, not by their paths, so one experiment reads and hashes alike
    from any directory."""
    resolved = cfg.resolved()
    if cfg.dataset is not None:
        resolved["dataset"] = _file_sha256(cfg.dataset)
    if checkpoint is not None:
        resolved["checkpoint"] = _file_sha256(checkpoint)
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12], resolved


def load_experiment_config(path: str | None, args: argparse.Namespace | None = None) -> ExperimentConfig:
    """Read the JSON config file and apply flag overrides, then check the
    top-level fields' types and rules (``model._check_fields``), since
    report and gen-synthetic never call ``validate``: an out-of-range
    ``seeds``, ``variants`` or ``test_instances``, or an empty or repeated
    list, is refused here. A flag given, even as an empty value, replaces
    what the config says."""
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file '{path}' not found")
        try:
            raw = read_json_object(p.read_bytes(), f"config file '{path}'", ConfigError)
        except OSError as exc:  # a directory, a file without read permission
            raise ConfigError(f"config file '{path}' cannot be read: {exc.strerror}") from None
    cfg = _build(ExperimentConfig, raw)
    if args is not None:
        if getattr(args, "dataset", None) is not None:
            cfg.dataset = args.dataset
            cfg.synthetic = None
        if getattr(args, "seed", None) is not None:
            cfg.seeds = [args.seed]
        if getattr(args, "variant", None) is not None:
            cfg.variants = [args.variant]
        if getattr(args, "out", None) is not None:
            cfg.out = args.out
    _check_fields(cfg)
    return cfg


def _out_path(cfg: ExperimentConfig) -> Path:
    """The output directory, not made yet. It, or else its nearest existing
    ancestor, must be a directory, so an ``--out`` no run could write to is
    refused before any work."""
    if not cfg.out:
        raise ConfigError("an output directory is required (--out or config 'out')")
    out = Path(cfg.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"'{out}' cannot be an output directory: '{existing}' is not a directory")
    return out


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, made if missing. A run makes it just before its
    first write, so one that fails loading or training leaves none."""
    out = _out_path(cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{out}': {exc}") from None
    return out


def _instances(cfg: ExperimentConfig, corpus: list | None, seed: int, held_out: bool) -> list:
    """One seed's training instances, or its held-out ones: split from
    ``corpus``, the ``dataset`` file that the caller reads once, or else
    generated from the ``synthetic`` spec."""
    if corpus is not None:
        ids = split(corpus, seed)
        return instances_for(corpus, ids.test if held_out else ids.train)
    return generate(replace(cfg.synthetic, seed=seed ^ TEST_SEED_SALT, num_instances=cfg.test_instances)
                    if held_out else replace(cfg.synthetic, seed=seed))


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _blas() -> dict | None:
    """The name and version of the BLAS that NumPy was built with; None on a
    NumPy before 1.26, whose ``show_config`` returns nothing."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # no ``mode`` argument
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_run_config(out: Path, digest: str, resolved: dict) -> None:
    """``run_config.json``: the config hash and the resolved config it
    hashes (``_identity``), then what the hash leaves out: the thread
    variables as the process saw them, the NumPy version and its BLAS. Past
    the gap config, the BLAS thread count decides the GEMMs' bytes."""
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    _dump_json(out / "run_config.json", {"config_hash": digest, **resolved, "threads": threads,
                                         "numpy_version": np.__version__, "blas": _blas()})


# string annotations, as in every other dataclass here, so ``_check_fields`` names types alike
MetricRow = make_dataclass("MetricRow", [
    ("artifact_version", "str"), ("config_hash", "str"), ("variant", "str"),
    ("seed", "int", _ruled(lo=0)), ("fusion_layer_index", "int", _ruled(lo=1)),
    *((name, "float", _ruled(lo=0.0, hi=1.0)) for name in SCORES),
], namespace={"__module__": __name__, "__doc__": """One metric file, one key per field: the
    run, then the ``metrics.SCORES`` of ``synthetic.evaluate_variant`` as fractions. ``maf
    report`` reads it back."""})


def _metric_row(digest: str, variant: str, seed: int, layer: int, scores: dict) -> dict:
    return asdict(MetricRow(__version__, digest, variant, seed, layer, **scores))


def _write_loss_log(path: Path, step_losses: Sequence[float]) -> None:
    lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(step_losses, start=1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _single_cell(cfg: ExperimentConfig, what: str) -> tuple[str, int]:
    if len(cfg.variants) != 1 or len(cfg.seeds) != 1:
        raise ConfigError(f"{what} runs one variant and one seed; narrow the config "
                          f"with --variant/--seed (got {cfg.variants} x {cfg.seeds})")
    return cfg.variants[0], cfg.seeds[0]


def _run_grid(cfg: ExperimentConfig, cells: Sequence[tuple[str, int, str]]) -> list[dict]:
    """Train and score every (variant, fusion layer, file tag) cell at every
    seed; write each cell's metric row and loss log, then ``run_config.json``
    and the report."""
    _out_path(cfg)  # a missing --out is refused before any work
    digest, resolved = _identity(cfg)
    corpus = load_and_validate(cfg.dataset) if cfg.dataset is not None else None
    rows = []
    for seed in cfg.seeds:
        train_insts = _instances(cfg, corpus, seed, held_out=False)
        test_insts = _instances(cfg, corpus, seed, held_out=True)
        for variant, layer, tag in cells:
            mcfg = replace(cfg.model, variant=variant, seed=seed, fusion_layer_index=layer)
            tm = train(train_insts, mcfg, cfg.train)
            row = _metric_row(digest, variant, seed, layer, evaluate_variant(tm, test_insts))
            out = _out_dir(cfg)
            _dump_json(out / f"metrics_{tag}_seed{seed}.json", row)
            _write_loss_log(out / f"loss_{tag}_seed{seed}.csv", tm.step_losses)
            rows.append(row)
    _write_run_config(_out_dir(cfg), digest, resolved)
    cmd_report(cfg)
    return rows


# ---- subcommands ---------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig) -> dict:
    """Train one (variant, seed) cell; write checkpoint + loss log."""
    cfg.validate()
    variant, seed = _single_cell(cfg, "train")
    _out_path(cfg)  # a missing --out is refused before any work
    corpus = load_and_validate(cfg.dataset) if cfg.dataset is not None else None
    tm = train(_instances(cfg, corpus, seed, held_out=False),
               replace(cfg.model, variant=variant, seed=seed), cfg.train)
    out = _out_dir(cfg)
    ckpt = out / f"checkpoint_{variant}_seed{seed}.ckpt"
    save_checkpoint(tm, ckpt)
    loss_log = out / f"loss_{variant}_seed{seed}.csv"
    _write_loss_log(loss_log, tm.step_losses)
    _write_run_config(out, *_identity(cfg))
    return {"checkpoint": str(ckpt), "loss_log": str(loss_log),
            "final_loss": tm.epoch_losses[-1]}


def cmd_evaluate(cfg: ExperimentConfig, checkpoint: str) -> dict:
    """Score an existing checkpoint on the held-out data for one seed. The
    model is the checkpoint's, and the data must fit its raw widths; the
    config's ``model`` section is validated but not used. The row's hash
    covers the checkpoint's bytes."""
    cfg.validate()
    if len(cfg.seeds) != 1:
        raise ConfigError(f"evaluate uses one seed; narrow with --seed (got {cfg.seeds})")
    seed = cfg.seeds[0]
    _out_path(cfg)  # a missing --out is refused before any work
    tm = load_checkpoint(checkpoint)
    mcfg = tm.config
    corpus = load_and_validate(cfg.dataset) if cfg.dataset is not None else None
    scores = evaluate_variant(tm, _instances(cfg, corpus, seed, held_out=True))
    row = _metric_row(_identity(cfg, checkpoint)[0], mcfg.variant, seed, mcfg.fusion_layer_index,
                      scores)
    _dump_json(_out_dir(cfg) / f"metrics_{mcfg.variant}_seed{seed}.json", row)
    return row


def cmd_ablate(cfg: ExperimentConfig) -> list[dict]:
    """Train and evaluate every configured variant under identical seeds."""
    cfg.validate()
    return _run_grid(cfg, [(v, cfg.model.fusion_layer_index, v) for v in cfg.variants])


def cmd_sweep_fusion_layer(cfg: ExperimentConfig) -> list[dict]:
    """Train the configured variant with the adapter at every encoder layer."""
    cfg.validate()
    if len(cfg.variants) != 1:
        raise ConfigError(f"sweep-fusion-layer uses one variant; narrow with --variant (got {cfg.variants})")
    variant = cfg.variants[0]
    if _FORMS[variant].merge is None:
        raise ConfigError(f"sweep-fusion-layer: {variant} has no adapter, so the fusion layer "
                          f"changes nothing it runs and every layer would train the same model")
    return _run_grid(cfg, [(variant, layer, f"{variant}_layer{layer}")
                           for layer in range(1, cfg.model.encoder_layers + 1)])


def cmd_gen_synthetic(cfg: ExperimentConfig, out_file: str) -> int:
    """Write a synthetic corpus in the standard dataset file format."""
    if cfg.synthetic is None:
        raise ConfigError("gen-synthetic needs a 'synthetic' config section")
    cfg.synthetic.validate()
    instances = generate(cfg.synthetic)
    save_corpus(instances, out_file)
    return len(instances)


def _mean_std(values: list[float]) -> str:
    n = len(values)
    mean = sum(values) / n
    std = (sum((v - mean) ** 2 for v in values) / (n - 1)) ** 0.5 if n > 1 else 0.0
    return f"{100.0 * mean:.2f}±{100.0 * std:.2f}"


def _read_metric_row(path: Path) -> MetricRow:
    """One metric file, checked against ``MetricRow``: every field present,
    no other key, each value of its field's type, every score in [0, 1]."""
    what = f"metric file '{path}'"
    raw = read_json_object(path.read_bytes(), what, ParseError)
    try:
        row = _build(MetricRow, raw, complete=True)
        _check_fields(row)
    except ConfigError as exc:  # the bad input is the file, not the run's config
        raise ParseError(f"{what}: {exc}") from None
    return row


def cmd_report(cfg: ExperimentConfig) -> tuple[str, str]:
    """Aggregate metric files under the run directory into text and CSV
    tables: one row per run, then a mean ± sample-std row per group. Under
    the text table, each distinct ``config_hash`` with its row count; the
    header says the host stack, data and training are held fixed only when
    one hash covers every row. The text report ends with the fusion gap:
    each group's seed-mean action accuracy minus TextOnly's at the same
    fusion layer (no TextOnly group, no gap lines). Re-rendering the same
    directory is byte-identical."""
    out = _out_path(cfg)
    files = sorted(out.glob("metrics_*.json"))  # none in a missing directory
    if not files:
        raise ConfigError(f"nothing to report: no metrics_*.json files in '{out}'")
    rows = [_read_metric_row(f) for f in files]
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.variant, row.fusion_layer_index), []).append(row)
    hashes = Counter(row.config_hash for row in rows)

    sweep = len({k[1] for k in groups}) > 1
    report = MetricReport()
    action_means: dict = {}
    for key in sorted(groups):
        variant, layer = key
        label = f"{variant}@L{layer}" if sweep else variant
        members = sorted(groups[key], key=lambda r: r.seed)
        for row in members:
            report.add_row(f"{label} s{row.seed}", {k: getattr(row, k) for k in SCORES})
        report.add_row(f"{label} mean",
                       {k: _mean_std([getattr(r, k) for r in members]) for k in SCORES})
        action_means[key] = (label, sum(r.action_acc for r in members) / len(members))

    if len(hashes) == 1:
        header = ("# fusion-mechanism comparison: rows differ only in the fusion pathway "
                  "(and seed); host stack, data, and training are held fixed\n")
    else:
        header = f"# fusion-mechanism comparison: the rows pool {len(hashes)} configs, listed below\n"
    text = header + report.to_text() + "\n" + "".join(
        f"config {h}: {n} {'row' if n == 1 else 'rows'}\n" for h, n in sorted(hashes.items()))
    gaps = []
    for (variant, layer), (label, mean) in action_means.items():
        floor = action_means.get(("TextOnly", layer))
        if variant != "TextOnly" and floor is not None:
            gaps.append(f"action gap over TextOnly, {label}: {100.0 * (mean - floor[1]):+.2f} points")
    if gaps:
        text += "\n" + "\n".join(gaps) + "\n"
    csv = report.to_csv()
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "report.csv").write_text(csv, encoding="utf-8")
    return text, csv


# ---- CLI -------------------------------------------------------------------------


_FLAGS = {
    "--config": dict(help="JSON experiment config file"),
    "--seed": dict(type=int, help="replace the config's seed list with one seed"),
    "--out": dict(help="output directory (or file for gen-synthetic)"),
    "--variant": dict(help="replace the config's variant list with one variant"),
    "--dataset": dict(help="dataset file; overrides the config's data source"),
    "--checkpoint": dict(required=True, help="model checkpoint to score"),
}
_GRID_FLAGS = ("--config", "--seed", "--out", "--variant", "--dataset")
# each subcommand takes only the flags it reads; any other is a usage error
_COMMANDS = {
    "train": ("train one variant/seed; writes checkpoint and loss log", _GRID_FLAGS),
    "evaluate": ("score a checkpoint on held-out data",
                 ("--config", "--seed", "--out", "--dataset", "--checkpoint")),
    "ablate": ("train and evaluate every configured variant and seed", _GRID_FLAGS),
    "sweep-fusion-layer": ("move the adapter across encoder layers", _GRID_FLAGS),
    "gen-synthetic": ("write a synthetic corpus file", ("--config", "--out")),
    "report": ("aggregate metric files in the output directory", ("--config", "--out")),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maf", description="train, ablate and report on multimodal fusion variants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config, args)
        if args.command == "train":
            result = cmd_train(cfg)
            print(f"checkpoint: {result['checkpoint']}")
            print(f"loss log:   {result['loss_log']}")
            print(f"final epoch loss: {result['final_loss']:.4f}")
        elif args.command == "evaluate":
            row = cmd_evaluate(cfg, args.checkpoint)
            print(json.dumps(row, sort_keys=True, indent=2))
        elif args.command in ("ablate", "sweep-fusion-layer"):
            rows = (cmd_ablate if args.command == "ablate" else cmd_sweep_fusion_layer)(cfg)
            print(f"wrote {len(rows)} metric rows to {cfg.out}")
            print((Path(cfg.out) / "report.txt").read_text(encoding="utf-8"))
        elif args.command == "gen-synthetic":
            if not cfg.out:  # --out is already in cfg.out
                raise ConfigError("gen-synthetic needs --out FILE")
            count = cmd_gen_synthetic(cfg, cfg.out)
            print(f"wrote {count} instances to {cfg.out}")
        elif args.command == "report":
            text, _ = cmd_report(cfg)
            print(text, end="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MafError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:  # Ctrl-C
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
