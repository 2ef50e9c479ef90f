"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this file with the thread-count variables set to 1 and
``src`` on the import path; run that instead. The run builds its inputs
from the seed, sets up (several times where set-up is cheap, reporting
the median), then repeats the workload's operation closed-loop for the
given number of seconds, checking every output. Human-readable lines come
first; the last line of standard output is the result JSON.

With ``--trace 1`` every public function of the layer modules is wrapped
(see ``tracing.py``) for set-up and timed phase alike, and the metrics are
the per-layer ones. End-to-end metrics come from untraced runs only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import maf
from maf import data, experiments, model, synthetic
from run import THREAD_VARS
from tracing import OP_ROOT, SETUP_ROOT, Tracer, layer_metrics

# The acceptance gap operating point.
GAP_MODEL = model.ModelConfig(d=32, ffn=64, d_c_audio=8, d_c_video=16, max_text_len=24)
GAP_TRAIN = model.TrainConfig(lr=5e-4, batch_size=16)
GAP_DATA = synthetic.SyntheticSpec(num_instances=600, speakers=6, actions=5, targets=6,
                                   frames=12, windows=8, noise=0.1, rich_templates=True)
HELD_OUT_SALT = 0x9E3779B9
HELD_OUT = 100
# Epochs per timed train() call on train_gap. A one-epoch call (38 steps)
# lets a run end close to its time limit and still hold over 100 steps.
TRAIN_GAP_EPOCHS = 1
# eval_gap set-up trains until every greedy output has its full 7 tokens;
# with fewer epochs, decode cost would track training quality.
EVAL_SETUP_EPOCHS = 6
# One epoch per ablate cell keeps a whole CLI call at 10 to 17 s on a 2-core machine.
ABLATE_EPOCHS = 1
ABLATE_VARIANTS = ("TextOnly", "Concat2", "MAF")
ABLATE_RECORDS = 750
# maf.data.split sizes: floor(0.8 N) train, floor(0.1 N) validation, the rest test
ABLATE_TRAIN = 8 * ABLATE_RECORDS // 10
ABLATE_TEST = ABLATE_RECORDS - ABLATE_TRAIN - ABLATE_RECORDS // 10
ACTION_FLOOR = 1.0 / GAP_DATA.actions  # text-only chance on the action word


def gap_spec(seed: int, **overrides) -> synthetic.SyntheticSpec:
    return replace(GAP_DATA, seed=seed, **overrides)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p}", float(np.percentile(values, p))
    return None


class Hook:
    """Replaces ``owner.attr`` with ``make(original)`` until ``remove``."""

    def __init__(self, owner, attr: str, make):
        self.owner, self.attr = owner, attr
        self.original = vars(owner)[attr]
        setattr(owner, attr, make(self.original))

    def remove(self) -> None:
        setattr(self.owner, self.attr, self.original)


class Workload:
    """Set-up, one operation, checks and metrics of one workload.

    ``attempted``/``failed`` count in the workload's own unit, of which one
    operation holds ``units_per_op``; an operation that raises or fails a
    check counts all of them as failed. ``op_ms`` holds one timing sample
    per step, pass or CLI call, each handling ``instances_per_op``
    instances. ``start``/``stop`` put in and take out the hooks that watch
    the timed phase.
    """

    name = ""
    unit = ""
    units_per_op = 1
    setup_repeats = 3
    op_boundary = ""
    instances_per_op = 0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.attempted = self.failed = 0
        self.op_ms: list[float] = []
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        self.problems.append(why)


class TrainGap(Workload):
    name, unit, setup_repeats = "train_gap", "steps", 5
    units_per_op = TRAIN_GAP_EPOCHS * math.ceil(GAP_DATA.num_instances / GAP_TRAIN.batch_size)
    op_boundary = "model.Adam.zero_grad"
    # every step but the last of an epoch is a full batch, so the median is one
    instances_per_op = GAP_TRAIN.batch_size

    def setup(self) -> None:
        self.instances = synthetic.generate(gap_spec(self.seed))

    def start(self) -> None:
        self._t0 = 0.0

        def on_zero_grad(orig):
            def zero_grad(opt):
                self._t0 = perf_counter()
                return orig(opt)
            return zero_grad

        def on_step(orig):
            def step(opt):
                out = orig(opt)
                self.op_ms.append(1000.0 * (perf_counter() - self._t0))
                return out
            return step

        self.hooks = [Hook(model.Adam, "zero_grad", on_zero_grad), Hook(model.Adam, "step", on_step)]

    def stop(self) -> None:
        for h in reversed(self.hooks):
            h.remove()

    def op(self) -> None:
        steps_before = len(self.op_ms)
        tm = model.train(self.instances, replace(GAP_MODEL, seed=self.seed),
                         replace(GAP_TRAIN, epochs=TRAIN_GAP_EPOCHS))
        steps = len(self.op_ms) - steps_before
        self.loss_last_epoch = tm.epoch_losses[-1]
        n = self.units_per_op
        if steps != n or len(tm.step_losses) != n:
            self.fail(n, f"{steps} optimizer steps and {len(tm.step_losses)} losses, expected {n}")
        elif not all(math.isfinite(x) for x in tm.step_losses):
            self.fail(n, "non-finite step loss")
        elif not tm.epoch_losses[-1] < tm.step_losses[0]:
            self.fail(n, f"last-epoch loss {tm.epoch_losses[-1]} not below first-step loss {tm.step_losses[0]}")
        self.digests.add(digest([repr(x) for x in tm.step_losses]))

    def named(self, p50_ms: float, per_s: float) -> dict:
        named = {"train_instances_per_s": (per_s, "1/s"), "train_step_ms.p50": (p50_ms, "ms")}
        tail = tail_percentile(self.op_ms)
        if tail:
            named[f"train_step_ms.{tail[0]}"] = (tail[1], "ms")
        named["train_loss_last_epoch"] = (self.loss_last_epoch, "nats")
        return named


class EvalGap(Workload):
    name, unit, setup_repeats = "eval_gap", "passes", 1
    op_boundary = "synthetic.evaluate_variant"
    instances_per_op = HELD_OUT

    def setup(self) -> None:
        train = synthetic.generate(gap_spec(self.seed))
        self.held_out = synthetic.generate(gap_spec(self.seed ^ HELD_OUT_SALT, num_instances=HELD_OUT))
        self.tm = model.train(train, replace(GAP_MODEL, seed=self.seed),
                              replace(GAP_TRAIN, epochs=EVAL_SETUP_EPOCHS))

    def start(self) -> None:
        self.rows: list[dict] = []
        self.decoded: list[list[int]] = []

        def capture(orig):
            def decode_greedy(*args, **kwargs):
                out = orig(*args, **kwargs)
                self.decoded.append(out)
                return out
            return decode_greedy

        self.hook = Hook(model, "decode_greedy", capture)

    def stop(self) -> None:
        self.hook.remove()

    def op(self) -> None:
        self.decoded = []
        t0 = perf_counter()
        row = synthetic.evaluate_variant(self.tm, self.held_out)
        self.op_ms.append(1000.0 * (perf_counter() - t0))
        self.rows.append(row)
        cap = self.tm.config.max_target_len
        if len(self.decoded) != len(self.held_out):
            self.fail(1, f"{len(self.decoded)} greedy decodes for {len(self.held_out)} instances")
        elif row["action_acc"] <= ACTION_FLOOR:
            self.fail(1, f"action accuracy {row['action_acc']} not above the {ACTION_FLOOR} floor")
        elif any(len(ids) >= cap for ids in self.decoded):
            self.fail(1, f"an output reached the {cap}-token cap without EOS")
        self.digests.add(digest([self.decoded, row]))

    def named(self, p50_ms: float, per_s: float) -> dict:
        return {
            "eval_instances_per_s": (per_s, "1/s"),
            "eval_pass_s.p50": (p50_ms / 1000.0, "s"),
            "eval_action_acc": (self.rows[-1]["action_acc"], "ratio"),
            "eval_exact_match": (self.rows[-1]["exact_match"], "ratio"),
            "setup_train_loss_last_epoch": (self.tm.epoch_losses[-1], "nats"),
        }


class AblateCli(Workload):
    name, unit, setup_repeats = "ablate_cli", "cells", 3
    units_per_op = len(ABLATE_VARIANTS)
    op_boundary = "model.train"
    # every training instance-step and every evaluated instance of one CLI call
    instances_per_op = len(ABLATE_VARIANTS) * (ABLATE_TRAIN * ABLATE_EPOCHS + ABLATE_TEST)

    def setup(self) -> None:
        self.corpus = self.work / "corpus.jsonl"
        data.save_corpus(synthetic.generate(gap_spec(self.seed, num_instances=ABLATE_RECORDS)), self.corpus)
        self.config = self.work / "ablate_config.json"
        self.config.write_text(json.dumps({
            "model": {k: getattr(GAP_MODEL, k) for k in ("d", "ffn", "d_c_audio", "d_c_video", "max_text_len")},
            "train": {"lr": GAP_TRAIN.lr, "batch_size": GAP_TRAIN.batch_size, "epochs": ABLATE_EPOCHS},
            "variants": list(ABLATE_VARIANTS),
        }), encoding="utf-8")

    def start(self) -> None:
        self.losses: list[float] = []
        self.out = self.work / "out"

        def capture(orig):
            def train(*args, **kwargs):
                tm = orig(*args, **kwargs)
                self.losses.append(tm.epoch_losses[-1])
                return tm
            return train

        self.hook = Hook(experiments, "train", capture)

    def stop(self) -> None:
        self.hook.remove()

    def op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["ablate", "--config", str(self.config), "--dataset", str(self.corpus),
                "--out", str(self.out), "--seed", str(self.seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = experiments.main(argv)
        self.op_ms.append(1000.0 * (perf_counter() - t0))
        if rc != 0:
            self.fail(self.units_per_op, f"maf ablate exited {rc}: {stderr.getvalue().strip()}")
            return
        files = {v: self.out / f"metrics_{v}_seed{self.seed}.json" for v in ABLATE_VARIANTS}
        if not (self.out / "report.txt").is_file():
            self.fail(self.units_per_op, "report.txt missing")
        else:
            missing = [v for v, f in files.items() if not f.is_file()]
            if missing:
                self.fail(len(missing), f"metric files missing for {missing}")
        self.digests.add(digest({v: f.read_text(encoding="utf-8") for v, f in files.items() if f.is_file()}))

    def named(self, p50_ms: float, per_s: float) -> dict:
        return {"ablate_wall_s": (p50_ms / 1000.0, "s"),
                "cells_train_loss_last_epoch": (statistics.fmean(self.losses[-len(ABLATE_VARIANTS):]), "nats")}


WORKLOADS = {w.name: w for w in (TrainGap, EvalGap, AblateCli)}


def machine_facts(caller_threads: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_as_given": caller_threads,
        "threads_in_run": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run(args) -> dict:
    work = Path(args.work) / args.workload
    work.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    root = tracer.root if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracer.install()

    setup_s = []
    for _ in range(w.setup_repeats):
        t0 = perf_counter()
        with root(SETUP_ROOT):
            w.setup()
        setup_s.append(perf_counter() - t0)

    if tracer:
        tracer.set_op_boundary(w.op_boundary)
    w.start()
    deadline = perf_counter() + args.seconds
    # Closed loop. Another operation starts only while the time left exceeds
    # half the mean operation, so a run ends within half an operation of its
    # time limit. The first failed operation ends the loop.
    op_s: list[float] = []
    while not w.failed:
        left = deadline - perf_counter()
        if left <= 0 or (op_s and left < statistics.fmean(op_s) / 2):
            break
        w.attempted += w.units_per_op
        t0 = perf_counter()
        try:
            with root(OP_ROOT):
                w.op()
        except Exception:
            w.fail(w.units_per_op, "operation raised:\n" + traceback.format_exc())
        op_s.append(perf_counter() - t0)
    w.stop()
    if tracer:
        tracer.uninstall()
    if len(w.digests) > 1:
        w.problems.append("operations at one seed produced different outputs")

    generic = named = {}
    if w.op_ms and not w.failed:
        p50 = statistics.median(w.op_ms)
        per_s = 1000.0 * w.instances_per_op / p50
        generic = {"instances_per_s": (per_s, "1/s"), "op_ms.p50": (p50, "ms")}
        named = w.named(p50, per_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {"setup_s": (statistics.median(setup_s), "s"), **named,
             "error_rate": (w.failed / max(w.attempted, 1), "ratio"), "peak_rss_mb": (rss_mb, "MB")}
    result = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": w.attempted, "failed": w.failed, "unit": w.unit,
        "problems": w.problems,
        "digest": sorted(w.digests),
        "named": named,
        "setup_s_samples": setup_s,
        "machine": machine_facts(json.loads(args.caller_threads)),
        "op_ms_p50": generic["op_ms.p50"][0] if generic else None,
    }
    if tracer:
        result["per_layer"] = layer_metrics(tracer)
        tracer.save(work / "spans.npz")
    else:
        result["end_to_end"] = {"setup_s": named["setup_s"], **generic, "peak_rss_mb": named["peak_rss_mb"]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for files the run writes")
    ap.add_argument("--caller-threads", default="{}", help="JSON of the caller's *_NUM_THREADS")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(maf.__file__).resolve().parent.parent != src:
        print(f"maf was imported from {maf.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = run(args)
    correct = not result["problems"] and result["attempted"] > 0
    metrics = result.get("per_layer") or result.get("end_to_end")

    print(f"workload {result['workload']}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"operations {result['attempted']} {result['unit']}, failed {result['failed']}")
    for name, (value, unit) in result["named"].items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
    for p in result["problems"]:
        print("problem: " + p, file=sys.stderr)
    (Path(args.work) / args.workload / f"result_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
