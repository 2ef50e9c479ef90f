#!/usr/bin/env python3
"""Measure how much the fused model beats a text-only baseline.

Trains the full variant roster (TextOnly, MAF, Concat2, DPA, NoGIF) on the
synthetic sarcasm-explanation task, where the action word is only audible
and the target only visible, then prints one gap report per seed plus a
seed-mean summary. About two minutes per seed on one CPU core.

The same cells can be produced through the CLI (`maf ablate`); this script
exists for the margin-over-baseline view that the plain metric table does
not show.
"""

import argparse
import time
from dataclasses import replace

from maf.model import train
from maf.presets import GAP_MODEL, GAP_SEEDS, GAP_SPEC, GAP_TRAIN, TEST_SEED_SALT
from maf.synthetic import GAP_VARIANTS, evaluate_gap, generate

TEST_INSTANCES = 100


def run_seed(seed: int):
    train_set = generate(replace(GAP_SPEC, seed=seed))
    test_set = generate(replace(GAP_SPEC, seed=seed ^ TEST_SEED_SALT,
                                num_instances=TEST_INSTANCES))
    trained = {}
    for variant in GAP_VARIANTS:
        t0 = time.monotonic()
        trained[variant] = train(train_set, replace(GAP_MODEL, variant=variant, seed=seed),
                                 GAP_TRAIN)
        print(f"  trained {variant:<8} in {time.monotonic() - t0:.0f}s")
    return evaluate_gap(trained, test_set)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(GAP_SEEDS))
    args = ap.parse_args()

    action_acc = {v: [] for v in GAP_VARIANTS}
    for seed in args.seeds:
        print(f"\n=== seed {seed} ===")
        report = run_seed(seed)
        print(report.render())
        for variant, row in report.rows.items():
            action_acc[variant].append(row["action_acc"])

    print(f"\n=== seed-mean action accuracy over seeds {args.seeds} ===")
    floor = sum(action_acc["TextOnly"]) / len(args.seeds)
    for variant in GAP_VARIANTS:
        mean = sum(action_acc[variant]) / len(args.seeds)
        margin = "" if variant == "TextOnly" else f"  ({100 * (mean - floor):+.1f} over TextOnly)"
        print(f"  {variant:<8} {100 * mean:6.2f}%{margin}")


if __name__ == "__main__":
    main()
