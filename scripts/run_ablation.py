#!/usr/bin/env python3
"""Train and score every fusion variant at several seeds via the CLI.

Turns the gap operating point in `maf.presets` into an experiment config,
writes it into the output directory (so the run is reproducible with
`maf ablate --config <out>/ablation_config.json`) and runs `maf ablate`,
which prints the metric table and each variant's action-accuracy gap over
TextOnly. Expect roughly six minutes for the default 5 variants x 3 seeds.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from maf.experiments import main as maf_main
from maf.presets import GAP_MODEL, GAP_SEEDS, GAP_SPEC, GAP_TRAIN, GAP_VARIANTS

CONFIG = {
    "model": asdict(GAP_MODEL),
    "train": asdict(GAP_TRAIN),
    "synthetic": asdict(GAP_SPEC),
    "test_instances": 100,
    "variants": list(GAP_VARIANTS),
    "seeds": list(GAP_SEEDS),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/ablation", help="output directory")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "ablation_config.json"
    cfg_path.write_text(json.dumps({**CONFIG, "out": str(out)}, indent=2) + "\n",
                        encoding="utf-8")
    return maf_main(["ablate", "--config", str(cfg_path)])


if __name__ == "__main__":
    sys.exit(main())
