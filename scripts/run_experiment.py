#!/usr/bin/env python3
"""Run a preset fusion experiment through the CLI.

    python3 scripts/run_experiment.py ablate              # every variant x seed, gaps over TextOnly
    python3 scripts/run_experiment.py sweep-fusion-layer  # MAF's adapter before each of 3 layers

The argument is the `maf` subcommand to run on its config, built from the
gap operating point in `maf.presets`. The config is written to
`<out>/<command>_config.json`, so `maf <command> --config` on it reruns
the experiment. The ablation takes roughly six minutes.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from maf.experiments import main as maf_main
from maf.presets import GAP_MODEL, GAP_SEEDS, GAP_SPEC, GAP_TRAIN, GAP_VARIANTS

_SHARED = {"train": asdict(GAP_TRAIN), "synthetic": asdict(GAP_SPEC), "test_instances": 100,
           "seeds": list(GAP_SEEDS)}
CONFIGS = {
    "ablate": {**_SHARED, "model": asdict(GAP_MODEL), "variants": list(GAP_VARIANTS)},
    "sweep-fusion-layer": {**_SHARED, "model": asdict(replace(GAP_MODEL, encoder_layers=3)),
                           "variants": ["MAF"]},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=CONFIGS, help="the maf subcommand to run")
    ap.add_argument("--out", help="output directory (default: runs/<command>)")
    args = ap.parse_args()

    out = Path(args.out or f"runs/{args.command}")
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / f"{args.command}_config.json"
    cfg_path.write_text(json.dumps({**CONFIGS[args.command], "out": str(out)}, indent=2) + "\n",
                        encoding="utf-8")
    return maf_main([args.command, "--config", str(cfg_path)])


if __name__ == "__main__":
    sys.exit(main())
