#!/usr/bin/env python3
"""Move the fusion adapter across encoder layers and compare.

Runs the gated variant with the adapter placed before each of the three
encoder layers, three seeds per placement, and prints the aggregated
report. Early placement lets later self-attention layers mix the injected
modality signal; this sweep quantifies that on the synthetic task.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from maf.experiments import main as maf_main
from maf.presets import GAP_MODEL, GAP_SEEDS, GAP_SPEC, GAP_TRAIN

CONFIG = {
    "model": asdict(replace(GAP_MODEL, encoder_layers=3)),
    "train": asdict(GAP_TRAIN),
    "synthetic": asdict(GAP_SPEC),
    "test_instances": 100,
    "variants": ["MAF"],
    "seeds": list(GAP_SEEDS),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/layer_sweep", help="output directory")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "sweep_config.json"
    cfg_path.write_text(json.dumps({**CONFIG, "out": str(out)}, indent=2) + "\n",
                        encoding="utf-8")
    return maf_main(["sweep-fusion-layer", "--config", str(cfg_path)])


if __name__ == "__main__":
    sys.exit(main())
