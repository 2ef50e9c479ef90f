"""The experiment scripts build their configs from ``maf.presets``; each
must load and validate the way ``maf`` reads it from the written file."""

import importlib.util
import json
from pathlib import Path

import pytest

from maf.experiments import load_experiment_config
from maf.presets import GAP_VARIANTS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["run_ablation", "run_layer_sweep"])
def test_script_config_loads_and_validates(tmp_path, script):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**module.CONFIG, "out": str(tmp_path / "run")}), encoding="utf-8")
    cfg = load_experiment_config(str(path))
    cfg.validate()
    assert cfg.model.vocab_size is None
    if script == "run_ablation":
        assert cfg.variants == list(GAP_VARIANTS)
