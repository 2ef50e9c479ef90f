"""The experiment script builds its configs from ``maf.presets``; each
must load and validate the way ``maf`` reads it from the written file."""

import importlib.util
import json
from pathlib import Path

import pytest

from maf.experiments import _parser, load_experiment_config
from maf.presets import GAP_VARIANTS

_SPEC = importlib.util.spec_from_file_location(
    "run_experiment", Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py")
script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(script)


@pytest.mark.parametrize("command", list(script.CONFIGS))
def test_script_config_loads_and_validates(tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**script.CONFIGS[command], "out": str(tmp_path / "run")}),
                    encoding="utf-8")
    assert _parser().parse_args([command, "--config", str(path)]).command == command
    cfg = load_experiment_config(str(path))
    cfg.validate()
    assert cfg.model.vocab_size is None
    if command == "ablate":
        assert cfg.variants == list(GAP_VARIANTS)
