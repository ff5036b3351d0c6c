import json
import re
from pathlib import Path

import pytest

from mvgcn.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from mvgcn.errors import ConfigError


class TestValidate:
    def test_defaults_pass(self):
        cfg = validate_config(RunConfig())
        assert cfg.k == 10
        assert cfg.epochs == 300

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("k", 0),
            ("metric", "manhattan"),
            ("gamma", 0.0),
            ("gamma", -2.0),
            ("tau", 0.0),
            ("hidden_dim", 0),
            ("lr", 0.0),
            ("epochs", 0),
            ("label_ratio", 0.0),
            ("label_ratio", 1.0),
            ("repeats", 0),
            ("layers", 0),
            ("dns_mode", "topk"),
        ],
    )
    def test_bad_value_names_the_field(self, field, bad):
        cfg = RunConfig(**{field: bad})
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg)


class TestFromDict:
    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"k": 5, "tau": 0.2})
        assert cfg.k == 5
        assert cfg.tau == 0.2
        assert cfg.lr == RunConfig().lr

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict({"learning_rate": 0.1})

    def test_round_trip(self):
        cfg = RunConfig(k=7, metric="cosine", repeats=2)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_validation_applies(self):
        with pytest.raises(ConfigError, match="epochs"):
            config_from_dict({"epochs": -3})


class TestLoadConfig:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k": 4, "seed": 9}))
        cfg = load_config(path)
        assert cfg.k == 4
        assert cfg.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)


class TestReadme:
    def test_config_block_lists_every_field_at_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL)
        assert block, "README has no ```json config block"
        assert json.loads(block.group(1)) == config_to_dict(RunConfig())
