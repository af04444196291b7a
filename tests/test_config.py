"""Config file parsing, validation messages, and variant presets."""

import pytest

import condada.conditioning as C
from condada.config import ExperimentConfig, config_from_pairs, load_config, parse_config_lines
from condada.errors import ConfigError
from condada.runner import apply_variant


def test_parse_lines_with_comments_and_blanks():
    pairs = parse_config_lines([
        "# a comment",
        "",
        "strategy = multilinear",
        "schedule.eta0 = 0.02",
        "dataset.rotation_deg=35",
    ])
    assert pairs == {"strategy": "multilinear", "schedule.eta0": "0.02", "dataset.rotation_deg": "35"}


def test_malformed_line_raises():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_lines(["strategy multilinear"])


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key 'stratgy'"):
        config_from_pairs({"stratgy": "multilinear"})


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="schedule.eta0"):
        config_from_pairs({"schedule.eta0": "abc"})


def test_defaults_round_trip_through_pairs():
    cfg = config_from_pairs({})
    assert cfg == ExperimentConfig().validate()


def test_loaded_config_applies_values(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n"
        "dataset.generator = twin_moons_shift\n"
        "dataset.classes = 2\n"
        "strategy = concat\n"
        "entropy = true\n"
        "schedule.lambda = 0.5\n"
        "train.total_steps = 100\n"
        "seeds = 3,4\n"
    )
    cfg = load_config(path)
    assert cfg.generator == "twin_moons_shift"
    assert cfg.strategy == "concat"
    assert cfg.entropy is True
    assert cfg.lam == 0.5
    assert cfg.total_steps == 100
    assert cfg.seeds == (3, 4)


def test_missing_config_file():
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("/nonexistent/path.cfg")


def test_validation_rejects_bad_fields():
    with pytest.raises(ConfigError, match="strategy"):
        config_from_pairs({"strategy": "outer"})
    with pytest.raises(ConfigError, match="sampler"):
        config_from_pairs({"conditioning.sampler": "cauchy"})
    with pytest.raises(ConfigError, match="seeds"):
        config_from_pairs({"seeds": ","})
    with pytest.raises(ConfigError, match="batch_size"):
        config_from_pairs({"train.batch_size": "0"})
    with pytest.raises(ConfigError, match="momentum"):
        config_from_pairs({"schedule.momentum": "1.5"})
    with pytest.raises(ConfigError, match="f_hidden"):
        config_from_pairs({"model.f_hidden": ""})


def test_csv_paths_must_come_together():
    with pytest.raises(ConfigError, match="together"):
        config_from_pairs({"dataset.source_csv": "a.csv"})


def test_auto_strategy_resolves_by_threshold():
    cfg = config_from_pairs({})  # d_f=64, C=3 -> 192 <= 4096
    assert cfg.resolve_strategy().tag == C.MULTILINEAR
    forced = config_from_pairs({"conditioning.threshold": "1"})
    assert forced.resolve_strategy().tag == C.RANDOMIZED_MULTILINEAR


def test_variant_presets():
    base = ExperimentConfig()
    assert apply_variant(base, "source_only").lam == 0.0
    assert apply_variant(base, "dann").strategy == C.FEATURE_ONLY
    assert apply_variant(base, "dann_g").strategy == C.PREDICTION_ONLY
    assert apply_variant(base, "dann_fg").strategy == C.CONCAT
    assert apply_variant(base, "cdan").entropy is False
    assert apply_variant(base, "cdan_e").entropy is True
    assert apply_variant(base, "cdan_e@uniform").sampler == "uniform"


def test_unknown_variant():
    with pytest.raises(ConfigError, match="unknown variant"):
        apply_variant(ExperimentConfig(), "cdan_plus")
    with pytest.raises(ConfigError, match="sampler"):
        apply_variant(ExperimentConfig(), "cdan_e@cauchy")


def test_model_specs_chain_widths():
    cfg = config_from_pairs({"strategy": "multilinear"})
    spec_f, spec_g, spec_d = cfg.model_specs(input_dim=2)
    assert spec_f.widths == (2, 64, 64)
    assert spec_g.widths == (64, 3)
    assert spec_d.widths == (64 * 3, 64, 64, 1)
