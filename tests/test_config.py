"""Config file parsing, validation messages, variant presets, and the schema
that derives the key lookup and the CLI flags from ExperimentConfig."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import condada.conditioning as C
from condada.cli import build_parser
from condada.config import KEYS, ExperimentConfig, load_config, parse_config_lines
from condada.errors import ConfigError
from condada.runner import apply_variant
from helpers import config_from_pairs


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


def test_a_repeated_key_is_named_with_its_file_and_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("train.total_steps = 100\n# the second one used to win\ntrain.total_steps = 200\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: line 3 repeats the key train.total_steps"


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


@pytest.mark.parametrize("player", ["f", "g", "d"])
def test_a_learning_rate_multiplier_is_at_least_zero(player):
    # Below 0 a player would ascend its own loss; 0 freezes it and stays legal.
    assert getattr(config_from_pairs({f"lr_mult.{player}": "0"}), f"lr_mult_{player}") == 0.0
    with pytest.raises(ConfigError, match=rf"^lr_mult\.{player} must be >= 0, got -1\.0$"):
        config_from_pairs({f"lr_mult.{player}": "-1"})


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


def test_an_empty_sampler_suffix_is_unknown():
    with pytest.raises(ConfigError, match="unknown sampler '' in variant 'cdan@'"):
        apply_variant(ExperimentConfig(), "cdan@")


@pytest.mark.parametrize("word, value", [
    ("false", False), ("0", False), ("No", False), (" OFF ", False), ("true", True), ("1", True),
])
def test_boolean_words(word, value):
    assert config_from_pairs({"conditioning.normalize_features": word}).normalize_features is value


def test_model_specs_chain_widths():
    cfg = config_from_pairs({"strategy": "multilinear"})
    f, g, d = cfg.model_specs(input_dim=2)
    assert f.widths == (2, 64, 64)
    assert g.widths == (64, 3)
    assert d.widths == (64 * 3, 64, 64, 1)


# key -> (a non-default text value, the value it parses to).
NON_DEFAULT = {
    "dataset.generator": ("twin_moons_shift", "twin_moons_shift"),
    "dataset.classes": ("4", 4),
    "dataset.n_source": ("300", 300),
    "dataset.n_target": ("450", 450),
    "dataset.noise": ("0.5", 0.5),
    "dataset.radius": ("2.5", 2.5),
    "dataset.rotation_deg": ("10,20,30", (10.0, 20.0, 30.0)),
    "dataset.translation": ("1, -2", (1.0, -2.0)),
    "dataset.class_angles": ("0,90,180", (0.0, 90.0, 180.0)),
    "dataset.class_scales": ("1,2,3", (1.0, 2.0, 3.0)),
    "dataset.source_csv": ("s.csv", "s.csv"),
    "dataset.target_csv": ("t.csv", "t.csv"),
    "model.f_hidden": ("32", (32,)),
    "model.d_hidden": ("16,8", (16, 8)),
    "strategy": ("concat", "concat"),
    "entropy": ("yes", True),
    "conditioning.threshold": ("1", 1),
    "conditioning.d": ("32", 32),
    "conditioning.sampler": ("uniform", "uniform"),
    "conditioning.normalize_features": ("on", True),
    "schedule.eta0": ("0.05", 0.05),
    "schedule.alpha": ("5", 5.0),
    "schedule.beta": ("0.5", 0.5),
    "schedule.delta": ("3", 3.0),
    "schedule.momentum": ("0.5", 0.5),
    "schedule.lambda": ("0.25", 0.25),
    "lr_mult.f": ("0.1", 0.1),
    "lr_mult.g": ("0.2", 0.2),
    "lr_mult.d": ("2", 2.0),
    "train.batch_size": ("16", 16),
    "train.total_steps": ("10", 10),
    "seeds": ("1,2", (1, 2)),
}
# Keys that validation accepts only together.
COMPANIONS = {"dataset.source_csv": "dataset.target_csv", "dataset.target_csv": "dataset.source_csv"}


def test_each_field_has_exactly_one_key():
    keys = [f.metadata["key"] for f in fields(ExperimentConfig)]
    assert len(keys) == len(set(keys)) == 32
    assert set(KEYS) == set(NON_DEFAULT)


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_sets_its_field_and_no_other(key):
    pairs = {k: NON_DEFAULT[k][0] for k in (key, COMPANIONS.get(key, key))}
    cfg, base = config_from_pairs(pairs), ExperimentConfig()
    changed = {f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(base, f.name)}
    assert changed == {KEYS[k].name for k in pairs}
    assert getattr(cfg, KEYS[key].name) == NON_DEFAULT[key][1]


def _config_flags(verb: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest.removeprefix("cfgkey::") for a in sub.choices[verb]._actions if a.dest.startswith("cfgkey::")}


def test_verbs_expose_the_keys_as_flags():
    assert _config_flags("run") == set(KEYS)
    assert _config_flags("export-features") == set(KEYS)
    assert _config_flags("compare") == set(KEYS)


def test_readme_configuration_table_lists_exactly_the_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([a-z0-9_.]+) \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(["key", *KEYS])
