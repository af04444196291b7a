"""Conditional adversarial domain adaptation at desk scale: a small autodiff
tape, MLP players, multilinear/randomized conditioning, entropy reweighting,
the annealed minimax trainer, and the accompanying diagnostics."""

from .analysis import (
    MetricsRecord,
    Theorem1Result,
    accuracy,
    entropy_correctness_report,
    export_features,
    proxy_a_distance,
    theorem1_verify,
)
from .conditioning import (
    ConditioningStrategy,
    RandomProjection,
    condition,
    multilinear_map,
    randomized_multilinear_map,
    sample_projection,
    select_strategy,
)
from .config import ExperimentConfig, load_config
from .datagen import LabeledSet, ShiftSpec, batch_iter, load_csv, save_csv
from .errors import ConfigError, NumericAbort
from .networks import MlpSpec, ModelBundle, forward_D, forward_F, forward_G, init_model, load_model, save_model
from .objectives import LossBreakdown, adversarial_losses, cdan_step_losses, cross_entropy, entropy, entropy_weight
from .optim import ScheduleParams, lambda_schedule, lr_schedule
from .runner import compare, run_experiment, train, verify_theorem1
from .tensor import Tensor, backward, gradient_reversal

__all__ = [
    "MetricsRecord", "Theorem1Result", "accuracy", "entropy_correctness_report", "export_features",
    "proxy_a_distance", "theorem1_verify", "ConditioningStrategy", "RandomProjection", "condition",
    "multilinear_map", "randomized_multilinear_map", "sample_projection", "select_strategy",
    "ExperimentConfig", "load_config", "LabeledSet", "ShiftSpec", "batch_iter", "load_csv",
    "save_csv", "ConfigError", "NumericAbort",
    "MlpSpec", "ModelBundle", "forward_D", "forward_F", "forward_G", "init_model", "load_model",
    "save_model", "LossBreakdown", "adversarial_losses", "cdan_step_losses", "cross_entropy",
    "entropy", "entropy_weight", "ScheduleParams", "lambda_schedule", "lr_schedule",
    "compare", "run_experiment", "train", "verify_theorem1", "Tensor", "backward",
    "gradient_reversal",
]
