"""Multivariate time-series forecasting around periodically indexed
learnable attention queries, on a self-contained reverse-mode tape engine."""

from .data import (
    ACFResult,
    SeriesTable,
    SplitSpec,
    SynthSpec,
    channel_correlation,
    compute_acf,
    generate_synthetic,
    load_csv,
    make_windows,
    split_and_scale,
)
from .model import VARIANTS, ModelConfig, TemporalQueryBank, TQNet, VariantSpec
from .tensor import DiffTensor, GradCheckResult, Tape, gradient_check
from .training import TrainPlan, evaluate, fit, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ACFResult",
    "DiffTensor",
    "GradCheckResult",
    "ModelConfig",
    "SeriesTable",
    "SplitSpec",
    "SynthSpec",
    "Tape",
    "TemporalQueryBank",
    "TQNet",
    "TrainPlan",
    "VARIANTS",
    "VariantSpec",
    "channel_correlation",
    "compute_acf",
    "evaluate",
    "fit",
    "generate_synthetic",
    "gradient_check",
    "load_csv",
    "make_windows",
    "run_experiment",
    "split_and_scale",
    "__version__",
]
