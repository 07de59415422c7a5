"""Linear and neural vector autoregression toolkit.

Fit classic VAR/AR models or their neural counterparts on multivariate
time series; forecast recursively, score nonlinear Granger causality from
out-of-sample error, and simulate impulse responses to shocks. A built-in
coupled chaotic system provides ground-truth trajectories, causality, and
counterfactual shock paths for benchmarking.
"""

from .causality import CausalityEdge, CausalityGraph, causality_graph, causality_score, rolling_one_step
from .dataset import Dataset, concat_datasets, read_csv, split_dataset, write_csv
from .impulse import ImpulseSet, impulse_path, impulse_response
from .metrics import rmse, rmsse
from .network import AdaGradState, Mlp, TrainConfig, train
from .preprocessing import StandardScaler
from .simulate import (
    LogisticParams,
    ScenarioSpec,
    TrueSystem,
    add_observation_noise,
    simulate_scenario,
    simulate_system1,
    spearman,
)
from .vanar import Autoencoder, VanarForecaster, fit_autoencoder
from .var import NaiveForecaster, VarForecaster, select_lag_aic

__version__ = "0.1.0"

__all__ = [
    "AdaGradState",
    "Autoencoder",
    "CausalityEdge",
    "CausalityGraph",
    "Dataset",
    "ImpulseSet",
    "LogisticParams",
    "Mlp",
    "NaiveForecaster",
    "ScenarioSpec",
    "StandardScaler",
    "TrainConfig",
    "TrueSystem",
    "VanarForecaster",
    "VarForecaster",
    "add_observation_noise",
    "causality_graph",
    "causality_score",
    "concat_datasets",
    "fit_autoencoder",
    "impulse_path",
    "impulse_response",
    "read_csv",
    "rmse",
    "rmsse",
    "rolling_one_step",
    "select_lag_aic",
    "simulate_scenario",
    "simulate_system1",
    "spearman",
    "split_dataset",
    "train",
    "write_csv",
]
