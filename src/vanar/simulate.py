"""Coupled logistic-map benchmark system.

Generates ground-truth trajectories for a two-variable chaotic system,
observation-noise scenarios, and the system itself as a forecaster
(``TrueSystem``) whose shocked paths are the true counterfactuals. Because
the generating dynamics are known, these serve as oracles for causality
and impulse-response experiments: the system is simulated once, and any
estimator's claims can be checked against the true continuation.

The system iterates

    x[t] = x[t-1] * (a_x - b_x * x[t-1] - c_x * y[t-1])
    y[t] = y[t-1] * (a_y - b_y * y[t-1] - c_y * x[t-1])

with defaults (3.8, 3.8, 0.02) and (3.5, 3.5, 0.1). The weak bidirectional
coupling produces "mirage correlation": locally correlated-looking windows
whose full-series rank correlation is near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .base import BaseForecaster
from .dataset import Dataset
from .validation import INDEX, check_positive_int, check_same_length, follows

DIVERGENCE_BOUND = 10.0

DEFAULT_X0 = (0.4, 0.2)


@dataclass(frozen=True)
class LogisticParams:
    """Coefficients of the coupled logistic system (growth, self-damping, coupling)."""

    a_x: float = 3.8
    b_x: float = 3.8
    c_x: float = 0.02
    a_y: float = 3.5
    b_y: float = 3.5
    c_y: float = 0.1

    def decoupled(self) -> "LogisticParams":
        """Same system with the cross-coupling terms removed."""
        return replace(self, c_x=0.0, c_y=0.0)


SCENARIO_KINDS = ("default", "nointeraction", "noise1", "noise2")

_SCENARIO_NOISE = {"default": 0.0, "nointeraction": 0.0, "noise1": 0.1, "noise2": 0.01}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named benchmark scenario: coupling on/off plus observation-noise level."""

    kind: str = "default"
    seed: int = 0

    def __post_init__(self):
        if not follows(self.kind, SCENARIO_KINDS):
            raise ValueError(f"unknown scenario {self.kind!r}; choose from {SCENARIO_KINDS}")
        if not follows(self.seed, INDEX):  # a bool is not a seed
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def noise_sd(self) -> float:
        return _SCENARIO_NOISE[self.kind]

    def params(self) -> LogisticParams:
        base = LogisticParams()
        return base.decoupled() if self.kind == "nointeraction" else base


def _step(params: LogisticParams, x: float, y: float) -> tuple[float, float]:
    """The next state (x, y); ``simulate_system1`` inlines the same expressions."""
    return (
        x * (params.a_x - params.b_x * x - params.c_x * y),
        y * (params.a_y - params.b_y * y - params.c_y * x),
    )


def _start_state(x0) -> tuple[float, float]:
    """``x0`` as two floats; ValueError unless it is two finite numbers within the bound."""
    try:
        x, y = (float(v) for v in x0)
        ok = abs(x) <= DIVERGENCE_BOUND and abs(y) <= DIVERGENCE_BOUND  # False for NaN
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"x0 must be two finite numbers within +-{DIVERGENCE_BOUND:g}, got {x0!r}"
        )
    return x, y


def simulate_system1(
    params: LogisticParams = LogisticParams(),
    x0: tuple[float, float] = DEFAULT_X0,
    n: int = 1000,
) -> Dataset:
    """Iterate the noise-free system for n steps.

    Returns a Dataset of length n + 1 whose first row is the initial state.
    Raises ValueError if ``x0`` is not two finite numbers within [-10, 10],
    and ValueError("divergent trajectory") if any value leaves [-10, 10],
    which signals unusable parameters.
    """
    check_positive_int(n, "n")
    x, y = _start_state(x0)
    # _step on Python floats, inlined: the same expressions in the same order
    a_x, b_x, c_x = params.a_x, params.b_x, params.c_x
    a_y, b_y, c_y = params.a_y, params.b_y, params.c_y
    xs, ys = [x], [y]
    for t in range(1, n + 1):
        x, y = x * (a_x - b_x * x - c_x * y), y * (a_y - b_y * y - c_y * x)
        if abs(x) > DIVERGENCE_BOUND or abs(y) > DIVERGENCE_BOUND:
            raise ValueError(f"divergent trajectory at step {t}: ({x:g}, {y:g})")
        xs.append(x)
        ys.append(y)
    return Dataset(("x", "y"), np.column_stack((xs, ys)))


def simulate_scenario(spec: ScenarioSpec, n: int = 1000, x0=DEFAULT_X0) -> Dataset:
    """Simulate a named scenario: trajectory plus its observation noise, if any."""
    clean = simulate_system1(spec.params(), x0=x0, n=n)
    return add_observation_noise(clean, spec.noise_sd, spec.seed)


def add_observation_noise(data: Dataset, sd: float, seed: int) -> Dataset:
    """Add i.i.d. normal(0, sd) measurement noise to every value.

    The noise is layered onto the finished trajectory; it never feeds back
    into the recursion. sd = 0 returns the input unchanged.
    """
    if sd < 0:
        raise ValueError(f"noise sd must be nonnegative, got {sd}")
    if sd == 0:
        return data
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sd, size=data.values.shape)
    return data.with_values(data.values + noise)


class TrueSystem(BaseForecaster):
    """The noise-free system as a forecaster: its forecast is the true continuation.

    Nothing is estimated, so there is no ``fit`` and the variables are
    always ("x", "y"). A lag-1 model predicting the next state, shocked
    through ``impulse_path`` like any fitted model, it gives the true
    shocked trajectory and impulse response.
    """

    names_ = ("x", "y")
    p_ = 1

    def __init__(self, params: LogisticParams = LogisticParams()):
        self.params = params

    def _predict(self, lags: np.ndarray, t) -> np.ndarray:
        """The states (..., 2) after the states ``lags``; ValueError if one leaves [-10, 10]."""
        state = np.stack(_step(self.params, lags[..., 0], lags[..., 1]), axis=-1)
        far = np.abs(state) > DIVERGENCE_BOUND
        if far.any():
            first = np.broadcast_to(t, far.shape)[far].min()
            raise ValueError(f"divergent trajectory at time {first}")
        return state


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks for ties."""
    a, b = check_same_length(a, b)
    if a.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0:
        raise ValueError("rank correlation undefined for a constant series")
    return float((ra * rb).sum() / denom)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    # ranks are 1-based; tied values share the average of their positions
    _, value_of, counts = np.unique(v, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2.0)[value_of]
