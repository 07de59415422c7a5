"""Model-driven impulse paths and impulse responses.

A shock of size epsilon is added to one variable in the final observed
row; the model then recursively predicts forward from the shocked
history. The impulse response is the elementwise difference between this
shocked path and the model's ordinary (unshocked) recursive forecast.
The model is any forecaster: a fitted one, or ``TrueSystem`` for the
true response of the benchmark system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .validation import check_positive_int


@dataclass(frozen=True)
class ImpulseSet:
    """A shocked history together with the model's recursive continuation.

    ``base`` is untouched except the single shocked entry (last row,
    ``shock_var`` column); ``path`` holds the ``horizon`` predicted rows
    after the shock time.
    """

    base: Dataset
    shock_var: str
    epsilon: float
    shock_time: int
    horizon: int
    path: Dataset


def shocked_history(base: Dataset, shock_var: str, epsilon: float) -> Dataset:
    """Copy of ``base`` with epsilon added to the final value of ``shock_var``."""
    j = base.index_of(shock_var)
    values = base.values.copy()
    values[-1, j] += epsilon
    return base.with_values(values)


def impulse_path(model, base: Dataset, shock_var: str, epsilon: float,
                 horizon: int) -> ImpulseSet:
    """Recursive prediction from the shocked history.

    With epsilon = 0 this is exactly the model's ordinary recursive
    forecast from ``base``.
    """
    check_positive_int(horizon, "horizon")
    shocked = shocked_history(base, shock_var, epsilon)
    path = model.forecast(shocked, horizon)
    return ImpulseSet(
        base=shocked,
        shock_var=shock_var,
        epsilon=epsilon,
        shock_time=base.n_obs,
        horizon=horizon,
        path=path,
    )


def impulse_response(model, base: Dataset, shock_var: str, epsilon: float,
                     horizon: int) -> Dataset:
    """Shocked-minus-unshocked predicted paths, per variable and step."""
    shocked, unshocked = _shocked_and_unshocked(model, base, shock_var, epsilon, horizon)
    return Dataset(base.names, shocked - unshocked)


def _shocked_and_unshocked(model, base: Dataset, shock_var: str, epsilon: float,
                           horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``impulse_path(model, base, shock_var, e, horizon).path`` for
    e = epsilon and e = 0, from one model call that forecasts both histories."""
    check_positive_int(horizon, "horizon")
    histories = [shocked_history(base, shock_var, e) for e in (epsilon, 0.0)]
    shocked, unshocked = model._forecast_many(histories, horizon)
    return shocked.values, unshocked.values
