"""Estimator base class: the get_params/set_params protocol and the one lag recursion."""

from __future__ import annotations

import hashlib
import inspect

import numpy as np

from .dataset import Dataset
from .preprocessing import lag_matrix, recurse
from .validation import check_arguments, check_fit_rows, check_fitted


class BaseForecaster:
    """Base of every forecaster, each a lag-p model; hyperparameters live in ``__init__``.

    Subclasses follow the usual convention: constructor arguments are
    stored verbatim as attributes of the same name, ``fit`` sets
    trailing-underscore attributes, and ``get_params``/``set_params``
    expose the constructor arguments for composition and cloning.

    A fitted subclass sets ``p_`` and ``names_`` and supplies ``_predict(lags, t)``:
    predictions (..., N) from lag vectors (..., p*N) at 1-based time indices ``t``
    that broadcast against them, both in the model's own units, which ``_to_model``
    and ``_from_model`` map rows of values into and out of (the identity here).
    """

    det = None  # deterministic terms, in ``check_fit_rows``' sense; a VAR sets its own

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseForecaster":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _check_history(self, histories: list[Dataset], h: int, p: int) -> None:
        """Preconditions of ``forecast``: fitted, ``h`` a positive integer, and
        histories with the fitted variables and at least ``p`` rows each."""
        check_fitted(self, "names_")
        check_arguments(BaseForecaster._check_history, {"h": h})
        for history in histories:
            if history.names != self.names_:
                raise ValueError(f"history variables {history.names} != fitted {self.names_}")
            if history.n_obs < p:
                raise ValueError(f"insufficient history: need {p} rows, got {history.n_obs}")

    def clone(self) -> "BaseForecaster":
        """Unfitted copy with identical hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _check_rows(self, n_obs: int, n_vars: int, p: int) -> None:
        """``fit``'s sample-size rule: raise unless ``n_obs`` rows can fit lag order ``p``."""
        check_fit_rows(n_obs, n_vars, p, self.det)

    def _to_model(self, values: np.ndarray) -> np.ndarray:
        return values

    def _from_model(self, values: np.ndarray) -> np.ndarray:
        return values

    def forecast(self, history: Dataset, h: int) -> Dataset:
        """Recursive h-step forecast, feeding predictions back as inputs."""
        return self._forecast_many([history], h)[0]

    def _forecast_many(self, histories: list[Dataset], h: int) -> list[Dataset]:
        """``forecast(history, h)`` for each history, from one recursion over all of them."""
        p = self.p_
        self._check_history(histories, h, p)
        starts = self._to_model(np.vstack([history.values[-p:] for history in histories]))
        t0 = np.array([history.n_obs + 1 for history in histories]).reshape(-1, 1, 1)
        t = t0 + np.arange(h).reshape(-1, 1, 1, 1)  # (h, B, 1, 1): step k's time indices
        out = recurse(lambda lags, k: self._predict(lags, t[k]),
                      starts.reshape(len(histories), p, -1), p, h)
        return [Dataset(self.names_, path) for path in self._from_model(out)]

    def _one_step(self, history: Dataset, actual: Dataset) -> Dataset:
        """Each row of ``actual`` predicted from the true rows before it, in one pass
        over the lag matrix of the last p rows of ``history`` and ``actual``."""
        p, h = self.p_, actual.n_obs
        self._check_history([history], h, p)
        block = self._to_model(np.vstack([history.values[-p:], actual.values]))
        t = history.n_obs + 1 + np.arange(h).reshape(-1, 1, 1)
        out = self._predict(lag_matrix(block, p)[:, None], t)[:, 0]
        return Dataset(self.names_, self._from_model(out))


class FitCache(dict):
    """Fitted models keyed by what decides a fit: the estimator's class and
    ``get_params()``, and the training data's variable names and values.

    ``fit`` fits each distinct key once and returns that same model object
    for every later request, so its callers must not mutate what they get.
    """

    def fit(self, estimator: BaseForecaster, data: Dataset) -> BaseForecaster:
        key = (type(estimator), repr(sorted(estimator.get_params().items())), data.names,
               hashlib.sha1(np.ascontiguousarray(data.values)).hexdigest())
        if key not in self:
            self[key] = estimator.fit(data)
        return self[key]
