"""Estimator base class: the get_params/set_params protocol and the checks every forecast makes."""

from __future__ import annotations

import inspect

from .dataset import Dataset, concat_datasets
from .validation import check_fitted, check_positive_int


class BaseForecaster:
    """Minimal estimator base: hyperparameters live in ``__init__`` arguments.

    Subclasses follow the usual convention: constructor arguments are
    stored verbatim as attributes of the same name, ``fit`` sets
    trailing-underscore attributes, and ``get_params``/``set_params``
    expose the constructor arguments for composition and cloning.
    """

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

    def _check_history(self, history, h: int, p: int) -> None:
        """Preconditions of ``forecast``: fitted, h > 0, and a history with
        the fitted variables and at least ``p`` rows."""
        check_fitted(self, "names_")
        check_positive_int(h, "h")
        if history.names != self.names_:
            raise ValueError(f"history variables {history.names} != fitted {self.names_}")
        if history.n_obs < p:
            raise ValueError(f"insufficient history: need {p} rows, got {history.n_obs}")

    def _one_step(self, history, actual) -> Dataset:
        """Row t of ``actual`` predicted from ``history`` and the rows of
        ``actual`` before it: one ``forecast(prefix, 1)`` per row. Lag models
        override this with one pass over a lag buffer."""
        full = concat_datasets(history, actual)
        preds = [self.forecast(full.rows(0, history.n_obs + t), 1).values[0]
                 for t in range(actual.n_obs)]
        return Dataset(actual.names, preds)

    def clone(self) -> "BaseForecaster":
        """Unfitted copy with identical hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
