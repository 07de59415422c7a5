"""Linear vector autoregression estimated by ordinary least squares.

Each equation regresses a variable's current value on p lags of every
variable (variable-major, most recent lag first) plus optional
deterministic terms. Lag order can be chosen by the multivariate Akaike
information criterion evaluated on a common effective sample.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .base import BaseForecaster
from .dataset import Dataset
from .preprocessing import lag_matrix
from .validation import (
    COUNT, DET_OPTIONS, FINITE, check_arguments, check_fitted, check_model_document,
)

P_MAX = 15  # the largest lag order an AIC scan tries unless told otherwise


def _n_det_terms(det: str) -> int:
    check_arguments(_n_det_terms, {"det": det})
    return DET_OPTIONS.index(det)


def _design(lags: np.ndarray, det: str, t_index: np.ndarray) -> np.ndarray:
    """The lag columns, then the deterministic regressors at the (1-based) target times."""
    det_columns = [np.ones((len(t_index), 1)), t_index[:, None].astype(np.float64)]
    return np.hstack([lags, *det_columns[: _n_det_terms(det)]])


def _solve_ols(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares with an explicit rank check; no silent pseudo-inverse."""
    if X.shape[0] < X.shape[1]:
        raise ValueError(
            f"singular design: {X.shape[0]} rows cannot identify {X.shape[1]} coefficients"
        )
    B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < X.shape[1]:
        raise ValueError(f"singular design: rank {rank} < {X.shape[1]} columns")
    return B, Y - X @ B


def _aic(resid: np.ndarray, k: int) -> float:
    """ln det(S) + 2k / T_eff, S the covariance of the T_eff residual rows."""
    T_eff = resid.shape[0]
    S = resid.T @ resid / T_eff
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0 or not math.isfinite(logdet):
        raise ValueError("degenerate residual covariance: det <= 0")
    return float(logdet + 2.0 * k / T_eff)


class VarForecaster(BaseForecaster):
    """VAR(p) / AR(p) estimator with recursive multi-step forecasting.

    Parameters
    ----------
    p : int
        Lag order.
    det : {"none", "constant", "constant+trend"}
        Deterministic terms. The trend regressor is the 1-based row index
        within the fitted sample; forecasts continue it from the end of
        the supplied history.

    Attributes (after fit)
    ----------
    phi_ : ndarray, shape (p, N, N)
        Coefficient matrices; ``phi_[i - 1][k, j]`` multiplies variable j
        at lag i in the equation for variable k.
    const_, trend_ : ndarray, shape (N,)
        Deterministic coefficients (zero when absent).
    resid_cov_ : ndarray, shape (N, N)
        Residual covariance of the fitted sample (divided by the number
        of usable rows).
    p_ : int
    det_ : str
        Lag order and deterministic terms the model was fitted with; the
        fitted-model methods read these, not ``p`` and ``det``.
    """

    def __init__(self, p: int = 1, det: str = "none"):
        self.p = p
        self.det = det

    def fit(self, data: Dataset) -> "VarForecaster":
        check_arguments(VarForecaster, vars(self))
        p, n_det = int(self.p), _n_det_terms(self.det)
        T, N = data.values.shape
        self._check_rows(T, N, p)
        design = _design(lag_matrix(data.values, p), self.det, np.arange(p + 1, T + 1))
        B, resid = _solve_ols(design, data.values[p:])

        self.names_ = data.names
        self.n_vars_ = N
        # row j*p + i - 1 of B holds variable j at lag i (lag_matrix's columns)
        self.phi_ = B[: N * p].reshape(N, p, N).transpose(1, 2, 0).copy()
        self.const_ = B[N * p].copy() if n_det >= 1 else np.zeros(N)
        self.trend_ = B[N * p + 1].copy() if n_det >= 2 else np.zeros(N)
        self.coef_ = B
        self.resid_cov_ = resid.T @ resid / resid.shape[0]
        self.n_obs_ = T
        self.p_ = p
        self.det_ = self.det
        return self

    def aic(self, data: Dataset) -> float:
        """Multivariate AIC of this model's one-step residuals on ``data``.

        ln det(S) + 2k / T_eff with S the residual covariance on the
        T_eff = T - p usable rows and k the number of estimated
        coefficients (N^2 p plus N per deterministic term).
        """
        return _aic(self._residuals(data), self.coef_.size)

    forecast = BaseForecaster.forecast  # the class's own attribute, so tracing can wrap it

    def _predict(self, lags: np.ndarray, t) -> np.ndarray:
        """Predictions from lag vectors (..., p*N) at 1-based time indices ``t``,
        which broadcast against the (..., N) result."""
        return lags @ self.coef_[: self.n_vars_ * self.p_] + self.const_ + self.trend_ * t

    def _residuals(self, data: Dataset) -> np.ndarray:
        self._check_history([data], 1, self.p_ + 1)  # the fitted variables, and a row after p
        t_index = np.arange(self.p_ + 1, data.n_obs + 1)[:, None]
        return data.values[self.p_ :] - self._predict(lag_matrix(data.values, self.p_), t_index)

    def to_json(self) -> str:
        check_fitted(self, "phi_")
        doc = {
            "model": "var",
            "p": self.p_,
            "det": self.det_,
            "names": list(self.names_),
            "phi": [m.tolist() for m in self.phi_],
            "const": self.const_.tolist(),
            "trend": self.trend_.tolist(),
            "resid_cov": self.resid_cov_.tolist(),
            "n_obs": self.n_obs_,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VarForecaster":
        doc = check_model_document(text, "var", {
            "p": COUNT, "det": DET_OPTIONS, "phi": [[[FINITE, 1], 1], 1], "const": [FINITE, 1],
            "trend": [FINITE, 1], "resid_cov": [[FINITE, 1], 1], "n_obs": COUNT})
        est = cls(p=doc["p"], det=doc["det"])
        est.p_ = doc["p"]
        est.det_ = doc["det"]
        est.names_ = tuple(doc["names"])
        est.n_vars_ = len(est.names_)
        est.phi_ = np.asarray(doc["phi"], dtype=np.float64)
        est.const_ = np.asarray(doc["const"], dtype=np.float64)
        est.trend_ = np.asarray(doc["trend"], dtype=np.float64)
        est.resid_cov_ = np.asarray(doc["resid_cov"], dtype=np.float64)
        est.n_obs_ = doc["n_obs"]
        p, N = est.p_, est.n_vars_
        shapes = (est.phi_.shape, est.const_.shape, est.trend_.shape)
        expected = ((p, N, N), (N,), (N,))
        if shapes != expected:
            raise ValueError(f"phi, const and trend have shapes {shapes}; "
                             f"p={p} and {N} names need {expected}")
        if est.resid_cov_.shape != (N, N):
            raise ValueError(f"resid_cov has shape {est.resid_cov_.shape}; {N} names need {(N, N)}")
        n_det = _n_det_terms(est.det_)
        for name in ("const", "trend")[n_det:]:  # a term det leaves out is zero, as fit sets it
            if np.any(doc[name]):
                raise ValueError(f"var model {name} must be all zero for det {est.det_!r}")
        # C order, like the fitted coef_: numpy picks its matmul kernel by memory layout
        lags = est.phi_.transpose(2, 0, 1).copy().reshape(N * p, N)
        est.coef_ = np.vstack([lags, est.const_, est.trend_][: 1 + n_det])
        return est


def select_lag_aic(data: Dataset, p_max: int, det: str = "none") -> int:
    """Smallest-AIC lag order among VAR(1)..VAR(p_max).

    All candidates are fitted on the common effective sample (target rows
    p_max+1..T) so their criteria are comparable; ties break toward the
    smaller order. Candidates with fewer residual degrees of freedom on the
    common sample than variables (a singular residual covariance), or a
    singular design, are skipped; if every candidate fails an error is raised.
    """
    check_arguments(select_lag_aic, {"p_max": p_max})
    T, N = data.values.shape
    if p_max >= T / 2:
        raise ValueError(f"p_max = {p_max} too large for T = {T} (need p_max < T/2)")
    n_det = _n_det_terms(det)
    targets = data.values[p_max:]
    t_index = np.arange(p_max + 1, T + 1)

    best_p, best_aic = None, math.inf
    errors = []
    for p in range(1, p_max + 1):
        design = _design(lag_matrix(data.values, p)[p_max - p :], det, t_index)
        try:
            if len(targets) - design.shape[1] < N:  # singular N x N residual covariance
                raise ValueError(f"fewer residual degrees of freedom than the {N} variables")
            _, resid = _solve_ols(design, targets)
            aic = _aic(resid, N * N * p + N * n_det)
        except ValueError as exc:
            errors.append(f"p={p}: {exc}")
            continue
        if aic < best_aic:
            best_p, best_aic = p, aic
    if best_p is None:
        raise ValueError("lag selection failed for every candidate: " + "; ".join(errors))
    return best_p


def capped_p_max(p_max: int, n_obs: int) -> int:
    """``p_max`` capped at (T-1)//3, so the AIC scan of a short series still runs.

    Estimators, the runner and the CLI apply it when the lag order is left
    open; ``select_lag_aic`` itself rejects a ``p_max`` that is too large.
    """
    return min(p_max, max(1, (n_obs - 1) // 3))


class NaiveForecaster(BaseForecaster):
    """Repeats the last observed row, as a lag-1 model whose prediction is its lag
    vector; the baseline behind the scaled error metric."""

    p_ = 1

    def fit(self, data: Dataset) -> "NaiveForecaster":
        self.names_ = data.names
        return self

    def _predict(self, lags: np.ndarray, t=None) -> np.ndarray:
        return lags
