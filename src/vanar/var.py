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
from .preprocessing import lag_matrix, recurse
from .validation import check_fitted, check_positive_int

DET_OPTIONS = ("none", "constant", "constant+trend")


def _n_det_terms(det: str) -> int:
    if det not in DET_OPTIONS:
        raise ValueError(f"det must be one of {DET_OPTIONS}, got {det!r}")
    return {"none": 0, "constant": 1, "constant+trend": 2}[det]


def _det_columns(det: str, t_index: np.ndarray) -> np.ndarray | None:
    """Deterministic regressors for the given (1-based) target time indices."""
    if det == "none":
        return None
    cols = [np.ones_like(t_index, dtype=np.float64)]
    if det == "constant+trend":
        cols.append(t_index.astype(np.float64))
    return np.column_stack(cols)


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
        p = check_positive_int(self.p, "p")
        n_det = _n_det_terms(self.det)
        T, N = data.values.shape
        if p >= T:
            raise ValueError(f"insufficient history: need T > p, got T={T}, p={p}")
        if T - p <= N * p + n_det:
            raise ValueError(
                f"not identifiable: T - p = {T - p} rows for {N * p + n_det} coefficients"
            )
        X = lag_matrix(data.values, p)
        t_index = np.arange(p + 1, T + 1)
        D = _det_columns(self.det, t_index)
        design = X if D is None else np.hstack([X, D])
        B, resid = _solve_ols(design, data.values[p:])

        self.names_ = data.names
        self.n_vars_ = N
        self.phi_ = _extract_phi(B, p, N)
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
        check_fitted(self, "phi_")
        return _aic(self._residuals(data), self.coef_.size)

    def forecast(self, history: Dataset, h: int) -> Dataset:
        """Recursive h-step forecast, feeding predictions back as inputs."""
        return self._path(history, h)

    def _one_step(self, history: Dataset, actual: Dataset) -> Dataset:
        return self._path(history, actual.n_obs, actual)

    def _path(self, history: Dataset, h: int, actual: Dataset | None = None) -> Dataset:
        """The h rows after ``history``, each predicted from earlier predictions,
        or from the true rows of ``actual`` when it is given (see ``recurse``)."""
        self._check_history(history, h, self.p_)
        start = history.n_obs + 1
        truth = None if actual is None else actual.values
        out = recurse(lambda lags, k: self._predict(lags, start + k), history.values, self.p_, h,
                      truth)
        return Dataset(self.names_, out)

    def _predict(self, lags: np.ndarray, t) -> np.ndarray:
        """Prediction from lag vectors (one or a matrix of rows) at 1-based time index ``t``."""
        return lags @ self.coef_[: self.n_vars_ * self.p_] + self.const_ + self.trend_ * t

    def _residuals(self, data: Dataset) -> np.ndarray:
        if data.names != self.names_:
            raise ValueError(f"data variables {data.names} != fitted {self.names_}")
        T = data.n_obs
        if T <= self.p_:
            raise ValueError("insufficient history")
        t_index = np.arange(self.p_ + 1, T + 1)[:, None]
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
        doc = json.loads(text)
        if doc.get("model") != "var":
            raise ValueError(f"not a VAR model document (model={doc.get('model')!r})")
        est = cls(p=doc["p"], det=doc["det"])
        est.p_ = doc["p"]
        est.det_ = doc["det"]
        est.names_ = tuple(doc["names"])
        est.n_vars_ = len(est.names_)
        est.phi_ = np.asarray(doc["phi"], dtype=np.float64)
        est.const_ = np.asarray(doc["const"], dtype=np.float64)
        est.trend_ = np.asarray(doc["trend"], dtype=np.float64)
        p, N = check_positive_int(est.p_, "p"), est.n_vars_
        shapes = (est.phi_.shape, est.const_.shape, est.trend_.shape)
        expected = ((p, N, N), (N,), (N,))
        if shapes != expected:
            raise ValueError(f"phi, const and trend have shapes {shapes}; "
                             f"p={p} and {N} names need {expected}")
        est.resid_cov_ = np.asarray(doc["resid_cov"], dtype=np.float64)
        est.n_obs_ = doc["n_obs"]
        est.coef_ = _stack_coefficients(est.phi_, est.const_, est.trend_, est.det_)
        return est


def _extract_phi(B: np.ndarray, p: int, N: int) -> np.ndarray:
    """(p, N, N) coefficient matrices from the stacked OLS solution."""
    phi = np.empty((p, N, N))
    for lag in range(1, p + 1):
        for j in range(N):
            phi[lag - 1][:, j] = B[j * p + (lag - 1)]
    return phi


def _stack_coefficients(phi, const, trend, det) -> np.ndarray:
    p, N, _ = phi.shape
    B = np.empty((N * p, N))
    for lag in range(1, p + 1):
        for j in range(N):
            B[j * p + (lag - 1)] = phi[lag - 1][:, j]
    rows = [B]
    n_det = _n_det_terms(det)
    if n_det >= 1:
        rows.append(const.reshape(1, -1))
    if n_det >= 2:
        rows.append(trend.reshape(1, -1))
    return np.vstack(rows)


def fit_var_ols(data: Dataset, p: int, det: str = "none") -> VarForecaster:
    """Convenience wrapper: fit a VAR(p) by per-equation least squares."""
    return VarForecaster(p=p, det=det).fit(data)


def select_lag_aic(data: Dataset, p_max: int, det: str = "none") -> int:
    """Smallest-AIC lag order among VAR(1)..VAR(p_max).

    All candidates are fitted on the common effective sample (target rows
    p_max+1..T) so their criteria are comparable; ties break toward the
    smaller order. Candidates whose design is singular are skipped;
    if every candidate fails an error is raised.
    """
    check_positive_int(p_max, "p_max")
    T, N = data.values.shape
    if p_max >= T / 2:
        raise ValueError(f"p_max = {p_max} too large for T = {T} (need p_max < T/2)")
    n_det = _n_det_terms(det)
    targets = data.values[p_max:]
    t_index = np.arange(p_max + 1, T + 1)
    D = _det_columns(det, t_index)

    best_p, best_aic = None, math.inf
    errors = []
    for p in range(1, p_max + 1):
        X = lag_matrix(data.values, p)[p_max - p :]
        design = X if D is None else np.hstack([X, D])
        try:
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
    """Repeats the last observed row; the baseline behind the scaled error metric."""

    def fit(self, data: Dataset) -> "NaiveForecaster":
        self.names_ = data.names
        return self

    def forecast(self, history: Dataset, h: int) -> Dataset:
        self._check_history(history, h, 1)
        return Dataset(self.names_, np.tile(history.values[-1], (h, 1)))
