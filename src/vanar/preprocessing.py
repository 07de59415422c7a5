"""Lag-matrix construction and per-column standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .validation import check_matrix


@dataclass(frozen=True)
class LagDesign:
    """Row-aligned regression design built from a time series.

    ``inputs`` has one row per usable time step t (t = p+1..T) holding the
    p lagged values of every variable, ordered variable-major with the most
    recent lag first: for variables (v1, v2) and p = 2 the columns are
    [v1@t-1, v1@t-2, v2@t-1, v2@t-2]. ``targets`` row r holds the current
    values X_t aligned with ``inputs`` row r.
    """

    inputs: np.ndarray
    targets: np.ndarray
    p: int


def build_lag_design(data: Dataset, p: int) -> LagDesign:
    """Construct the (inputs, targets) matrices for a lag-p autoregression.

    Raises
    ------
    ValueError
        "invalid lag" if p <= 0; "insufficient history" if p >= T.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p <= 0:
        raise ValueError(f"invalid lag: p must be a positive integer, got {p!r}")
    T, N = data.values.shape
    if p >= T:
        raise ValueError(f"insufficient history: need T > p, got T={T}, p={p}")
    inputs = lag_matrix(data.values, int(p))
    targets = data.values[p:].copy()
    return LagDesign(inputs=inputs, targets=targets, p=int(p))


def lag_matrix(values: np.ndarray, p: int) -> np.ndarray:
    """Lagged regressor matrix for a (T, N) value matrix; (T-p, p*N) output."""
    T, N = values.shape
    out = np.empty((T - p, p * N))
    for j in range(N):
        for lag in range(1, p + 1):
            out[:, j * p + (lag - 1)] = values[p - lag:T - lag, j]
    return out


def lag_vector(recent: np.ndarray, p: int) -> np.ndarray:
    """Lag vector for the next time step, from the last >= p rows of history.

    Ordering matches :func:`lag_matrix`: variable-major, most recent first.
    The result is a fresh C-contiguous array, never a view of ``recent``.
    """
    T, N = recent.shape
    if T < p:
        raise ValueError(f"insufficient history: need at least {p} rows, got {T}")
    return recent[T - p :][::-1].T.flatten()


def recurse(predict, start: np.ndarray, p: int, h: int, actual: np.ndarray | None = None
            ) -> np.ndarray:
    """(h, N) rows of a lag-p recursion seeded with the last p rows of ``start``.

    Row k is ``predict(lag_vector(recent, p), k)``, where ``recent`` holds
    the p rows before it: rows of ``start``, then earlier predictions, or,
    when the (h, N) block ``actual`` is given, its true rows instead, which
    makes every row a one-step-ahead prediction.
    """
    buf = np.empty((p + h, start.shape[1]))
    buf[:p] = start[-p:]
    if actual is not None:
        buf[p:] = actual
    out = np.empty((h, start.shape[1]))
    for k in range(h):
        out[k] = predict(lag_vector(buf[k : p + k], p), k)
        if actual is None:
            buf[p + k] = out[k]
    return out


class StandardScaler:
    """Per-column z-score transform with exact inversion.

    Uses population standard deviation; a constant column gets scale 1 so
    the transform maps it to zero and inverts exactly.

    Attributes
    ----------
    mean_ : ndarray, shape (N,)
    scale_ : ndarray, shape (N,)
    """

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, values) -> "StandardScaler":
        arr = check_matrix(values)
        # the mean of equal values can round to a neighbour of them; pin it to the value
        constant = (arr == arr[0]).all(axis=0)
        self.mean_ = np.where(constant, arr[0], arr.mean(axis=0))
        sd = arr.std(axis=0)
        self.scale_ = np.where(constant | (sd == 0.0), 1.0, sd)
        return self

    def transform(self, values) -> np.ndarray:
        self._require_fitted()
        arr = check_matrix(values)
        return (arr - self.mean_) / self.scale_

    def inverse_transform(self, values) -> np.ndarray:
        self._require_fitted()
        arr = np.asarray(values, dtype=np.float64)
        return arr * self.scale_ + self.mean_

    def fit_transform(self, values) -> np.ndarray:
        return self.fit(values).transform(values)

    def _require_fitted(self) -> None:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler must be fit before use")

    def to_dict(self) -> dict:
        self._require_fitted()
        return {"mean": self.mean_.tolist(), "scale": self.scale_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "StandardScaler":
        sc = cls()
        sc.mean_ = np.asarray(d["mean"], dtype=np.float64)
        sc.scale_ = np.asarray(d["scale"], dtype=np.float64)
        return sc
