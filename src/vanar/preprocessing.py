"""Lag-matrix construction and per-column standardization."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .validation import FINITE, POSITIVE, check_fields, check_matrix


def lag_matrix(values: np.ndarray, p: int) -> np.ndarray:
    """(T-p, p*N) lagged regressors of a (T, N) value matrix; row r is the lag vector
    of row r + p, the target ``values[p:]`` row r. The columns are variable-major with
    the most recent lag first: for (v1, v2) and p = 2, [v1@t-1, v1@t-2, v2@t-1, v2@t-2]."""
    T, N = values.shape
    row, col = values.strides
    # window r is the p rows r..r+p-1 before row r + p, all within values; _flat_lags copies
    return _flat_lags(as_strided(values, (T - p, p, N), (row, row, col), writeable=False))


def lag_vector(recent: np.ndarray, p: int) -> np.ndarray:
    """Lag vector for the next time step, from the last >= p rows of history.

    ``recent`` is one (T, N) history, or a (B, T, N) stack of them for a
    (B, p*N) result. The result is a fresh C-contiguous array, never a view
    of ``recent``.
    """
    T = recent.shape[-2]
    if T < p:
        raise ValueError(f"insufficient history: need at least {p} rows, got {T}")
    return _flat_lags(recent[..., T - p :, :])


def _flat_lags(windows: np.ndarray) -> np.ndarray:
    """The one lag layout: (..., p*N) lag vectors, variable-major with the most recent
    lag first (see :func:`lag_matrix`), of (..., p, N) windows of rows in time order.
    A fresh C-contiguous copy, since numpy picks its matmul kernel by memory layout."""
    lags = windows[..., ::-1, :].swapaxes(-1, -2).copy()
    return lags.reshape(windows.shape[:-2] + (-1,))


def recurse(predict, starts: np.ndarray, p: int, h: int) -> np.ndarray:
    """(B, h, N) rows of B lag-p recursions run side by side, each seeded with
    the last p rows of its history in the (B, >= p, N) stack ``starts``.

    Step k calls ``predict(lags, k)`` once with the (B, 1, p*N) stack of the
    B lag vectors of the p rows before it (rows of the start, then earlier
    predictions); its (B, 1, N) predictions are written back as the next rows.
    """
    B, _, N = starts.shape
    buf = np.empty((B, p + h, N))
    buf[:, :p] = starts[:, -p:]
    for k in range(h):
        buf[:, p + k] = predict(lag_vector(buf[:, k : p + k], p)[:, None], k)[:, 0]
    return buf[:, p:]


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
    def from_dict(cls, d: dict, what: str = "scaler") -> "StandardScaler":
        check_fields(d, {"mean": [FINITE, 1], "scale": [POSITIVE, 1]}, what)
        sc = cls()
        sc.mean_ = np.asarray(d["mean"], dtype=np.float64)
        sc.scale_ = np.asarray(d["scale"], dtype=np.float64)
        return sc
