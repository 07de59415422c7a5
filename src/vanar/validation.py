"""Input validation helpers shared by the estimators."""

from __future__ import annotations

import numpy as np

DET_OPTIONS = ("none", "constant", "constant+trend")


def check_matrix(values, name: str = "values") -> np.ndarray:
    """Coerce to a 2-D float64 array with no NaN/inf entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def check_positive_int(value, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_fit_rows(n_obs: int, n_vars: int, p: int, det: str | None = None) -> None:
    """Raise unless ``n_obs`` rows can fit lag order ``p`` on ``n_vars`` variables: a VAR
    with deterministic terms ``det`` needs more target rows (T - p) than the N*p + n_det
    coefficients of each equation, a neural fit (``det`` None) two target rows."""
    need = p + 1 + (1 if det is None else n_vars * p + DET_OPTIONS.index(det))
    if n_obs < need:
        raise ValueError(f"insufficient history: lag order {p} on {n_vars} variable(s) "
                         f"needs {need} rows, got {n_obs}")


def check_fitted(estimator, attribute: str) -> None:
    """Raise if ``estimator`` has not been fitted (missing trailing-underscore attribute)."""
    if getattr(estimator, attribute, None) is None:
        raise RuntimeError(
            f"{type(estimator).__name__} must be fit before calling this method"
        )


def check_same_length(a, b, names: str = "series") -> tuple[np.ndarray, np.ndarray]:
    """Both coerced to 1-D float64 arrays of one length with no NaN/inf entries."""
    a, b = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (a, b))
    for which, arr in (("first", a), ("second", b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{which} {names} contains NaN or infinite entries")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{names} must have equal length, got {a.shape[0]} and {b.shape[0]}")
    return a, b


def check_hyperparameters(params: dict) -> None:
    """The rules for the models' hyperparameters and training settings, applied to
    those in ``params`` (other names pass). ``TrainConfig`` runs them on its fields,
    ``VanarForecaster.fit`` on its own (``VarForecaster`` on its ``det``), and
    ``validate_config`` on the values each model entry sets."""
    for name, value in params.items():
        if name not in ("epochs", "patience", "batch_size", "p", "embedding_dim", "hidden_dims",
                        "force_autoencoder", "validation_fraction", "learning_rate", "det"):
            continue
        if name in ("epochs", "patience", "batch_size"):
            least = int(name == "batch_size")
            if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        elif name in ("p", "embedding_dim") and value is not None:
            check_positive_int(value, name)
        elif name == "hidden_dims":
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"hidden_dims must be a list of widths, got {value!r}")
            for width in value:
                check_positive_int(width, "each of hidden_dims")
        elif name == "force_autoencoder" and value not in (None, True, False):
            raise ValueError(f"force_autoencoder must be a bool or None, got {value!r}")
        elif name == "validation_fraction" and not (hasattr(value, "__float__") and 0 <= value < 1):
            raise ValueError(f"validation_fraction must be in [0, 1), got {value!r}")
        elif name == "learning_rate" and not (hasattr(value, "__float__") and value > 0):
            raise ValueError(f"learning_rate must be positive, got {value!r}")
        elif name == "det" and value not in DET_OPTIONS:
            raise ValueError(f"det must be one of {DET_OPTIONS}, got {value!r}")
