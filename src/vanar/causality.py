"""Forecast-based Granger causality scores and star-network graphs.

A set of variables counts as causal for a target when adding their lags
lowers out-of-sample forecast error for the target below what the
target's own history achieves: the score is 1 - full_error/uni_error,
positive iff the richer model forecast the held-out test block better.
Test-set error is used throughout because in-sample error rewards
overfitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import FitCache
from .dataset import Dataset, split_dataset
from .metrics import rmse


@dataclass(frozen=True)
class CausalityEdge:
    """Directed causal evidence from ``source`` lags to ``target``.

    ``score == 1 - full_rmse / univariate_rmse`` exactly; positive means
    the source's history improved the target's forecast. ``source`` may
    name several variables (joint causality of a set).
    """

    source: str
    target: str
    score: float
    full_rmse: float
    univariate_rmse: float

    @property
    def causal(self) -> bool:
        return self.score > 0


@dataclass
class CausalityGraph:
    """Star network of directed scores between a center variable and the rest."""

    center: str
    edges: list[CausalityEdge] = field(default_factory=list)

    def positive_edges(self) -> list[CausalityEdge]:
        """Edges that belong in the rendered graph (causal evidence only)."""
        return [e for e in self.edges if e.score > 0]


def _median_index(n: int) -> int:
    # lower median keeps the reported (full, uni) pair tied to one real run
    return (n - 1) // 2


def rolling_one_step(model, history: Dataset, actual: Dataset) -> Dataset:
    """One-step-ahead predictions over ``actual`` using true values as inputs.

    Unlike a recursive forecast, each step conditions on the actual
    history up to that point, never on the model's own predictions.
    """
    if history.names != actual.names:
        raise ValueError(f"variable mismatch: {history.names} vs {actual.names}")
    return model._one_step(history, actual)


def _test_rmse(model, train: Dataset, test: Dataset, target: str, horizon: int,
               one_step: bool) -> float:
    if one_step:
        pred = rolling_one_step(model, train, test)
        return rmse(pred.column(target), test.column(target))
    pred = model.forecast(train, horizon)
    return rmse(pred.column(target)[:horizon], test.column(target)[:horizon])


def _horizon(data: Dataset, test_len: int, horizon: int | None) -> int:
    if test_len >= data.n_obs:
        raise ValueError(f"test_len {test_len} leaves no training rows (T={data.n_obs})")
    return test_len if horizon is None else min(horizon, test_len)


def _fitter(data: Dataset, model_factory, test_len: int, cache: FitCache | None):
    """``fit(variables, seed) -> (model, train, test)``, fitting each distinct model once
    through ``cache``, or through a cache of its own if none is given."""
    train_len = data.n_obs - test_len
    cache = FitCache() if cache is None else cache

    def fit(variables: tuple[str, ...], seed) -> tuple:
        train, test = split_dataset(data.select(list(variables)), train_len, test_len)
        return cache.fit(model_factory(list(variables), seed), train), train, test

    return fit


def _score(fit, full_vars: tuple[str, ...], source: str, target: str, seeds, horizon: int,
           one_step: bool) -> CausalityEdge:
    """Median-seed edge: per seed, the full model's target error against the univariate one's."""
    scored = []
    for seed in seeds:
        full = fit(full_vars, seed)
        uni = fit((target,), seed)
        l_full = _test_rmse(*full, target, horizon, one_step)
        l_uni = _test_rmse(*uni, target, horizon, one_step)
        if l_uni == 0.0:
            raise ValueError("degenerate test split: univariate error is zero")
        scored.append((1.0 - l_full / l_uni, l_full, l_uni))
    scored.sort(key=lambda s: s[0])
    score, l_full, l_uni = scored[_median_index(len(scored))]
    return CausalityEdge(source, target, score, l_full, l_uni)


def causality_score(
    data: Dataset,
    cause_vars,
    target: str,
    model_factory,
    seeds=(0, 1, 2),
    test_len: int = 20,
    horizon: int | None = None,
    one_step: bool = False,
    cache: FitCache | None = None,
) -> CausalityEdge:
    """Score the causal evidence of ``cause_vars`` on ``target``.

    Fits, for each seed, a full model on cause_vars + target and a
    univariate model on target alone -- same split, same lag order, same
    training budget (both come from ``model_factory(variables, seed)``) --
    and compares their test-block errors on the target. The reported edge
    is the seed with the median score, so the score identity holds
    exactly. Several cause variables test their joint effect. Calls given
    one ``FitCache`` as ``cache`` share their fits.
    """
    cause_vars = [cause_vars] if isinstance(cause_vars, str) else list(cause_vars)
    if target in cause_vars:
        raise ValueError(f"target {target!r} cannot be among the cause variables")
    if not cause_vars:
        raise ValueError("need at least one cause variable")
    horizon = _horizon(data, test_len, horizon)
    # keep the dataset's own column order for reproducible designs
    full_vars = tuple(n for n in data.names if n in set(cause_vars) | {target})
    fit = _fitter(data, model_factory, test_len, cache)
    return _score(fit, full_vars, "+".join(cause_vars), target, seeds, horizon, one_step)


def causality_graph(
    data: Dataset,
    center: str,
    model_factory,
    seeds=(0, 1, 2),
    test_len: int = 20,
    horizon: int | None = None,
    one_step: bool = False,
    cache: FitCache | None = None,
) -> CausalityGraph:
    """Pairwise scores in both directions between ``center`` and every other variable.

    No edges are computed among the non-center variables. Each full
    (pair) model is fitted once and reused for both directions of that
    pair (``cache`` as in ``causality_score``); rendered graphs keep only
    positive-score edges.
    """
    if data.n_vars < 2:
        raise ValueError("causality graph needs at least 2 variables")
    data.index_of(center)
    horizon = _horizon(data, test_len, horizon)
    fit = _fitter(data, model_factory, test_len, cache)
    edges = []
    for other in data.names:
        if other == center:
            continue
        pair = tuple(n for n in data.names if n in (center, other))
        for source, target in ((other, center), (center, other)):
            edges.append(_score(fit, pair, source, target, seeds, horizon, one_step))
    return CausalityGraph(center=center, edges=edges)
