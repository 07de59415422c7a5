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


def rolling_one_step(model, history: Dataset, actual: Dataset) -> Dataset:
    """One-step-ahead predictions over ``actual`` using true values as inputs.

    Unlike a recursive forecast, each step conditions on the actual
    history up to that point, never on the model's own predictions.
    """
    if history.names != actual.names:
        raise ValueError(f"variable mismatch: {history.names} vs {actual.names}")
    return model._one_step(history, actual)


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
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if test_len >= data.n_obs:
        raise ValueError(f"test_len {test_len} leaves no training rows (T={data.n_obs})")
    # one-step scoring covers the whole test block
    horizon = test_len if horizon is None or one_step else min(horizon, test_len)
    cache = FitCache() if cache is None else cache
    # keep the dataset's own column order for reproducible designs
    full_vars = [n for n in data.names if n in set(cause_vars) | {target}]
    scored = []
    for seed in seeds:
        errors = []
        for variables in (full_vars, [target]):
            train, test = split_dataset(data.select(variables), data.n_obs - test_len, test_len)
            model = cache.fit(model_factory(variables, seed), train)
            pred = (rolling_one_step(model, train, test) if one_step
                    else model.forecast(train, horizon))
            errors.append(rmse(pred.column(target)[:horizon], test.column(target)[:horizon]))
        l_full, l_uni = errors
        if l_uni == 0.0:
            raise ValueError("degenerate test split: univariate error is zero")
        scored.append((1.0 - l_full / l_uni, l_full, l_uni))
    scored.sort(key=lambda s: s[0])
    # the lower median keeps the reported (full, uni) pair tied to one real run
    score, l_full, l_uni = scored[(len(scored) - 1) // 2]
    return CausalityEdge("+".join(cause_vars), target, score, l_full, l_uni)


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

    Each edge is one ``causality_score`` call over one ``FitCache`` (``cache``, or
    a new one), so each pair model is fitted once for both directions. No edges
    are computed among the non-center variables; rendered graphs keep only
    positive-score edges.
    """
    if data.n_vars < 2:
        raise ValueError("causality graph needs at least 2 variables")
    data.index_of(center)
    seeds = list(seeds)  # every edge reads them all
    cache = FitCache() if cache is None else cache
    edges = [causality_score(data, source, target, model_factory, seeds, test_len, horizon,
                             one_step, cache)
             for other in data.names if other != center
             for source, target in ((other, center), (center, other))]
    return CausalityGraph(center=center, edges=edges)
