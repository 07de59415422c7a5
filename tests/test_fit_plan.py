"""The run's fit plan: every distinct fit once, shared by all four tasks."""

import hashlib

import numpy as np
import pytest

from vanar import (
    VanarForecaster, VarForecaster, causality_graph, causality_score, simulate_system1,
)
from vanar.base import FitCache
from vanar.experiment import TASKS, load_preset, run


def small_config():
    cfg = load_preset("default-low")
    cfg["tasks"] = list(TASKS)
    for entry in cfg["models"]:
        if entry["kind"] in ("vanar", "ana"):
            entry.update(hidden_dims=[16, 16], epochs=5, patience=0)
    return cfg


def fit_key(est, data):
    params = repr(sorted(est.get_params().items()))
    return type(est).__name__, params, data.names, hashlib.sha1(data.values.tobytes()).hexdigest()


@pytest.fixture
def fits(monkeypatch):
    """Every fit of VanarForecaster and VarForecaster: (key, model, its JSON right after fit)."""
    log = []
    for cls in (VanarForecaster, VarForecaster):
        def fit(self, data, _original=cls.fit):
            model = _original(self, data)
            log.append((fit_key(self, data), model, model.to_json()))
            return model
        monkeypatch.setattr(cls, "fit", fit)
    return log


def csv_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"}


def test_one_run_writes_what_one_run_per_task_writes(tmp_path):
    together = csv_files(run(small_config(), tmp_path / "all")["manifest"].parent)
    apart = {}
    for task in TASKS:
        cfg = small_config()
        cfg["tasks"] = [task]
        apart.update(csv_files(run(cfg, tmp_path / task)["manifest"].parent))
    assert len(together) == 8
    assert together == apart


def test_each_distinct_fit_runs_once_and_stays_unchanged(tmp_path, fits):
    run(small_config(), tmp_path / "out")
    neural = [key for key, model, _ in fits if isinstance(model, VanarForecaster)]
    # vanar on (x, y) for 3 seeds, ana on x and on y for 3 seeds; granger's
    # univariate vanar fits are ana's, and every other task reuses the forecast fits
    assert len(neural) == len(set(neural)) == 9
    keys = [key for key, _, _ in fits]
    assert len(keys) == len(set(keys))
    for _, model, doc in fits:
        assert model.to_json() == doc


def test_graphs_share_a_cache(fits):
    data = simulate_system1(n=99)

    def factory(variables, seed):
        return VanarForecaster(p=4, hidden_dims=(4,), epochs=5, seed=seed)

    kwargs = dict(seeds=(0, 1), test_len=20, horizon=10)
    cache = FitCache()
    first = causality_graph(data, "x", factory, cache=cache, **kwargs)
    n_fits = len(fits)
    second = causality_graph(data, "x", factory, cache=cache, **kwargs)
    assert len(fits) == n_fits == len(cache) == 6  # the pair and each variable alone, per seed
    plain = [causality_graph(data, "x", factory, **kwargs) for _ in range(2)]
    assert len(fits) == n_fits + 2 * 6  # without a cache, each graph's edges share a new one
    assert first.edges == second.edges == plain[0].edges == plain[1].edges


def test_a_seedless_model_is_fitted_once_for_all_seeds(fits):
    data = simulate_system1(n=99)
    causality_score(data, ["x"], "y", lambda variables, seed: VarForecaster(p=2), seeds=(0, 1, 2))
    assert len(fits) == 2  # the pair and y alone


def test_seedless_models_report_the_same_for_any_seeds(tmp_path):
    def config(seeds):
        return {
            "system": "system1",
            "scenario": {"kind": "noise2", "seed": 0},
            "environment": {"train_len": 120, "test_len": 20},
            "models": [{"kind": "var"}, {"kind": "ar"}, {"kind": "naive"}],
            "tasks": list(TASKS),
            "seeds": seeds,
            "p": 3,
        }

    one = csv_files(run(config([0]), tmp_path / "one")["manifest"].parent)
    three = csv_files(run(config([0, 1, 2]), tmp_path / "three")["manifest"].parent)
    assert len(one) == 6
    assert one == three


def test_cache_keys_on_params_and_values():
    data = simulate_system1(n=99)
    cache = FitCache()
    a = cache.fit(VarForecaster(p=2), data)
    assert cache.fit(VarForecaster(p=2), data.with_values(data.values.copy())) is a
    assert cache.fit(VarForecaster(p=3), data) is not a
    assert cache.fit(VarForecaster(p=2), data.select(["x"])) is not a
    shifted = data.with_values(data.values + np.array([0.0, 1e-12]))
    assert cache.fit(VarForecaster(p=2), shifted) is not a
    assert len(cache) == 4
