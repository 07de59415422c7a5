"""Per-layer metrics: which library calls are traced, and what is derived from them.

Each vanar module is a layer. A metric named ``*_s`` is the whole time
of that layer's spans; ``*_self_s`` is self time, the span minus the part
its traced children cover. Counts and times cover the spans of the measured
operations only, except ``simulate.scenario_s``, which also counts the
set-up, because simulating the data is set-up work for most workloads.
"""

from __future__ import annotations

import hashlib

import numpy as np

from spans import SETUP_OP, Tracer
from workloads import ServeForecast


# Notes read positional arguments: the library passes these ones positionally.

def _train_note(args, kwargs, result):
    cfg = args[3]
    return {"epochs": result[1].epochs_run, "rows": len(args[1]),
            "batch_size": cfg.batch_size, "validation_fraction": cfg.validation_fraction}


def _rows_note(args, kwargs, result):
    return len(args[1])


def _concat_note(args, kwargs, result):
    return args[0].values.nbytes + args[1].values.nbytes


def _fit_key_note(args, kwargs, result):
    """Identity of a fit: estimator params, variables and training values."""
    est, data = args
    h = hashlib.sha1(repr(sorted(est.get_params().items())).encode())
    h.update(repr(data.names).encode())
    h.update(np.ascontiguousarray(data.values).tobytes())
    return h.hexdigest()


FUNCTIONS = [
    ("vanar.network", "train", "network.train", _train_note),
    ("vanar.vanar", "fit_autoencoder", "vanar.ae", None),
    ("vanar.preprocessing", "lag_vector", "preprocessing.lag_vector", None),
    ("vanar.preprocessing", "lag_matrix", "preprocessing.lag_matrix", None),
    ("vanar.dataset", "concat_datasets", "dataset.concat", _concat_note),
    ("vanar.causality", "rolling_one_step", "causality.rolling", None),
    ("vanar.causality", "causality_graph", "causality.graph", None),
    ("vanar.var", "select_lag_aic", "var.aic", None),
    ("vanar.impulse", "impulse_path", "impulse.path", None),
    ("vanar.simulate", "simulate_scenario", "simulate.scenario", None),
    ("vanar.experiment", "_forecast_task", "experiment.forecast_task", None),
    ("vanar.experiment", "_granger_task", "experiment.granger_task", None),
    ("vanar.experiment", "_irf_task", "experiment.irf_task", None),
    ("vanar.experiment", "_one_step_task", "experiment.onestep_task", None),
]

METHODS = [
    ("vanar.network", "Mlp", "forward", "network.forward", None),
    ("vanar.network", "Mlp", "loss_and_gradients", "network.grad", _rows_note),
    ("vanar.network", "AdaGradState", "step", "network.step", None),
    ("vanar.vanar", "VanarForecaster", "fit", "vanar.fit", _fit_key_note),
    ("vanar.vanar", "VanarForecaster", "forecast", "vanar.forecast", None),
    ("vanar.var", "VarForecaster", "fit", "var.fit", None),
    ("vanar.var", "VarForecaster", "forecast", "var.forecast", None),
    ("vanar.preprocessing", "StandardScaler", "fit", "preprocessing.scaler", None),
    ("vanar.preprocessing", "StandardScaler", "transform", "preprocessing.scaler", None),
    ("vanar.preprocessing", "StandardScaler", "inverse_transform", "preprocessing.scaler", None),
]

TASKS = ("forecast", "granger", "irf", "onestep")
SERVE_KINDS = ServeForecast.KINDS

# metric -> (end-to-end metric it should move, workload where it shows)
MOVES = {
    **{f"network.{m}": ("op_p50_ref_ms", "fit-high, experiment-low; ~0 on serve-forecast")
       for m in ("grad_calls", "grad_s", "step_calls", "step_s", "train_calls",
                 "train_self_s", "epochs_run", "train_rows_per_s")},
    "network.forward_calls": ("op_p50_ref_ms", "serve-forecast"),
    "network.forward_s": ("op_p50_ref_ms", "serve-forecast"),
    **{f"vanar.{m}": ("op_p50_ref_ms", "experiment-low; unchanged on fit-high")
       for m in ("fit_calls", "fit_distinct", "fit_useful_ratio", "fit_self_s",
                 "ae_calls", "ae_s")},
    **{m: ("op_p50_ref_ms", "serve-forecast")
       for m in ("vanar.forecast_calls", "vanar.forecast_self_s",
                 "preprocessing.lag_vector_calls", "preprocessing.lag_vector_s",
                 "preprocessing.scaler_s")},
    **{m: ("op_p50_ref_ms, op_p99_ref_ms", "serve-forecast, through the one-step query of every operation")
       for m in ("dataset.concat_calls", "dataset.concat_s", "dataset.concat_bytes",
                 "causality.rolling_self_s")},
    "var.aic_s": ("op_p50_ref_ms", "fit-high"),
    **{m: ("op_p50_ref_ms", "experiment-low")
       for m in ("var.fit_s", "var.forecast_s", "preprocessing.lag_matrix_s",
                 "causality.graph_self_s", "impulse.path_s",
                 *(f"experiment.{t}_task_s" for t in TASKS),
                 *(f"experiment.{t}_fits" for t in TASKS))},
    "simulate.scenario_s": ("setup_s", "fit-high, serve-forecast"),
    **{f"serve.{k}_p50_ms": ("op_p50_ref_ms, op_p99_ref_ms", "serve-forecast")
       for k in SERVE_KINDS},
    **{f"trace.{m}": ("none (cost of tracing)", "all")
       for m in ("spans", "untraced_s", "traced_s", "overhead_s", "overhead_ratio")},
}


def install(tracer: Tracer) -> None:
    for module, attr, name, note in FUNCTIONS:
        tracer.patch_function(module, attr, name, note)
    for module, cls, attr, name, note in METHODS:
        tracer.patch_method(module, cls, attr, name, note)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced pass (see the module docstring)."""
    t = tracer.table()
    in_op = t["op"] != SETUP_OP
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(name, everywhere=False):
        mask = t["name"] == ids.get(name, -1)
        return mask if everywhere else mask & in_op

    def count(name):
        return int(sel(name).sum())

    def total(name, everywhere=False):
        return float(t["dur"][sel(name, everywhere)].sum())

    def self_time(name):
        return float(t["self"][sel(name)].sum())

    def notes(name):
        return [tracer.notes[i] for i in np.flatnonzero(sel(name)) if i in tracer.notes]

    trains = notes("network.train")
    fit_keys = notes("vanar.fit")
    fit_idx = np.flatnonzero(sel("vanar.fit"))
    task_names = {f"experiment.{task}_task" for task in TASKS}
    fit_tasks = [tracer.ancestor_named(int(i), task_names) for i in fit_idx]
    train_s = total("network.train")

    m = {
        "network.grad_calls": count("network.grad"),
        "network.grad_s": total("network.grad"),
        "network.step_calls": count("network.step"),
        "network.step_s": total("network.step"),
        "network.train_calls": count("network.train"),
        "network.train_self_s": self_time("network.train"),
        "network.epochs_run": sum(n["epochs"] for n in trains),
        "network.train_rows_per_s": sum(notes("network.grad")) / train_s if train_s else 0.0,
        "network.forward_calls": count("network.forward"),
        "network.forward_s": total("network.forward"),
        "vanar.fit_calls": len(fit_keys),
        "vanar.fit_distinct": len(set(fit_keys)),
        "vanar.fit_useful_ratio": len(set(fit_keys)) / len(fit_keys) if fit_keys else 0.0,
        "vanar.fit_self_s": self_time("vanar.fit"),
        "vanar.ae_calls": count("vanar.ae"),
        "vanar.ae_s": total("vanar.ae"),
        "vanar.forecast_calls": count("vanar.forecast"),
        "vanar.forecast_self_s": self_time("vanar.forecast"),
        "preprocessing.lag_vector_calls": count("preprocessing.lag_vector"),
        "preprocessing.lag_vector_s": total("preprocessing.lag_vector"),
        "preprocessing.scaler_s": total("preprocessing.scaler"),
        "preprocessing.lag_matrix_s": total("preprocessing.lag_matrix"),
        "dataset.concat_calls": count("dataset.concat"),
        "dataset.concat_s": total("dataset.concat"),
        "dataset.concat_bytes": sum(notes("dataset.concat")),
        "causality.rolling_self_s": self_time("causality.rolling"),
        "causality.graph_self_s": self_time("causality.graph"),
        "var.aic_s": total("var.aic"),
        "var.fit_s": total("var.fit"),
        "var.forecast_s": total("var.forecast"),
        "impulse.path_s": total("impulse.path"),
        "simulate.scenario_s": total("simulate.scenario", everywhere=True),
    }
    for task in TASKS:
        m[f"experiment.{task}_task_s"] = total(f"experiment.{task}_task")
        m[f"experiment.{task}_fits"] = fit_tasks.count(f"experiment.{task}_task")
    m["trace.spans"] = len(tracer)
    return m

