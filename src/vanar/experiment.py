"""Config-driven experiment runner.

A single JSON config describes the data source (simulated scenario or
CSV), the train/test environment, the model roster, and the tasks to run
(forecast, granger, irf, one-step). ``run`` validates the whole config up
front, executes each task, and writes a manifest plus per-task CSV
reports into the output directory. Everything is seeded explicitly, so
replaying a manifest's echoed config reproduces the outputs byte for
byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .base import FitCache
from .causality import causality_graph, rolling_one_step
from .dataset import Dataset, read_csv, read_csv_names, split_dataset, write_table
from .impulse import _shocked_and_unshocked
from .metrics import rmse, rmsse
from .simulate import (
    DEFAULT_X0, SCENARIO_KINDS, ScenarioSpec, TrueSystem, simulate_scenario, simulate_system1,
)
from .validation import (
    COUNT, DET_OPTIONS, FINITE, FLAG, INDEX, NAME, OBJECT, REQUIRED, SOURCE, TEXT,
    check_hyperparameters, check_positive_int, check_table, follows,
)
from .var import P_MAX, NaiveForecaster, VarForecaster, capped_p_max, select_lag_aic
from .vanar import VanarForecaster

TASKS = ("forecast", "granger", "irf", "one-step")

# Every config key's default and rule, in ``validation``'s vocabulary. ``validate_config``
# and ``run`` fill configs from it; they share its defaults, so nothing may mutate them.
CONFIG = {
    "system": (REQUIRED, SOURCE),
    "environment": {"train_len": (REQUIRED, COUNT), "test_len": (REQUIRED, COUNT)},
    "scenario": {"kind": ("default", SCENARIO_KINDS), "seed": (0, INDEX)},
    "x0": (DEFAULT_X0, None),  # the simulator's rule, checked before any output
    "models": ([], [OBJECT, 0]), "tasks": ([], [TASKS, 0]), "seeds": ([0], [INDEX, 1]),
    "p": (None, COUNT), "p_max": (P_MAX, COUNT), "det": ("none", DET_OPTIONS),
    "output_dir": ("vanar-out", TEXT),
    "granger": {"center": (None, TEXT), "test_len": (None, COUNT),
                "horizon": (None, COUNT), "one_step": (False, FLAG)},
    "irf": {"shock_var": (None, TEXT), "epsilon": (0.1, FINITE), "horizon": (20, COUNT)},
}


@dataclass(frozen=True)
class ModelKind:
    """What the runner knows about one ``models[].kind``.

    estimator: the estimator class.
    multivariate: fitted on all variables at once, else on each one alone.
    defaults: constructor arguments that differ from the class's own defaults.
    options: the entry keys it accepts besides ``kind`` and ``label``, which are
    the constructor's arguments except ``seed`` and ``p_max``.
    """

    estimator: type
    multivariate: bool
    defaults: dict = field(default_factory=dict)
    options: tuple[str, ...] = field(init=False)
    _args: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        args = tuple(name for name in self.estimator._param_names() if name != "p_max")
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "options", tuple(name for name in args if name != "seed"))

    def build(self, entry: dict, p: int, seed: int):
        """Unfitted estimator for a validated model entry: the entry's options over the
        kind's defaults, the run's lag order ``p`` unless the entry sets one, and the
        run's ``seed`` if the estimator takes one."""
        opts = {"p": p, "seed": seed, **self.defaults, **entry}
        if isinstance(opts.get("hidden_dims"), list):
            opts["hidden_dims"] = tuple(opts["hidden_dims"])
        return self.estimator(**{name: opts[name] for name in self._args if name in opts})


MODEL_KINDS = {
    "var": ModelKind(VarForecaster, True),
    "ar": ModelKind(VarForecaster, False),
    "vanar": ModelKind(VanarForecaster, True),
    "ana": ModelKind(VanarForecaster, False),
    "naive": ModelKind(NaiveForecaster, False),
    "mlp-baseline": ModelKind(VanarForecaster, False,
                              {"hidden_dims": (256,), "force_autoencoder": False}),
}

# the bundled {kind}-{environment} grid: training rows per environment
_PRESET_TRAIN_LEN = {"high": 850, "medium": 250, "medium350": 350, "low": 50}


class ConfigError(ValueError):
    """Raised with every validation problem found, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


class TaskError(RuntimeError):
    """One or more tasks failed; carries per-task error messages."""

    def __init__(self, failures):
        self.failures = dict(failures)
        lines = "\n".join(f"  - {task}: {err}" for task, err in failures.items())
        super().__init__("task failures:\n" + lines)


def validate_config(cfg: dict) -> list[str]:
    """All validation problems in ``cfg`` (empty list = valid): each key's rule in
    ``CONFIG``, then the rules that span keys."""
    if type(cfg) is not dict:
        return [f"a config must be an object, got {cfg!r}"]
    problems = []
    cfg = check_table(CONFIG, cfg, "", problems)
    system, tasks, granger, irf = cfg["system"], cfg["tasks"], cfg["granger"], cfg["irf"]
    kinds, labels = [], {"true"}  # the labels that name files; irf_true.csv is the system's
    for i, entry in enumerate(cfg["models"]):
        kind = entry.get("kind")
        if type(kind) is not str or kind not in MODEL_KINDS:
            problems.append(f"models[{i}].kind must be one of {tuple(MODEL_KINDS)}, got {kind!r}")
            continue
        kinds.append(MODEL_KINDS[kind])
        allowed = ("kind", "label", *MODEL_KINDS[kind].options)
        for key in entry:
            if key not in allowed:
                problems.append(f"models[{i}]: unknown key {key!r} for kind {kind!r}; "
                                f"allowed: {', '.join(allowed)}")
        label = entry.get("label", kind)  # a report column, and a file name in granger and irf
        if "label" in entry and not follows(label, NAME):
            problems.append(f"models[{i}].label must be {NAME}, got {label!r}")
        elif kinds[-1].multivariate and ("granger" in tasks or "irf" in tasks):
            if label in labels:
                problems.append(f"models[{i}]: label {label!r} (default: the kind) is taken")
            labels.add(label)
        if "p" in entry and entry["p"] is None:  # left out, it is the run's order
            problems.append(f"models[{i}]: p must be a positive integer, got None")
        if len(entry) > 1 + ("label" in entry):  # it sets values: check them as fit will
            try:
                check_hyperparameters(entry)
            except (TypeError, ValueError) as exc:
                problems.append(f"models[{i}]: {exc}")

    if not cfg["models"] and tasks.count("irf") != len(tasks):  # only irf runs without models
        problems.append("tasks requested but no models configured")
    if len(set(tasks)) < len(tasks):  # a task run twice would write its files twice
        problems.append(f"tasks must name each task once, got {tasks}")
    if "granger" in tasks and not any(spec.multivariate for spec in kinds):
        problems.append("granger task needs a 'var' or 'vanar' model entry")
    if "irf" in tasks and type(system) is dict and irf["shock_var"] is None:
        problems.append("irf task on csv data needs irf.shock_var")  # system1 has x, y
    env, test_len = cfg["environment"].values(), granger["test_len"]
    if test_len is not None and REQUIRED not in env and test_len >= sum(env):
        problems.append(f"granger.test_len {test_len} leaves none of the {sum(env)} rows to train")

    # referenced variables must exist in the data source
    names = ("x", "y") if system == "system1" else None
    if type(system) is dict:
        try:
            names = read_csv_names(system["csv"])
        except (OSError, ValueError) as exc:
            problems.append(f"cannot read the csv file: {exc}")
    for name, value in (("granger.center", granger["center"]), ("irf.shock_var", irf["shock_var"])):
        if names and value is not None and value not in names:
            problems.append(f"{name} {value!r} not among variables {names}")
    return problems


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def load_preset(name: str) -> dict:
    """Bundled experiment config by name (see ``list_presets``): a generated
    ``{kind}-{environment}`` grid config, or ``irf-default-high``, the shock experiment."""
    kind, _, env = name.rpartition("-")
    if kind in SCENARIO_KINDS and env in _PRESET_TRAIN_LEN:
        return {
            "system": "system1",
            "scenario": {"kind": kind, "seed": 0},
            "environment": {"train_len": _PRESET_TRAIN_LEN[env], "test_len": 20},
            "models": [{"kind": "vanar"}, {"kind": "ana"}, {"kind": "var"}, {"kind": "ar"}],
            "tasks": ["forecast", "granger"],
            "seeds": [0, 1, 2],
            "p_max": P_MAX,
        }
    if name == "irf-default-high":
        return {
            "system": "system1", "scenario": {"kind": "default", "seed": 0},
            "environment": {"train_len": 850, "test_len": 20}, "p": 5,
            "models": [{"kind": "var"}, {"kind": "vanar", "hidden_dims": [1024, 1024],
                                         "learning_rate": 0.0001, "epochs": 100, "batch_size": 32}],
            "tasks": ["irf"], "seeds": [0],
            "irf": {"shock_var": "y", "epsilon": 0.1, "horizon": 20},
        }
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")


def list_presets() -> list[str]:
    grid = [f"{kind}-{env}" for kind in SCENARIO_KINDS for env in _PRESET_TRAIN_LEN]
    return sorted([*grid, "irf-default-high"])


def _load_data(cfg: dict) -> Dataset:
    env = cfg["environment"]
    total = env["train_len"] + env["test_len"]
    if cfg["system"] == "system1":
        return simulate_scenario(ScenarioSpec(**cfg["scenario"]), n=total - 1, x0=cfg["x0"])
    data = read_csv(cfg["system"]["csv"])
    if data.n_obs < total:
        raise ValueError(f"csv has {data.n_obs} rows, need train+test = {total}")
    return data.rows(0, total)


def resolve_p(train: Dataset, p, p_max: int, det: str = "none") -> int:
    """``p`` if given, else the AIC order of ``train`` up to ``capped_p_max(p_max, T)``: the
    lag order of ``run``, ``vanar fit-var`` and ``vanar granger``."""
    if p is not None:
        return check_positive_int(p, "p")
    return select_lag_aic(train, p_max=capped_p_max(p_max, train.n_obs), det=det)


def _model_label(entry: dict) -> str:
    return entry.get("label", entry["kind"])


def write_granger_csv(graph, path) -> None:
    """Edge list of a causality graph: one row per directed edge."""
    rows = [[e.source, e.target, e.score, e.full_rmse, e.univariate_rmse] for e in graph.edges]
    write_table(path, ["source", "target", "score", "full_rmse", "uni_rmse"], rows)


def write_irf_csv(model, base: Dataset, shock_var: str, epsilon: float, horizon: int,
                  path) -> None:
    """The model's shocked path, unshocked path and response per variable,
    one row per step after the shock to the last row of ``base``."""
    shocked, unshocked = _shocked_and_unshocked(model, base, shock_var, epsilon, horizon)
    header = [f"{var}_{col}" for var in base.names for col in ("shocked", "unshocked", "response")]
    table = np.stack([shocked, unshocked, shocked - unshocked], axis=2).reshape(horizon, -1)
    write_table(path, header, table.tolist())


def _model_runs(cfg, train, test, p, cache):
    """Per model entry and variable: (entry index, variable, one (model, train, test)
    per seed), the model fitted through ``cache`` on the rows it sees: every variable
    for a multivariate kind, else the one variable."""
    for i, entry in enumerate(cfg["models"]):
        kind = MODEL_KINDS[entry["kind"]]
        for var in train.names:
            names = train.names if kind.multivariate else [var]
            fit_train, fit_test = train.select(names), test.select(names)
            yield i, var, [(cache.fit(kind.build(entry, p, seed), fit_train), fit_train, fit_test)
                           for seed in cfg["seeds"]]


def _forecast_task(cfg, data, train, test, p, out_dir, cache) -> list[Path]:
    """Appendix-style tables: one CSV per variable, rows = horizon, cols = model."""
    horizons = sorted({min(10, test.n_obs), test.n_obs})
    labels = [_model_label(e) for e in cfg["models"]]
    per_var: dict[str, list[dict[int, float]]] = {v: [] for v in data.names}  # entry order
    for _, var, fits in _model_runs(cfg, train, test, p, cache):
        preds = [model.forecast(fit_train, test.n_obs).column(var) for model, fit_train, _ in fits]
        per_var[var].append({
            h: float(np.median([rmse(pred[:h], test.column(var)[:h]) for pred in preds]))
            for h in horizons})
    paths = []
    for var in data.names:
        rows = [[h] + [cell[h] for cell in per_var[var]] for h in horizons]
        path = out_dir / f"forecast_{var}.csv"
        write_table(path, ["horizon"] + labels, rows)
        paths.append(path)
    return paths


def _granger_task(cfg, data, train, test, p, out_dir, cache) -> list[Path]:
    gcfg = cfg["granger"]
    paths = []
    for entry in cfg["models"]:
        kind = MODEL_KINDS[entry["kind"]]
        if not kind.multivariate:
            continue
        graph = causality_graph(
            data,
            gcfg["center"] or data.names[0],
            lambda variables, seed: kind.build(entry, p, seed),
            seeds=cfg["seeds"],
            test_len=gcfg["test_len"] or cfg["environment"]["test_len"],
            horizon=gcfg["horizon"],
            one_step=gcfg["one_step"],
            cache=cache,
        )
        path = out_dir / f"granger_{_model_label(entry)}.csv"
        write_granger_csv(graph, path)
        paths.append(path)
    return paths


def _irf_shock(cfg, data) -> tuple:
    """The irf task's (shock_var, epsilon, horizon)."""
    icfg = cfg["irf"]
    return icfg["shock_var"] or data.names[-1], float(icfg["epsilon"]), icfg["horizon"]


def _true_system(cfg, data, train) -> tuple:
    """The true system and the rows it continues at the end of ``train``: the state the
    system was in, not its noisy observation, i.e. the data's trajectory before
    simulate_scenario adds the noise."""
    params = ScenarioSpec(**cfg["scenario"]).params()
    clean = simulate_system1(params, x0=cfg["x0"], n=data.n_obs - 1).rows(0, train.n_obs)
    return TrueSystem(params), clean


def _irf_task(cfg, data, train, test, p, out_dir, cache) -> list[Path]:
    shock, seed = _irf_shock(cfg, data), cfg["seeds"][0]
    paths = []
    for entry in cfg["models"]:  # each file written once its model is fitted
        kind = MODEL_KINDS[entry["kind"]]
        if kind.multivariate:
            paths.append(out_dir / f"irf_{_model_label(entry)}.csv")
            write_irf_csv(cache.fit(kind.build(entry, p, seed), train), train, *shock, paths[-1])
    if cfg["system"] == "system1":
        paths.append(out_dir / "irf_true.csv")
        write_irf_csv(*_true_system(cfg, data, train), *shock, paths[-1])
    return paths


def _one_step_task(cfg, data, train, test, p, out_dir, cache) -> list[Path]:
    """Rolling one-step scaled errors (and raw RMSE) per variable and model."""
    cells = {}
    for i, var, fits in _model_runs(cfg, train, test, p, cache):
        preds = [rolling_one_step(*fit).column(var) for fit in fits]
        actual, last_train = test.column(var), train.column(var)[-1]
        cells[var, i] = (float(np.median([rmsse(pred, actual, last_train) for pred in preds])),
                         float(np.median([rmse(pred, actual) for pred in preds])))
    models = range(len(cfg["models"]))
    rows = [[var, metric] + [cells[var, i][m] for i in models]
            for var in data.names for m, metric in enumerate(("rmsse", "rmse"))]
    path = out_dir / "onestep.csv"
    write_table(path, ["variable", "metric"] + [_model_label(e) for e in cfg["models"]], rows)
    return [path]


def run(cfg: dict, out_dir=None) -> dict:
    """Run a config in ``out_dir`` (None: its ``output_dir``): {"manifest": path, "outputs":
    [paths]}. ConfigError lists every problem before any output: an invalid config, data that
    cannot be loaded, a lag order they cannot fit, an irf shock the true system diverges
    from. Task failures come after the manifest."""
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    echo = {k: v for k, v in cfg.items() if k != "output_dir"}
    cfg = check_table(CONFIG, cfg, "", [])
    env = cfg["environment"]
    # before any output: a bad start state, a diverging simulation, a short csv, no AIC
    # order, or an irf shock that drives the true system's path out of bounds
    try:
        data = _load_data(cfg)
        train, test = split_dataset(data, env["train_len"], env["test_len"])
        p = resolve_p(train, cfg["p"], cfg["p_max"], cfg["det"]) if cfg["models"] else None
        if "irf" in cfg["tasks"] and cfg["system"] == "system1":
            _shocked_and_unshocked(*_true_system(cfg, data, train), *_irf_shock(cfg, data))
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    short = []  # lag orders the training rows cannot fit fail before any output
    granger_len = cfg["granger"]["test_len"] if "granger" in cfg["tasks"] else None
    for i, entry in enumerate(cfg["models"]):
        kind = MODEL_KINDS[entry["kind"]]
        model = kind.build(entry, p, 0)
        if getattr(model, "p", None) is None:
            continue
        fits = [("", train.n_obs, train.n_vars if kind.multivariate else 1)]
        if kind.multivariate and granger_len:  # granger fits pairs on the rows before its test
            fits.append((" in granger", data.n_obs - granger_len, min(2, data.n_vars)))
        for where, rows, n_vars in fits:
            try:
                model._check_rows(rows, n_vars, model.p)
            except ValueError as exc:
                short.append(f"models[{i}]{where}: {exc}")
    if short:
        raise ConfigError(short)

    out_dir = Path(out_dir or cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    versions = {"vanar": __version__, "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3]))}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"config": echo, "lag_order": p, "versions": versions},
                                        indent=2, sort_keys=True) + "\n", encoding="utf-8")

    outputs: list[Path] = []
    failures: dict[str, str] = {}
    cache = FitCache()  # the run's fit plan: the tasks share each distinct fit
    runners = {"forecast": _forecast_task, "granger": _granger_task, "irf": _irf_task,
               "one-step": _one_step_task}
    for task in cfg["tasks"]:
        try:
            outputs += runners[task](cfg, data, train, test, p, out_dir, cache)
        except Exception as exc:  # report per task, keep running the rest
            failures[task] = str(exc)
    if failures:
        raise TaskError(failures)
    return {"manifest": manifest_path, "outputs": outputs}
