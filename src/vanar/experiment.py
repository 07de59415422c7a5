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
    DEFAULT_X0, SCENARIO_KINDS, ScenarioSpec, TrueSystem, check_scenario, simulate_scenario,
    simulate_system1,
)
from .validation import check_hyperparameters, check_positive_int
from .var import P_MAX, NaiveForecaster, VarForecaster, capped_p_max, select_lag_aic
from .vanar import VanarForecaster

TASKS = ("forecast", "granger", "irf", "one-step")

# Every optional config key with its default, one level into the granger and irf
# sections; any other key but "system" and "environment" is a problem. A None default is
# worked out in the run (see the README's config keys). Filled configs share these
# values, so nothing may mutate them.
CONFIG_DEFAULTS = {
    "scenario": {}, "x0": DEFAULT_X0, "models": [], "tasks": [], "seeds": [0],
    "p": None, "p_max": P_MAX, "det": "none", "output_dir": "vanar-out",
    "granger": {"center": None, "test_len": None, "horizon": None, "one_step": False},
    "irf": {"shock_var": None, "epsilon": 0.1, "horizon": 20},
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


def _filled(cfg: dict) -> dict:
    """``cfg`` over ``CONFIG_DEFAULTS``, each section it gives as an object over its own."""
    filled = {**CONFIG_DEFAULTS, **cfg}
    for name in ("granger", "irf"):
        if isinstance(cfg.get(name), dict):
            filled[name] = {**CONFIG_DEFAULTS[name], **cfg[name]}
    return filled


def validate_config(cfg: dict) -> list[str]:
    """All validation problems in ``cfg`` (empty list = valid)."""
    problems = []
    for key in cfg:  # unknown keys as given: the top level, then each section
        if key not in CONFIG_DEFAULTS and key not in ("system", "environment"):
            allowed = sorted(("system", "environment", *CONFIG_DEFAULTS))
            problems.append(f"unknown key {key!r}; allowed: {', '.join(allowed)}")
    for name in ("granger", "irf"):
        section = cfg.get(name)
        for key in section if isinstance(section, dict) else ():
            if key not in CONFIG_DEFAULTS[name]:
                problems.append(f"{name}: unknown key {key!r}; "
                                f"allowed: {', '.join(CONFIG_DEFAULTS[name])}")
    cfg = _filled(cfg)
    for name in ("environment", "scenario", "granger", "irf"):
        if not isinstance(cfg.get(name), dict):
            problems.append(f"'{name}' must be an object, got {cfg.get(name)!r}")
            cfg[name] = CONFIG_DEFAULTS.get(name)  # None for environment: no counts

    system = cfg.get("system")
    if system is None:
        problems.append("missing 'system' (either \"system1\" or {\"csv\": path})")
    elif system != "system1" and not (isinstance(system, dict) and "csv" in system):
        problems.append(f"'system' must be \"system1\" or {{\"csv\": path}}, got {system!r}")

    if system == "system1":
        try:
            check_scenario(**cfg["scenario"])
        except (TypeError, ValueError) as exc:
            problems.append(f"bad 'scenario': {exc}")
    elif isinstance(system, dict) and "csv" in system:
        if not Path(system["csv"]).exists():
            problems.append(f"csv file not found: {system['csv']}")

    env = cfg["environment"]
    counts = [("p_max", cfg["p_max"])]
    if env is not None:  # else reported above
        counts += [("environment.train_len", env.get("train_len")),
                   ("environment.test_len", env.get("test_len"))]
    if cfg["p"] is not None:  # None: the AIC order
        counts.append(("p", cfg["p"]))
    try:  # the AIC scan's deterministic terms
        check_hyperparameters({"det": cfg["det"]})
    except (TypeError, ValueError) as exc:
        problems.append(str(exc))

    models = cfg["models"]
    if not isinstance(models, list) or not all(isinstance(m, dict) for m in models):
        problems.append("'models' must be a list of objects")
        models = []
    kinds = []
    for i, entry in enumerate(models):
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in MODEL_KINDS:
            problems.append(f"models[{i}].kind must be one of {tuple(MODEL_KINDS)}, got {kind!r}")
            continue
        kinds.append(MODEL_KINDS[kind])
        allowed = ("kind", "label", *MODEL_KINDS[kind].options)
        for key in entry:
            if key not in allowed:
                problems.append(f"models[{i}]: unknown key {key!r} for kind {kind!r}; "
                                f"allowed: {', '.join(allowed)}")
        if "p" in entry and entry["p"] is None:  # left out, it is the run's order
            problems.append(f"models[{i}]: p must be a positive integer, got None")
        if len(entry) > 1 + ("label" in entry):  # it sets values: check them as fit will
            try:
                check_hyperparameters(entry)
            except (TypeError, ValueError) as exc:
                problems.append(f"models[{i}]: {exc}")

    tasks = cfg["tasks"]
    if not isinstance(tasks, list):
        problems.append(f"'tasks' must be a list of task names, got {tasks!r}")
        tasks = []
    for task in tasks:
        if task not in TASKS:
            problems.append(f"unknown task {task!r}; tasks are {TASKS}")
    if not models and tasks.count("irf") != len(tasks):  # only irf runs without models
        problems.append("tasks requested but no models configured")

    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds) or not seeds:
        problems.append(f"'seeds' must be a nonempty list of nonnegative integers, got {seeds!r}")

    granger, irf = cfg["granger"], cfg["irf"]
    if "granger" in tasks:
        if not any(spec.multivariate for spec in kinds):
            problems.append("granger task needs a 'var' or 'vanar' model entry")
        for key in ("test_len", "horizon"):
            if granger[key] is not None:
                counts.append((f"granger.{key}", granger[key]))
    if "irf" in tasks:
        if system != "system1" and irf["shock_var"] is None:  # the simulated system has x, y
            problems.append("irf task on csv data needs irf.shock_var")
        eps = irf["epsilon"]
        if not isinstance(eps, (int, float)) or isinstance(eps, bool):
            problems.append(f"irf.epsilon must be a number, got {eps!r}")
        counts.append(("irf.horizon", irf["horizon"]))
    for name, value in counts:
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            problems.append(f"{name} must be a positive integer, got {value!r}")

    # referenced variables must exist in the data source
    names = None
    if system == "system1":
        names = ("x", "y")
    elif isinstance(system, dict) and "csv" in system and Path(system["csv"]).exists():
        try:
            names = read_csv_names(system["csv"])
        except (OSError, ValueError):
            names = None
    if names:
        for name, value in (("granger.center", granger["center"]),
                            ("irf.shock_var", irf["shock_var"])):
            if value is not None and value not in names:
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
    per_var: dict[str, dict[str, dict[int, float]]] = {v: {} for v in data.names}
    for i, var, fits in _model_runs(cfg, train, test, p, cache):
        preds = [model.forecast(fit_train, test.n_obs).column(var) for model, fit_train, _ in fits]
        per_var[var][labels[i]] = {
            h: float(np.median([rmse(pred[:h], test.column(var)[:h]) for pred in preds]))
            for h in horizons}
    paths = []
    for var in data.names:
        rows = [[h] + [per_var[var][label][h] for label in labels] for h in horizons]
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


def _irf_task(cfg, data, train, test, p, out_dir, cache) -> list[Path]:
    icfg = cfg["irf"]
    shock_var = icfg["shock_var"] or data.names[-1]
    epsilon, horizon, seed = float(icfg["epsilon"]), icfg["horizon"], cfg["seeds"][0]
    paths = []
    for entry in cfg["models"]:  # each file written once its model is fitted
        kind = MODEL_KINDS[entry["kind"]]
        if kind.multivariate:
            paths.append(out_dir / f"irf_{_model_label(entry)}.csv")
            write_irf_csv(cache.fit(kind.build(entry, p, seed), train), train, shock_var, epsilon,
                          horizon, paths[-1])
    if cfg["system"] == "system1":
        # the truth continues the state the system was in, not its noisy observation:
        # the data's trajectory before simulate_scenario adds the noise
        params = ScenarioSpec(**cfg["scenario"]).params()
        clean = simulate_system1(params, x0=cfg["x0"], n=data.n_obs - 1).rows(0, train.n_obs)
        paths.append(out_dir / "irf_true.csv")
        write_irf_csv(TrueSystem(params), clean, shock_var, epsilon, horizon, paths[-1])
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


def run(cfg: dict, out_dir) -> dict:
    """Execute a validated config; returns {"manifest": path, "outputs": [paths]}.

    Raises ConfigError (listing every problem) before any work if the
    config is invalid; nothing is written until the data are loaded and every
    model's lag order fits them. Task failures propagate after the manifest is
    written.
    """
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(problems)
    echo = {k: v for k, v in cfg.items() if k != "output_dir"}
    cfg = _filled(cfg)
    data = _load_data(cfg)
    env = cfg["environment"]
    train, test = split_dataset(data, env["train_len"], env["test_len"])
    p = resolve_p(train, cfg["p"], cfg["p_max"], cfg["det"]) if cfg["models"] else None
    short = []  # lag orders the training rows cannot fit fail before any output
    for i, entry in enumerate(cfg["models"]):
        kind = MODEL_KINDS[entry["kind"]]
        model = kind.build(entry, p, 0)
        if getattr(model, "p", None) is not None:
            try:
                model._check_rows(train.n_obs, train.n_vars if kind.multivariate else 1, model.p)
            except ValueError as exc:
                short.append(f"models[{i}]: {exc}")
    if short:
        raise ConfigError(short)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": echo,
        "lag_order": p,
        "versions": {
            "vanar": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

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
