"""Command-line interface.

Subcommands: simulate, fit-var, fit-vanar, forecast, granger, irf, run,
ingest. Outputs are CSV or JSON only; every stochastic step takes an
explicit seed so runs can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .causality import causality_graph
from .dataset import read_csv, write_csv, write_table
from .experiment import (
    MODEL_KINDS, ConfigError, TaskError, list_presets, load_config, load_preset, resolve_p, run,
    validate_config, write_granger_csv, write_irf_csv,
)
from .simulate import DEFAULT_X0, SCENARIO_KINDS, ScenarioSpec, simulate_scenario
from .var import DET_OPTIONS, P_MAX, VarForecaster
from .vanar import VanarForecaster


def ingest_csv(path, aggregate: str | None = None, log_columns=(), return_dates: bool = False):
    """Load a CSV, optionally mean-aggregating monthly rows to quarters
    and log-transforming named columns.

    Aggregation requires a row count divisible by 3 (each quarter averages
    three consecutive rows); log transforms reject non-positive values. A
    ``date`` column is carried through unchanged when not aggregating.
    """
    data, dates = read_csv(path, return_dates=True)
    if aggregate not in (None, "quarterly"):
        raise ValueError(f"unknown aggregation {aggregate!r}; only 'quarterly' is supported")
    values = data.values
    if aggregate == "quarterly":
        if data.n_obs % 3 != 0:
            raise ValueError(
                f"cannot aggregate to quarterly: {data.n_obs} rows is not a multiple of 3"
            )
        values = values.reshape(data.n_obs // 3, 3, data.n_vars).mean(axis=1)
        dates = None  # month labels no longer line up with rows
    if log_columns:
        values = values.copy()
        for name in log_columns:
            j = data.index_of(name)
            if np.any(values[:, j] <= 0):
                raise ValueError(f"log of non-positive value in column {name!r}")
            values[:, j] = np.log(values[:, j])
    out = data.with_values(values)
    return (out, dates) if return_dates else out


def _load_model(path: Path):
    text = Path(path).read_text(encoding="utf-8")
    doc = json.loads(text)
    kind = doc.get("model") if type(doc) is dict else None
    if kind not in ("var", "vanar"):
        raise ValueError(f"unrecognized model document {path} (model={kind!r})")
    return (VarForecaster if kind == "var" else VanarForecaster).from_json(text)


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="emit a benchmark-system trajectory as CSV")
    p.add_argument("--scenario", default="default", choices=SCENARIO_KINDS)
    p.add_argument("--n", type=int, default=1000, help="steps after the initial state")
    p.add_argument("--seed", type=int, default=0, help="observation-noise seed")
    p.add_argument("--x0", type=float, nargs=2, default=list(DEFAULT_X0),
                   metavar=("X0", "Y0"))
    p.add_argument("--out", required=True, help="output CSV path")

    def cmd(args):
        spec = ScenarioSpec(kind=args.scenario, seed=args.seed)
        data = simulate_scenario(spec, n=args.n, x0=tuple(args.x0))
        write_csv(data, args.out)
        print(f"wrote {data.n_obs} rows to {args.out}")

    p.set_defaults(func=cmd)


def _add_fit_var(sub):
    p = sub.add_parser("fit-var", help="fit a linear VAR by least squares")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--p", type=int, default=None, help="lag order (default: AIC)")
    p.add_argument("--p-max", type=int, default=P_MAX)
    p.add_argument("--det", default="none", choices=DET_OPTIONS)
    p.add_argument("--out", required=True, help="model JSON path")

    def cmd(args):
        data = read_csv(args.data)
        p_order = resolve_p(data, args.p, args.p_max, args.det)
        model = VarForecaster(p=p_order, det=args.det).fit(data)
        Path(args.out).write_text(model.to_json(), encoding="utf-8")
        print(f"fit VAR-{p_order} (det={args.det}) on {data.n_obs} rows -> {args.out}")

    p.set_defaults(func=cmd)


def _add_fit_vanar(sub):
    # a model flag left out is not passed on, so the estimator keeps its own default
    p = sub.add_parser("fit-vanar", help="fit a neural autoregression",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--p", type=int, help="lag order (default: AIC)")
    p.add_argument("--p-max", type=int)
    p.add_argument("--hidden", dest="hidden_dims", type=int, nargs="+")
    p.add_argument("--embedding-dim", type=int)
    p.add_argument("--force-autoencoder", choices=("on", "off"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--loss-history", default=None,
                   help="optional CSV of per-epoch train/validation losses per head")

    def cmd(args):
        data = read_csv(args.data)
        opts = {k: v for k, v in vars(args).items() if k in VanarForecaster._param_names()}
        if "hidden_dims" in opts:
            opts["hidden_dims"] = tuple(opts["hidden_dims"])
        if "force_autoencoder" in opts:
            opts["force_autoencoder"] = opts["force_autoencoder"] == "on"
        model = VanarForecaster(**opts).fit(data)
        Path(args.out).write_text(model.to_json(), encoding="utf-8")
        if args.loss_history:
            rows = [
                [name, ep, tr, vl]
                for name, hist in zip(model.names_, model.train_histories_)
                for ep, (tr, vl) in enumerate(zip(hist.train_losses, hist.val_losses), 1)
            ]
            write_table(args.loss_history, ["variable", "epoch", "train_loss", "val_loss"], rows)
        state = "activated" if model.activated_ else "deactivated"
        print(f"fit VANAR-{model.p_} ({state} autoencoder) on {data.n_obs} rows -> {args.out}")

    p.set_defaults(func=cmd)


def _add_forecast(sub):
    p = sub.add_parser("forecast", help="recursive h-step forecast from a fitted model")
    p.add_argument("--model", required=True, help="model JSON from fit-var/fit-vanar")
    p.add_argument("--data", required=True, help="history CSV")
    p.add_argument("--h", type=int, required=True, help="horizon")
    p.add_argument("--out", required=True, help="forecast CSV path")

    def cmd(args):
        model = _load_model(args.model)
        history = read_csv(args.data)
        pred = model.forecast(history, args.h)
        write_csv(pred, args.out)
        print(f"wrote {args.h}-step forecast to {args.out}")

    p.set_defaults(func=cmd)


def _add_granger(sub):
    p = sub.add_parser("granger", help="directed causality scores around a center variable")
    p.add_argument("--data", required=True, help="CSV with at least 2 variables")
    p.add_argument("--center", default=None, help="center variable (default: first column)")
    p.add_argument("--model", default="vanar",
                   choices=[name for name, kind in MODEL_KINDS.items() if kind.multivariate])
    p.add_argument("--p", type=int, default=None, help="lag order (default: AIC)")
    p.add_argument("--p-max", type=int, default=P_MAX)
    p.add_argument("--test-len", type=int, default=20)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--one-step", action="store_true",
                   help="score on rolling one-step error instead of recursive")
    p.add_argument("--out", required=True, help="edge-list CSV path")

    def cmd(args):
        data = read_csv(args.data)
        center = args.center or data.names[0]
        train = data.rows(0, data.n_obs - args.test_len)
        p_order = resolve_p(train, args.p, args.p_max)
        kind, entry = MODEL_KINDS[args.model], {"kind": args.model}
        graph = causality_graph(
            data, center, lambda variables, seed: kind.build(entry, p_order, seed),
            seeds=args.seeds, test_len=args.test_len, one_step=args.one_step,
        )
        write_granger_csv(graph, args.out)
        causal = [f"{e.source}->{e.target}" for e in graph.positive_edges()]
        print(f"wrote {len(graph.edges)} edges to {args.out}; causal: {', '.join(causal) or 'none'}")

    p.set_defaults(func=cmd)


def _add_irf(sub):
    p = sub.add_parser("irf", help="impulse path, unshocked path, and response")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.add_argument("--data", required=True, help="history CSV (shock hits its last row)")
    p.add_argument("--shock-var", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--h", type=int, default=20, help="horizon")
    p.add_argument("--out", required=True, help="response CSV path")

    def cmd(args):
        model = _load_model(args.model)
        base = read_csv(args.data)
        write_irf_csv(model, base, args.shock_var, args.epsilon, args.h, args.out)
        print(f"wrote impulse response (shock {args.epsilon} on {args.shock_var}) to {args.out}")

    p.set_defaults(func=cmd)


def _add_run(sub):
    p = sub.add_parser("run", help="config-driven experiment (simulate, fit, report)")
    p.add_argument("--config", default=None, help="experiment config JSON")
    p.add_argument("--preset", default=None,
                   help=f"bundled config; one of: {', '.join(list_presets())}")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--out", default=None, help="output directory")

    def cmd(args):
        if (args.config is None) == (args.preset is None):
            raise SystemExit("run: provide exactly one of --config or --preset")
        cfg = load_config(args.config) if args.config else load_preset(args.preset)
        try:
            problems = validate_config(cfg)  # the config as given, before --seed changes it
            if problems:
                raise ConfigError(problems)
            if args.seed is not None:
                cfg["scenario"] = {**cfg.get("scenario", {}), "seed": args.seed}
            result = run(cfg, args.out)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            raise SystemExit(2)
        except TaskError as exc:
            print(exc, file=sys.stderr)
            raise SystemExit(1)
        print(f"manifest: {result['manifest']}")
        for path in result["outputs"]:
            print(f"wrote {path}")

    p.set_defaults(func=cmd)


def _add_ingest(sub):
    p = sub.add_parser("ingest", help="clean a raw CSV into model-ready form")
    p.add_argument("--data", required=True, help="raw CSV")
    p.add_argument("--aggregate", action="store_true",
                   help="mean-aggregate monthly rows to quarterly")
    p.add_argument("--log-columns", default="",
                   help="comma-separated columns to log-transform")
    p.add_argument("--out", required=True, help="clean CSV path")

    def cmd(args):
        log_cols = [c for c in args.log_columns.split(",") if c]
        data, dates = ingest_csv(
            args.data,
            aggregate="quarterly" if args.aggregate else None,
            log_columns=log_cols,
            return_dates=True,
        )
        write_csv(data, args.out, dates=dates)
        print(f"wrote {data.n_obs} rows x {data.n_vars} variables to {args.out}")

    p.set_defaults(func=cmd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanar",
        description="Linear and neural vector autoregression: forecasting, "
                    "causality, and impulse-response analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_simulate, _add_fit_var, _add_fit_vanar, _add_forecast, _add_granger,
                _add_irf, _add_run, _add_ingest):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
