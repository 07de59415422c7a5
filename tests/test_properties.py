"""Property tests of the forecast path (lag ordering, VAR recursion, true continuation,
rolling one-step predictions, side-by-side recursions, impulse responses, stacked network
rows, stacked VANAR heads, JSON round trips), the scaler inversion, the backprop, the
AdaGrad step, mutated configs, hyperparameters refused alike by a model entry and its
estimator, counting arguments refused exactly where their rule fails, and mutated model
documents."""

import copy
import functools
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vanar import (
    Dataset, LogisticParams, NaiveForecaster, TrueSystem, VanarForecaster, VarForecaster,
    concat_datasets, impulse_path, impulse_response, rolling_one_step, select_lag_aic,
    simulate_system1, split_dataset,
)
from vanar.cli import main
from vanar.dataset import write_csv
from vanar.experiment import MODEL_KINDS, list_presets, load_preset, validate_config
from vanar.network import ACTIVATIONS, ADAGRAD_EPSILON, AdaGradState, Mlp, TrainConfig, train
from vanar.preprocessing import StandardScaler, lag_matrix, lag_vector
from vanar.validation import COUNT, _plain, follows
from vanar.var import DET_OPTIONS

finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def series_and_lag(draw):
    p = draw(st.integers(1, 5))
    T = draw(st.integers(p + 1, p + 12))
    N = draw(st.integers(1, 3))
    return draw(arrays(np.float64, (T, N), elements=finite)), p


@settings(deadline=None)
@given(series_and_lag())
def test_lag_matrix_rows_are_lag_vectors_of_prefixes(case):
    values, p = case
    X = lag_matrix(values, p)
    assert X.shape == (values.shape[0] - p, p * values.shape[1])
    for r in range(X.shape[0]):
        assert np.array_equal(X[r], lag_vector(values[: p + r], p))


@st.composite
def history_and_lag(draw):
    """A (T + 1, N) series with T >= p, possibly a strided view of a wider array, and p."""
    p = draw(st.integers(1, 6))
    T = draw(st.integers(p, p + 12))
    N = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 2))
    wide = draw(arrays(np.float64, (T + 1, N + extra), elements=finite))
    return wide[:, extra:], p


@settings(deadline=None)
@given(history_and_lag())
def test_lag_vector_is_a_fresh_contiguous_lag_matrix_row(case):
    values, p = case
    recent = values[:-1]
    got = lag_vector(recent, p)
    assert got.tobytes() == lag_matrix(values, p)[-1].tobytes()
    # a strided view would send a one-variable lag vector through another matmul path
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, recent)


def _lag_matrix_loop(values, p):
    """The lag matrix column by column: variable j at lag i in column j*p + i - 1."""
    T, N = values.shape
    out = np.empty((T - p, p * N))
    for j in range(N):
        for lag in range(1, p + 1):
            out[:, j * p + (lag - 1)] = values[p - lag:T - lag, j]
    return out


@settings(deadline=None)
@given(history_and_lag())
def test_lag_matrix_is_the_column_loop_in_fresh_c_order(case):
    values, p = case
    X = lag_matrix(values, p)
    assert X.tobytes() == _lag_matrix_loop(values, p).tobytes()
    assert X.flags.c_contiguous and not np.shares_memory(X, values)


def _companion(phi):
    """The (Np, Np) companion matrix of coefficient matrices phi_1..phi_p."""
    p, N, _ = phi.shape
    A = np.zeros((N * p, N * p))
    A[:N] = np.hstack(list(phi))
    A[N:, : N * (p - 1)] = np.eye(N * (p - 1))
    return A


def _stable_var(rng, p, N, det):
    """A fitted VAR with random coefficients rescaled to companion spectral radius <= 0.9."""
    phi = rng.normal(size=(p, N, N))
    radius = np.abs(np.linalg.eigvals(_companion(phi))).max()
    if radius > 0.9:
        # scaling phi_i by c**i scales every companion eigenvalue by c
        c = 0.9 / radius
        phi = phi * c ** np.arange(1, p + 1)[:, None, None]
    doc = {
        "model": "var", "p": p, "det": det, "names": [f"v{j}" for j in range(N)],
        "phi": phi.tolist(),
        "const": (rng.normal(size=N) if det != "none" else np.zeros(N)).tolist(),
        "trend": (rng.normal(size=N) * 0.1 if det == "constant+trend" else np.zeros(N)).tolist(),
        "resid_cov": np.eye(N).tolist(), "n_obs": 100,
    }
    return VarForecaster.from_json(json.dumps(doc))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(DET_OPTIONS), st.integers(0, 15), st.integers(1, 20))
def test_var_forecast_matches_companion_iteration(seed, p, N, det, extra, h):
    # Lütkepohl (2005), section 2.1: Y_t = A Y_{t-1} + (c + d t, 0, ..., 0)
    rng = np.random.default_rng(seed)
    model = _stable_var(rng, p, N, det)
    values = rng.normal(size=(p + extra, N))
    fc = model.forecast(Dataset(model.names_, values), h)

    A = _companion(model.phi_)
    state = values[::-1][:p].reshape(-1)  # (y_T, y_{T-1}, ..., y_{T-p+1})
    expected = np.empty((h, N))
    for s in range(h):
        t = values.shape[0] + s + 1
        state = A @ state
        state[:N] += model.const_ + model.trend_ * t
        expected[s] = state[:N]
    np.testing.assert_allclose(fc.values, expected, rtol=0, atol=1e-10)


def _extract_phi(B, p, N):
    """(p, N, N) coefficient matrices from the stacked OLS solution, lag by lag."""
    phi = np.empty((p, N, N))
    for lag in range(1, p + 1):
        for j in range(N):
            phi[lag - 1][:, j] = B[j * p + (lag - 1)]
    return phi


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(DET_OPTIONS))
def test_fitted_phi_reads_coef_in_lag_matrix_order(seed, p, N, det):
    data = Dataset([f"v{j}" for j in range(N)], np.random.default_rng(seed).normal(size=(60, N)))
    model = VarForecaster(p=p, det=det).fit(data)
    assert model.phi_.tobytes() == _extract_phi(model.coef_, p, N).tobytes()
    back = VarForecaster.from_json(model.to_json())
    assert back.coef_.tobytes() == model.coef_.tobytes()
    assert back.coef_.flags.c_contiguous


logistic_rate = st.floats(2.5, 3.8)
coupling = st.floats(0.0, 0.1)
start = st.floats(0.01, 0.95)


@settings(deadline=None)
@given(logistic_rate, coupling, logistic_rate, coupling, start, start,
       st.integers(1, 60), st.integers(1, 30), st.sampled_from(("x", "y")))
def test_true_system_path_is_the_simulated_continuation(a_x, c_x, a_y, c_y, x0, y0, n, h, var):
    # with a <= 3.8, c <= 0.1 and a start in (0, 0.95] the states stay in (0, 0.95]
    params = LogisticParams(a_x, a_x, c_x, a_y, a_y, c_y)
    full = simulate_system1(params, x0=(x0, y0), n=n - 1 + h)
    path = impulse_path(TrueSystem(params), full.rows(0, n), var, 0.0, h).path
    assert path.names == ("x", "y")
    assert np.array_equal(path.values, full.values[n:])


def _rolling_reference(model, history, actual):
    """One-step predictions by growing the history one true row at a time."""
    preds = []
    context = history
    for t in range(actual.n_obs):
        preds.append(model.forecast(context, 1).values[0])
        context = concat_datasets(context, actual.rows(t, t + 1))
    return Dataset(actual.names, preds)


@functools.cache
def _tiny_vanar(autoencoder=True):
    """A small fitted VANAR, with the autoencoder on unless told otherwise, and the
    series it was fitted on."""
    data = simulate_system1(n=59)
    model = VanarForecaster(p=4, hidden_dims=(8,), epochs=5,
                            force_autoencoder=autoencoder).fit(data)
    return model, data


def _model_and_series(kind, seed, n):
    """A fitted model of the given kind and an ``n``-row series it can forecast."""
    rng = np.random.default_rng(seed)
    if kind in ("vanar", "vanar:plain"):
        model, data = _tiny_vanar(kind == "vanar")
        return model, data.rows(0, n)
    if kind == "true":
        x0 = rng.uniform(0.05, 0.95, size=2)
        return TrueSystem(), simulate_system1(x0=x0, n=n - 1)
    if kind == "naive":
        data = Dataset(("a", "b"), rng.normal(size=(n, 2)))
        return NaiveForecaster().fit(data), data
    det = kind.split(":")[1]
    model = _stable_var(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), det)
    return model, Dataset(model.names_, rng.normal(size=(n, model.n_vars_)))


KINDS = ("naive", "true", *(f"var:{det}" for det in DET_OPTIONS))


@settings(deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(3, 20), st.integers(1, 12))
@example("vanar", 0, 30, 12)
def test_rolling_one_step_equals_growing_history_loop(kind, seed, n_history, n_actual):
    model, data = _model_and_series(kind, seed, n_history + n_actual)
    history, actual = data.rows(0, n_history), data.rows(n_history, n_history + n_actual)
    got = rolling_one_step(model, history, actual)
    expected = _rolling_reference(model, history, actual)
    assert got.names == expected.names
    assert got.values.tobytes() == expected.values.tobytes()


ALL_KINDS = (*KINDS, "vanar", "vanar:plain")


@settings(deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2**32 - 1),
       st.lists(st.integers(4, 30), min_size=1, max_size=5), st.integers(1, 20))
def test_side_by_side_recursions_equal_separate_forecasts(kind, seed, lengths, h):
    # histories of different lengths, so a VAR trend index differs between them
    model, data = _model_and_series(kind, seed, max(lengths))
    histories = [data.rows(0, n) for n in lengths]
    got = model._forecast_many(histories, h)
    assert len(got) == len(histories)
    for path, history in zip(got, histories):
        expected = model.forecast(history, h)
        assert path.names == expected.names
        assert path.values.tobytes() == expected.values.tobytes()


def _values_or_error(compute):
    try:
        return compute().values.tobytes()
    except ValueError as exc:  # a true path that leaves the system's bounds
        return str(exc)


@settings(deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(0, 2**32 - 1), st.integers(4, 30),
       st.floats(-0.5, 0.5), st.integers(1, 20), st.integers(0, 2))
@example("vanar", 0, 30, 0.0, 12, 1)
def test_impulse_response_is_shocked_minus_unshocked_path(kind, seed, n, epsilon, h, var):
    model, base = _model_and_series(kind, seed, n)
    shock_var = base.names[var % base.n_vars]

    def reference():
        shocked = impulse_path(model, base, shock_var, epsilon, h).path
        unshocked = impulse_path(model, base, shock_var, 0.0, h).path
        return Dataset(base.names, shocked.values - unshocked.values)

    got = _values_or_error(lambda: impulse_response(model, base, shock_var, epsilon, h))
    assert got == _values_or_error(reference)


@settings(deadline=None)
@given(st.lists(st.integers(1, 40), min_size=2, max_size=4), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_mlp_forward_of_a_row_stack_equals_lone_rows(dims, batch, seed):
    rng = np.random.default_rng(seed)
    net = Mlp(dims).initialize(rng)
    for b in net.biases:
        b[:] = rng.normal(size=b.shape)
    X = rng.normal(size=(batch, dims[0]))
    stacked = net.forward(X[:, None])
    assert stacked.shape == (batch, 1, dims[-1])
    lone = np.stack([net.forward(x) for x in X])
    assert stacked[:, 0].tobytes() == lone.tobytes()


@settings(deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(1, 40), min_size=1, max_size=2), st.booleans(),
       st.sampled_from([1, 2, 20]), st.integers(0, 2**32 - 1))
def test_vanar_stacked_heads_equal_each_head_alone(n_vars, hidden, autoencoder, batch, seed):
    rng = np.random.default_rng(seed)
    data = Dataset([f"v{j}" for j in range(n_vars)], rng.normal(size=(40, n_vars)))
    written = []  # the document as fit would have written it before stacking the heads
    stack_heads = VanarForecaster._stack_heads
    with mock.patch.object(VanarForecaster, "_stack_heads",
                           lambda self: (written.append(self.to_json()), stack_heads(self))):
        model = VanarForecaster(p=4, hidden_dims=tuple(hidden), embedding_dim=2, epochs=1,
                                force_autoencoder=autoencoder, seed=seed).fit(data)
    assert model.activated_ is autoencoder and model.to_json() == written[0]
    for i, (W, b, _) in enumerate(model._stack):
        assert all(np.shares_memory(head.weights[i], W) and np.shares_memory(head.biases[i], b)
                   for head in model.heads_)
    for head in model.heads_:  # in place, as a caller may edit the heads
        for param in head.parameters():
            param[...] = rng.normal(size=param.shape)
    lags = rng.normal(size=(batch, 1, 4 * n_vars))
    x = np.concatenate([lags, model.autoencoder_.encode(lags)], axis=-1) if autoencoder else lags
    expected = np.concatenate([head.forward(x) for head in model.heads_], axis=-1)
    got = model._predict(lags)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    back = VanarForecaster.from_json(model.to_json())
    assert back._predict(lags).tobytes() == got.tobytes() and back.to_json() == model.to_json()


@settings(deadline=None)
@given(st.sampled_from(DET_OPTIONS), st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 20))
def test_var_json_round_trip_keeps_forecasts(det, seed, p, N, h):
    data = Dataset([f"v{j}" for j in range(N)], np.random.default_rng(seed).normal(size=(40, N)))
    model = VarForecaster(p=p, det=det).fit(data)
    back = VarForecaster.from_json(model.to_json())
    assert back.forecast(data, h).values.tobytes() == model.forecast(data, h).values.tobytes()
    assert back.aic(data) == model.aic(data)


@st.composite
def matrices_with_constant_columns(draw):
    T = draw(st.integers(1, 12))
    N = draw(st.integers(1, 4))
    values = draw(arrays(np.float64, (T, N), elements=finite))
    for j in range(N):
        if draw(st.booleans()):
            values[:, j] = values[0, j]
    return values


@settings(deadline=None)
@given(matrices_with_constant_columns())
def test_scaler_inverse_transform_undoes_transform(values):
    scaler = StandardScaler().fit(values)
    back = scaler.inverse_transform(scaler.transform(values))
    # (x - mean) / scale * scale + mean rounds four times, each within an ulp of the column's size
    assert np.all(np.abs(back - values) <= 4 * np.spacing(np.abs(values).max(axis=0)))


@settings(deadline=None)
@given(matrices_with_constant_columns())
def test_scaler_maps_constant_columns_to_zero(values):
    constant = (values == values[0]).all(axis=0)
    assert np.all(StandardScaler().fit(values).transform(values)[:, constant] == 0.0)


def _reference_loss_and_gradients(net, X, Y):
    """``Mlp.loss_and_gradients`` written with its pre-activations kept and each relu
    mask taken from them."""
    acts, pres, h = [X], [], X
    for W, b, act in zip(net.weights, net.biases, net.activations):
        a = h @ W.T + b
        pres.append(a)
        h = np.maximum(a, 0.0) if act == "relu" else a
        acts.append(h)
    diff = acts[-1] - Y
    m = X.shape[0] * Y.shape[1]
    loss = float((diff * diff).sum() / m)
    grad_w, grad_b = [None] * net.n_layers, [None] * net.n_layers
    delta = 2.0 * diff / m
    for i in range(net.n_layers - 1, -1, -1):
        if net.activations[i] == "relu":
            delta *= pres[i] > 0
        grad_w[i] = delta.T @ acts[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i]
    return loss, grad_w + grad_b


# small integers and zeros put pre-activations exactly on the relu kink; NaN stays NaN
kinked = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]) | st.floats(-5, 5) | st.just(math.nan)


@st.composite
def nets_and_batches(draw):
    """A net of drawn layer widths and activations, with weights and biases drawn (zero
    biases and zero weights among them), a dead relu layer sometimes (a bias so negative
    that no row passes it), and a batch of inputs and targets."""
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    net = Mlp(dims, draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=len(dims) - 1,
                                  max_size=len(dims) - 1)))
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        net.weights[i] = draw(arrays(np.float64, W.shape, elements=kinked))
        zero = st.just(np.zeros(b.shape))
        net.biases[i] = draw(zero | arrays(np.float64, b.shape, elements=kinked))
    dead = draw(st.none() | st.integers(0, net.n_layers - 1))
    if dead is not None:
        net.biases[dead] = np.full(net.biases[dead].shape, -1e6)
    batch = draw(st.integers(1, 5))
    X = draw(arrays(np.float64, (batch, dims[0]), elements=kinked))
    Y = draw(arrays(np.float64, (batch, dims[-1]), elements=st.floats(-5, 5)))
    return net, X, Y


@settings(deadline=None)
@given(nets_and_batches())
def test_loss_and_gradients_equal_the_pre_activation_backprop(case):
    net, X, Y = case
    with np.errstate(invalid="ignore", over="ignore"):
        loss, grads = net.loss_and_gradients(X, Y)
        expected_loss, expected = _reference_loss_and_gradients(net, X, Y)
    assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
    assert len(grads) == len(expected)
    assert all(_same_bits(a, b) for a, b in zip(grads, expected))


def _reference_step(params, accumulators, grads, learning_rate, epsilon):
    """AdaGrad written out of place, in the order the in-place step must keep."""
    for p, g, acc in zip(params, grads, accumulators):
        acc += g * g
        p -= learning_rate * g / (np.sqrt(acc) + epsilon)


def _reference_train(net, X, Y, cfg):
    """``train`` without a validation split, stepping with :func:`_reference_step`."""
    rng = np.random.default_rng(cfg.seed)
    params = net.initialize(rng).parameters()
    accumulators = [np.zeros_like(p) for p in params]
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            _, grads = net.loss_and_gradients(X[take], Y[take])
            _reference_step(params, accumulators, grads, cfg.learning_rate, ADAGRAD_EPSILON)
    return params


@st.composite
def adagrad_runs(draw):
    """Start parameters, 1-20 gradient lists of their shapes, a rate and an epsilon."""
    shapes = draw(st.lists(array_shapes(max_dims=2, max_side=5), min_size=1, max_size=4))
    grad = [st.just(np.zeros(s)) | arrays(np.float64, s, elements=finite) for s in shapes]
    params = [draw(arrays(np.float64, s, elements=finite)) for s in shapes]
    steps = draw(st.lists(st.tuples(*grad).map(list), min_size=1, max_size=20))
    return params, steps, draw(st.floats(1e-6, 10.0)), draw(st.sampled_from((0.0, 1e-8)))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(adagrad_runs())
def test_adagrad_step_is_bit_identical_to_out_of_place_formula(run):
    params, steps, learning_rate, epsilon = run
    got = [p.copy() for p in params]
    opt = AdaGradState(got, learning_rate, epsilon)
    accumulators = [np.zeros_like(p) for p in params]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for grads in steps:
            opt.step(got, grads)
            _reference_step(params, accumulators, grads, learning_rate, epsilon)
    # bit for bit, so NaNs from 0/0 at epsilon=0 and signed zeros count too
    assert all(_same_bits(a, b) for a, b in zip(got, params))
    assert all(_same_bits(a, b) for a, b in zip(opt.accumulators, accumulators))


def test_train_matches_reference_adagrad_loop():
    X = np.random.default_rng(0).normal(size=(40, 5))
    Y = np.sin(X.sum(axis=1, keepdims=True))
    cfg = TrainConfig(epochs=3, batch_size=8, validation_fraction=0.0, seed=4)
    got = train(Mlp([5, 16, 16, 1]), X, Y, cfg)[0].parameters()
    expected = _reference_train(Mlp([5, 16, 16, 1]), X, Y, cfg)
    assert all(_same_bits(a, b) for a, b in zip(got, expected))


# the config of tests/test_acceptance.py::test_criterion_11_end_to_end_determinism
CRITERION_11 = {
    "system": "system1", "scenario": {"kind": "default", "seed": 0},
    "environment": {"train_len": 120, "test_len": 20},
    "models": [{"kind": "var"}, {"kind": "ar"},
               {"kind": "vanar", "hidden_dims": [16, 16], "epochs": 15},
               {"kind": "ana", "hidden_dims": [16, 16], "epochs": 15}, {"kind": "naive"}],
    "tasks": ["forecast", "granger", "irf", "one-step"], "seeds": [0, 1], "p": 4,
    "irf": {"shock_var": "y", "epsilon": 0.1, "horizon": 10},
}
# its layout with models that fit in milliseconds, so that accepted mutations run
CHEAP = {**CRITERION_11, "environment": {"train_len": 60, "test_len": 10}, "p": 2,
         "models": [{"kind": "var"}, {"kind": "ar"}, {"kind": "naive"}],
         "granger": {"test_len": 10, "one_step": False}, "output_dir": "vanar-out"}
CHEAP_KINDS = ("var", "ar", "naive")
BASES = {"criterion-11": CRITERION_11, "cheap": CHEAP,
         **{name: load_preset(name) for name in list_presets()}}
DROP, EXTRA = "<drop>", "extra"  # a mutation's value that deletes its key; an added key
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(-1e3, 1e3, allow_nan=False),
    st.text("ab./-xy", max_size=6),
    st.sampled_from(["var", "ar", "naive", "x", "y", "forecast", "granger", "irf", "system1"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "csv", "seed", EXTRA]), st.integers(0, 3), max_size=2),
)


def _at(value, path):
    return functools.reduce(lambda inner, key: inner[key], path, value)


def _paths(value, path=()):
    """The path of ``value`` and of everything inside it: dict keys and list indices."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(inner, path + (key,))


@st.composite
def config_mutations(draw):
    """(base, path, value, --seed or None): a key of a base config replaced by ``value``,
    a key ``EXTRA`` added to one of its objects, or one of its object keys dropped."""
    base = draw(st.one_of(st.just("cheap"), st.sampled_from(sorted(BASES))))
    paths = list(_paths(BASES[base]))
    objects = [p for p in paths if isinstance(_at(BASES[base], p), dict)]
    action = draw(st.sampled_from(["replace", "add", "drop"]))
    if action == "add":
        path, value = draw(st.sampled_from(objects)) + (EXTRA,), draw(json_values)
    elif action == "drop":
        path, value = draw(st.sampled_from([p for p in paths[1:] if p[:-1] in objects])), DROP
    else:
        path, value = draw(st.sampled_from(paths[1:])), draw(json_values)
    return base, path, value, draw(st.none() | st.integers(-1, 5))


def _mutated(base, path, value):
    """The mutated config, and the value the path held before (None if it was new)."""
    cfg = copy.deepcopy(BASES[base])
    target = _at(cfg, path[:-1])
    before = target[path[-1]] if isinstance(target, list) else target.get(path[-1])
    if value == DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return cfg, before


def _cli_run(cfg, seed, root: Path):
    """``vanar run`` on ``cfg`` with ``--out root/a/b/out``: (exit code, stdout, stderr)."""
    (root / "cfg.json").write_text(json.dumps(cfg))
    argv = ["run", "--config", str(root / "cfg.json"), "--out", str(root / "a" / "b" / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv + ([] if seed is None else ["--seed", str(seed)]))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


@settings(deadline=None, max_examples=150)
@given(config_mutations())
@example(("cheap", ("models", 0, "label"), "x/../../../esc", None)).via("wrote a/esc.csv")
@example(("cheap", ("models", 1), {"kind": "var"}, None)).via("granger_var.csv twice")
@example(("cheap", ("system",), {"csv": 5}, None)).via("validate_config raised TypeError")
@example(("criterion-11", ("system",), {"csv": None}, None)).via("the same for null")
@example(("cheap", ("environment", EXTRA), 1, None)).via("an unknown environment key passed")
@example(("cheap", ("granger", "one_step"), "no", None)).via('"no" chose one-step scoring')
@example(("cheap", ("granger", "test_len"), 70, None)).via("failed after manifest.json")
@example(("cheap", ("output_dir",), 5, None)).via("vanar run printed a traceback")
@example(("cheap", ("scenario",), "noise1", 3)).via("so did vanar run --seed")
@example(("cheap", ("granger", "test_len"), 65, None)).via("granger failed after manifest.json")
@example(("cheap", ("irf", "epsilon"), 1, None)).via("the true path diverged after it")
@example(("cheap", ("tasks", 0), "granger", None)).via("granger ran twice, its file listed twice")
def test_mutated_config_is_refused_or_runs_inside_its_output_dir(case):
    base, path, value, seed = case
    cfg, before = _mutated(base, path, value)
    problems = validate_config(cfg)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    if path[-1] == EXTRA:  # no key is named so
        assert problems
    if isinstance(before, (bool, str)) and path != ("system",) and value not in (None, DROP):
        # a flag or a text replaced by another non-null type ("system" may become an object)
        assert problems or type(value) is type(before)
    models = cfg.get("models", [])
    cheap = isinstance(models, list) and all(
        isinstance(m, dict) and m.get("kind") in CHEAP_KINDS for m in models)
    if problems or cheap:  # an accepted config with neural models would train them
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            code, stdout, stderr = _cli_run(cfg, seed, root)
            assert code in (0, 1, 2) and (code == 2 or not problems), (code, stderr)
            if code == 2:  # refused before any output
                assert not (root / "a").exists()
                return
            out = root / "a" / "b" / "out"
            written = [p for p in (root / "a").rglob("*") if p.is_file()]
            assert all(out in p.parents for p in written), written
            listed = [line[len("wrote "):] for line in stdout.splitlines()
                      if line.startswith("wrote ")]
            assert sorted(listed) == sorted(str(p) for p in written if p.name != "manifest.json")
            # every lag order a task fits is checked on its rows before any output
            assert code == 0, stderr


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(min_value=-3), st.floats(),
                        st.text(max_size=6), st.sampled_from(DET_OPTIONS))
ENTRY_KEYS = [(kind, key) for kind in ("vanar", "var") for key in MODEL_KINDS[kind].table
              if key not in ("kind", "label")]


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(ENTRY_KEYS), st.one_of(json_scalars, st.lists(json_scalars, max_size=3)))
@example(("vanar", "force_autoencoder"), None).via("a null default stays the estimator's")
@example(("var", "p"), None).via("refused by the estimator and, across keys, by the config")
def test_config_and_estimator_refuse_the_same_hyperparameter_values(kind_key, value):
    kind, key = kind_key
    problems = validate_config({"system": "system1", "environment": {"train_len": 60,
                                "test_len": 5}, "models": [{"kind": kind, key: value}]})
    if key == "p" and value is None:  # left out it is the run's order, so an explicit null
        assert problems == ["models[0]: p must be a positive integer, got None"]
        return
    assert len(problems) <= 1, problems
    reported = bool(problems) and problems[0].startswith(
        (f"models[0].{key} must", f"'models[0].{key}' must"))
    assert reported == bool(problems), problems
    two_rows = Dataset(("x", "y"), [[0.1, 0.2], [0.3, 0.5]])  # too few: every fit raises
    estimator = MODEL_KINDS[kind].estimator(**{key: value})
    with pytest.raises(ValueError) as exc:
        estimator.fit(two_rows)
    assert str(exc.value).startswith((f"{key} must", f"'{key}' must")) == reported, exc.value


@functools.cache
def _count_calls():
    """A call per counting argument of the public functions, taking that argument's value
    (the other arguments valid): on a 41-row series and a VAR(2) fitted to it."""
    data = simulate_system1(n=40)
    model = VarForecaster(p=2).fit(data)
    return {"h": lambda v: model.forecast(data, v),
            "horizon": lambda v: impulse_response(model, data, "x", 0.1, v),
            "n": lambda v: simulate_system1(n=v),
            "train_len": lambda v: split_dataset(data, v, 1),
            "test_len": lambda v: split_dataset(data, 1, v),
            "p_max": lambda v: select_lag_aic(data, v)}


# bounded, as ``n`` sizes a simulation; a float that is an integer is no count either
bounded_json = st.one_of(st.none(), st.booleans(), st.integers(-3, 50), st.floats(),
                         st.text(max_size=4), st.integers(-3, 50).map(np.int64))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(["h", "horizon", "n", "train_len", "test_len", "p_max"]), bounded_json)
@example("n", np.True_).via("a numpy bool is no count")
def test_counting_arguments_refuse_exactly_what_follows_refuses(name, value):
    try:
        _count_calls()[name](value)
        refused = False
    except ValueError as exc:  # a count too large for the series raises another message
        refused = str(exc).startswith(f"{name} must be a positive integer, got ")
    assert refused == (not follows(_plain(value), COUNT)), (name, value)


@functools.cache
def _model_documents():
    """Tiny fitted model documents by name, and the series they were fitted on."""
    data = simulate_system1(n=40)
    models = {"var": VarForecaster(p=2),
              "vanar": VanarForecaster(p=2, hidden_dims=(4,), epochs=1),
              "vanar-autoencoder": VanarForecaster(p=4, hidden_dims=(4,), epochs=1,
                                                   force_autoencoder=True)}
    return {name: json.loads(model.fit(data).to_json()) for name, model in models.items()}, data


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def model_mutations(draw):
    """(document, path, value): a node of a tiny fitted model document replaced by
    ``value``, or one of its object keys dropped; the node's depth is drawn first, so
    that the many weights do not crowd out the fields above them."""
    docs, _ = _model_documents()
    name = draw(st.sampled_from(sorted(docs)))
    paths = list(_paths(docs[name]))[1:]
    depth = draw(st.integers(1, max(len(p) for p in paths)))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    drop = isinstance(_at(docs[name], path[:-1]), dict) and draw(st.integers(0, 5)) == 0
    return name, path, DROP if drop else draw(json_values | non_finite)


def _kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _field(path):
    return [key for key in path if type(key) is str][-1]


def _refused_number(path, value):
    """Whether ``value`` at ``path`` is a number a document must not hold: a non-finite
    one (but a NaN reconstruction_error, which an epochs=0 fit writes) or a scale <= 0."""
    return _kind(value) == "number" and (
        not math.isfinite(value) and _field(path) != "reconstruction_error"
        or _field(path) == "scale" and value <= 0)


@settings(deadline=None, max_examples=200)
@given(model_mutations())
@example(("vanar", ("heads", 0, "layer_dims"), 5)).via("Mlp.from_dict raised TypeError")
@example(("vanar", ("heads", 1, "activations"), 5)).via("the same for activations")
@example(("vanar", ("heads", 0, "weights"), 5)).via("the same for weights")
@example(("vanar", ("heads", 0, "layer_dims"), [[1]])).via("the same for nested dims")
@example(("vanar-autoencoder", ("autoencoder",), 5)).via("Autoencoder.from_dict raised it")
@example(("vanar-autoencoder", ("autoencoder", "encoder"), 5)).via("so did Mlp.from_dict")
@example(("vanar", ("scaler",), 5)).via("StandardScaler.from_dict raised TypeError")
@example(("vanar", ("p",), "4")).via("a text lag order raised TypeError")
@example(("vanar-autoencoder", ("activated",), "no")).via('"no" was read as true')
@example(("var", ("resid_cov",), 5)).via("a VAR with a number for resid_cov loaded")
@example(("vanar", ("heads", 0, "weights", 0, 0, 1), math.nan)).via("loaded, named no field")
@example(("vanar", ("heads", 1, "biases", 1, 0), math.inf)).via("the same for a head bias")
@example(("vanar-autoencoder", ("autoencoder", "encoder", "weights", 3, 1, 0), -math.inf))
@example(("vanar-autoencoder", ("autoencoder", "decoder", "biases", 0, 2), math.nan))
@example(("vanar", ("scaler", "scale", 1), 0.0)).via("a zero scale loaded")
@example(("vanar", ("scaler", "scale", 0), -2)).via("so did a negative one")
@example(("vanar", ("scaler", "scale", 0), math.inf)).via("and an infinite one")
@example(("vanar", ("scaler", "mean", 1), math.nan)).via("and a NaN mean")
@example(("var", ("phi", 0, 1, 0), math.inf)).via("an infinite VAR phi loaded")
@example(("var", ("const", 1), math.nan)).via("so did a NaN const")
@example(("var", ("trend", 0), -math.inf)).via("and trend")
@example(("var", ("resid_cov", 0, 1), math.nan)).via("and resid_cov")
@example(("vanar-autoencoder", ("autoencoder", "reconstruction_error"), math.nan))
def test_mutated_model_document_exits_0_or_1(case):
    name, path, value = case
    docs, data = _model_documents()
    doc = copy.deepcopy(docs[name])
    parent = _at(doc, path[:-1])
    before = parent[path[-1]]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    codes, errors = [], []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_csv(data, root / "data.csv")
        (root / "model.json").write_text(json.dumps(doc))
        for argv in (["forecast", "--h", "2"], ["irf", "--shock-var", "x", "--h", "3"]):
            errors.append(io.StringIO())
            with redirect_stdout(io.StringIO()), redirect_stderr(errors[-1]):
                codes.append(main([*argv, "--model", str(root / "model.json"),
                                   "--data", str(root / "data.csv"), "--out", str(root / "o.csv")]))
    assert set(codes) <= {0, 1}
    if before is not None and (value == DROP or _kind(value) != _kind(before)):
        assert codes == [1, 1]  # a field dropped or of another kind is refused on load
    if _kind(before) == "number" and _refused_number(path, value):
        # refused on load, with the document and the field named
        assert codes == [1, 1]
        assert all(f"{doc['model']} model" in e.getvalue() and _field(path) in e.getvalue()
                   for e in errors), [e.getvalue() for e in errors]
