"""Property tests of the forecast path (lag ordering, VAR recursion, true continuation,
rolling one-step predictions, JSON round trips), the scaler inversion and the AdaGrad step."""

import functools
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vanar import (
    Dataset, LogisticParams, NaiveForecaster, TrueSystem, VanarForecaster, VarForecaster,
    concat_datasets, impulse_path, rolling_one_step, simulate_system1,
)
from vanar.network import AdaGradState, Mlp, TrainConfig, train
from vanar.preprocessing import StandardScaler, lag_matrix, lag_vector
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
def _tiny_vanar():
    """A small fitted VANAR with the autoencoder on, and the series it was fitted on."""
    data = simulate_system1(n=59)
    model = VanarForecaster(p=4, hidden_dims=(8,), epochs=5, force_autoencoder=True).fit(data)
    return model, data


def _model_and_series(kind, seed, n):
    """A fitted model of the given kind and an ``n``-row series it can forecast."""
    rng = np.random.default_rng(seed)
    if kind == "vanar":
        model, data = _tiny_vanar()
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
            _reference_step(params, accumulators, grads, cfg.learning_rate, cfg.epsilon)
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
