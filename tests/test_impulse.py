import numpy as np
import pytest

from vanar import (
    VanarForecaster,
    VarForecaster,
    impulse_path,
    impulse_response,
    simulate_system1,
)


@pytest.fixture(scope="module")
def chaotic_train():
    return simulate_system1(n=299)


@pytest.fixture(scope="module")
def var_model(chaotic_train):
    return VarForecaster(p=2).fit(chaotic_train)


@pytest.fixture(scope="module")
def vanar_model(chaotic_train):
    return VanarForecaster(p=2, hidden_dims=(16, 16), epochs=30).fit(chaotic_train)


class TestImpulsePath:
    def test_zero_shock_equals_plain_forecast(self, var_model, chaotic_train):
        path = impulse_path(var_model, chaotic_train, "y", 0.0, 10)
        plain = var_model.forecast(chaotic_train, 10)
        assert np.array_equal(path.path.values, plain.values)

    def test_zero_shock_equals_plain_forecast_vanar(self, vanar_model, chaotic_train):
        path = impulse_path(vanar_model, chaotic_train, "y", 0.0, 10)
        plain = vanar_model.forecast(chaotic_train, 10)
        assert np.array_equal(path.path.values, plain.values)

    def test_base_untouched_except_shocked_entry(self, var_model, chaotic_train):
        eps = 0.2
        result = impulse_path(var_model, chaotic_train, "y", eps, 5)
        assert result.path.n_obs == 5
        assert result.shock_time == chaotic_train.n_obs
        diff = result.base.values - chaotic_train.values
        assert diff[-1, 1] == pytest.approx(eps)
        diff_rest = diff.copy()
        diff_rest[-1, 1] = 0.0
        assert np.all(diff_rest == 0.0)


class TestImpulseResponse:
    def test_zero_shock_zero_response(self, var_model, vanar_model, chaotic_train):
        for model in (var_model, vanar_model):
            resp = impulse_response(model, chaotic_train, "y", 0.0, 10)
            assert np.all(resp.values == 0.0)

    def test_linear_one_step_equals_phi_column(self, var_model, chaotic_train):
        eps = 0.1
        resp = impulse_response(var_model, chaotic_train, "y", eps, 1)
        j = chaotic_train.index_of("y")
        expect = var_model.phi_[0][:, j] * eps
        assert resp.values[0] == pytest.approx(expect, abs=1e-12)

    def test_linear_in_epsilon(self, var_model, chaotic_train):
        r1 = impulse_response(var_model, chaotic_train, "y", 0.05, 10)
        r2 = impulse_response(var_model, chaotic_train, "y", 0.10, 10)
        assert np.abs(r2.values - 2.0 * r1.values).max() < 1e-10

    def test_superposition_for_linear_models(self, var_model, chaotic_train):
        ra = impulse_response(var_model, chaotic_train, "y", 0.03, 8)
        rb = impulse_response(var_model, chaotic_train, "y", 0.07, 8)
        rab = impulse_response(var_model, chaotic_train, "y", 0.10, 8)
        assert np.abs(rab.values - (ra.values + rb.values)).max() < 1e-10

    def test_vanar_response_is_nonlinear_capable(self, vanar_model, chaotic_train):
        # no superposition assertion for the neural model; just shape and determinism
        r = impulse_response(vanar_model, chaotic_train, "y", 0.1, 6)
        r2 = impulse_response(vanar_model, chaotic_train, "y", 0.1, 6)
        assert r.values.shape == (6, 2)
        assert np.array_equal(r.values, r2.values)

    def test_unknown_shock_var(self, var_model, chaotic_train):
        with pytest.raises(KeyError):
            impulse_response(var_model, chaotic_train, "zz", 0.1, 5)
