import json

import numpy as np
import pytest

from vanar import Dataset, VarForecaster, select_lag_aic, simulate_system1
from vanar.var import capped_p_max

PHI = np.array([[0.5, 0.1], [0.0, 0.3]])


def simulate_var1(T, phi=PHI, sd=0.0, seed=0, x0=(1.0, 1.0)):
    rng = np.random.default_rng(seed)
    out = np.empty((T, 2))
    out[0] = x0
    for t in range(1, T):
        out[t] = phi @ out[t - 1]
        if sd:
            out[t] += rng.normal(0, sd, 2)
    return Dataset(("a", "b"), out)


PHI1 = np.array([[0.5, 0.1], [0.0, 0.3]])
PHI2 = np.array([[0.2, 0.0], [0.1, 0.25]])


def simulate_var2(T, seed, sd=0.1):
    rng = np.random.default_rng(seed)
    x = np.zeros((T + 50, 2))
    for t in range(2, T + 50):
        x[t] = PHI1 @ x[t - 1] + PHI2 @ x[t - 2] + rng.normal(0, sd, 2)
    return Dataset(("a", "b"), x[50:])


class TestOlsFit:
    def test_exact_recovery_zero_noise(self):
        model = VarForecaster(p=1).fit(simulate_var1(200))
        assert np.abs(model.phi_[0] - PHI).max() < 1e-8

    def test_exact_recovery_of_two_lags(self):
        x = np.zeros((120, 2))
        x[:2] = [[1.0, -0.5], [0.3, 0.8]]
        for t in range(2, 120):
            x[t] = PHI1 @ x[t - 1] + PHI2 @ x[t - 2]
        model = VarForecaster(p=2).fit(Dataset(("a", "b"), x))
        assert np.abs(model.phi_[0] - PHI1).max() < 1e-8
        assert np.abs(model.phi_[1] - PHI2).max() < 1e-8

    def test_recovery_with_noise(self):
        model = VarForecaster(p=1).fit(simulate_var1(1000, sd=0.01, seed=1))
        assert np.abs(model.phi_[0] - PHI).max() < 0.05

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(42)
        data = Dataset(("a", "b"), rng.normal(size=(10000, 2)))
        model = VarForecaster(p=1).fit(data)
        assert np.abs(model.phi_[0]).max() < 0.05

    def test_constant_term_recovers_mean(self):
        rng = np.random.default_rng(7)
        data = Dataset(("a",), 5.0 + rng.normal(0, 0.1, size=(1000, 1)))
        model = VarForecaster(p=1, det="constant").fit(data)
        assert abs(model.phi_[0][0, 0]) < 0.05
        assert model.const_[0] == pytest.approx(5.0, abs=0.3)

    def test_singular_design_raises(self):
        # two identical variables make the design rank deficient
        base = np.arange(30.0)
        data = Dataset(("a", "b"), np.column_stack([base, base]))
        with pytest.raises(ValueError, match="singular design"):
            VarForecaster(p=1).fit(data)

    def test_residuals_orthogonal_to_design(self):
        data = simulate_var2(300, seed=3)
        model = VarForecaster(p=2, det="constant").fit(data)
        resid = model._residuals(data)
        from vanar.preprocessing import lag_matrix

        X = lag_matrix(data.values, 2)
        assert np.abs(X.T @ resid).max() < 1e-8
        assert np.abs(resid.sum(axis=0)).max() < 1e-8  # intercept column

    def test_univariate_same_code_path(self):
        data = simulate_var2(200, seed=5)
        only_a = data.select(["a"])
        m = VarForecaster(p=2).fit(only_a)
        # hand OLS on the scalar series
        v = only_a.values[:, 0]
        X = np.column_stack([v[1:-1], v[:-2]])
        y = v[2:]
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        assert m.phi_[0][0, 0] == pytest.approx(beta[0], rel=1e-10)
        assert m.phi_[1][0, 0] == pytest.approx(beta[1], rel=1e-10)

    def test_resid_cov_symmetric_psd(self):
        model = VarForecaster(p=2).fit(simulate_var2(300, seed=9))
        S = model.resid_cov_
        assert np.allclose(S, S.T)
        assert np.all(np.linalg.eigvalsh(S) >= -1e-12)


class TestAic:
    def test_perfect_fit_degenerate_covariance(self):
        data = Dataset(("x",), np.full((50, 1), 3.0))
        model = VarForecaster(p=1).fit(data)
        with pytest.raises(ValueError, match="degenerate residual covariance"):
            model.aic(data)

    def test_scalar_formula(self):
        data = simulate_var2(300, seed=1).select(["a"])
        model = VarForecaster(p=2, det="constant").fit(data)
        resid = model._residuals(data)
        t_eff = resid.shape[0]
        sigma2 = float((resid * resid).sum() / t_eff)
        expected = np.log(sigma2) + 2.0 * (2 + 1) / t_eff
        assert model.aic(data) == pytest.approx(expected, rel=1e-12)

    def test_ordering_matches_hand_computation(self):
        data = simulate_var2(400, seed=2)
        m1 = VarForecaster(p=1).fit(data)
        m2 = VarForecaster(p=2).fit(data)
        hand = []
        for m in (m1, m2):
            resid = m._residuals(data)
            S = resid.T @ resid / resid.shape[0]
            k = 4 * m.p
            hand.append(np.log(np.linalg.det(S)) + 2 * k / resid.shape[0])
        got = [m1.aic(data), m2.aic(data)]
        assert (got[0] < got[1]) == (hand[0] < hand[1])
        assert got == pytest.approx(hand, rel=1e-10)


class TestLagSelection:
    def test_single_candidate(self):
        assert select_lag_aic(simulate_var2(100, seed=0), 1) == 1

    def test_var2_monte_carlo(self):
        hits = sum(select_lag_aic(simulate_var2(400, seed=s), 6) == 2 for s in range(20))
        assert hits >= 16

    def test_iid_noise_prefers_one(self):
        ones = 0
        for s in range(20):
            rng = np.random.default_rng(s)
            data = Dataset(("a", "b"), rng.normal(size=(300, 2)))
            ones += select_lag_aic(data, 6) == 1
        assert ones > 10

    def test_affine_rescaling_keeps_argmin(self):
        data = simulate_var2(400, seed=4)
        scaled = Dataset(data.names, data.values * np.array([100.0, 0.01]) + np.array([5.0, -3.0]))
        p_raw = select_lag_aic(data, 5, det="constant")
        p_scaled = select_lag_aic(scaled, 5, det="constant")
        assert p_raw == p_scaled

    def test_p_max_too_large(self):
        with pytest.raises(ValueError, match="p_max"):
            select_lag_aic(simulate_var2(40, seed=0), 25)

    @pytest.mark.parametrize("T,det,expected",
                             [(31, "constant", 9), (41, "constant+trend", 12), (41, "constant", 12)])
    def test_short_series_order_is_fittable(self, T, det, expected):
        # p_max itself leaves fewer residual degrees of freedom on the common sample than
        # variables (0, 0 and 1 for 2): its residual covariance is singular, so its AIC is
        # rounding noise and would win
        data = simulate_system1(n=T - 1)
        p_max = capped_p_max(15, T)
        p = select_lag_aic(data, p_max, det=det)
        assert p == expected == p_max - 1
        assert VarForecaster(p=p, det=det).fit(data).p_ == p

    def test_order_fit_rejects_is_an_error(self):
        with pytest.raises(ValueError, match="insufficient history: lag order 10 on 2"):
            VarForecaster(p=10, det="constant").fit(simulate_system1(n=30))


class TestForecast:
    def _hand_model(self, phi, names=("a", "b"), det="none", const=None, trend=None):
        n = len(names)
        doc = {
            "model": "var",
            "p": len(phi),
            "det": det,
            "names": list(names),
            "phi": [np.asarray(m).tolist() for m in phi],
            "const": (const or [0.0] * n),
            "trend": (trend or [0.0] * n),
            "resid_cov": np.zeros((n, n)).tolist(),
            "n_obs": 10,
        }
        return VarForecaster.from_json(json.dumps(doc))

    def test_identity_dynamics_repeat_last_row(self):
        model = self._hand_model([np.eye(2)])
        hist = Dataset(("a", "b"), [[1.0, 2.0], [3.0, 4.0]])
        fc = model.forecast(hist, 5)
        assert np.all(fc.values == [3.0, 4.0])

    def test_zero_phi_constant(self):
        model = self._hand_model([np.zeros((2, 2))], det="constant", const=[1.5, -2.0])
        hist = Dataset(("a", "b"), [[9.0, 9.0]])
        fc = model.forecast(hist, 4)
        assert np.all(fc.values == [1.5, -2.0])

    def test_hand_iterated_three_steps(self):
        phi = np.array([[0.5, 0.0], [0.2, 0.3]])
        model = self._hand_model([phi])
        hist = Dataset(("a", "b"), [[1.0, 1.0]])
        fc = model.forecast(hist, 3)
        expected = [[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]]
        assert fc.values == pytest.approx(np.array(expected), rel=1e-12)

    def test_h1_equals_fitted_equation(self):
        data = simulate_var2(200, seed=6)
        model = VarForecaster(p=2, det="constant").fit(data)
        fc = model.forecast(data, 1)
        from vanar.preprocessing import lag_vector

        x = lag_vector(data.values[-2:], 2)
        manual = x @ model.coef_[:4] + model.const_ + model.trend_ * (data.n_obs + 1)
        assert fc.values[0] == pytest.approx(manual, rel=1e-12)

    def test_insufficient_history(self):
        model = VarForecaster(p=3).fit(simulate_var2(100, seed=0))
        with pytest.raises(ValueError, match="insufficient history"):
            model.forecast(Dataset(("a", "b"), [[0.1, 0.1]]), 2)


class TestSerialization:
    def test_json_roundtrip(self):
        data = simulate_var2(150, seed=8)
        model = VarForecaster(p=2, det="constant+trend").fit(data)
        back = VarForecaster.from_json(model.to_json())
        fc1 = model.forecast(data, 7)
        fc2 = back.forecast(data, 7)
        assert np.array_equal(fc1.values, fc2.values)
        assert np.array_equal(back.resid_cov_, model.resid_cov_)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(p=1), "phi, const and trend have shapes"),  # phi holds 2 lags
        (lambda d: d.update(names=["a"]), "phi, const and trend have shapes"),  # phi is 2 x 2
        # one matrix, not a stack: its numbers sit one list too shallow
        (lambda d: d.update(phi=d["phi"][0]), "var model phi must be a nonempty list"),
        # would broadcast over both equations
        (lambda d: d.update(trend=d["trend"][:1]), "phi, const and trend have shapes"),
        (lambda d: d.update(const=d["const"] + [0.0]), "phi, const and trend have shapes"),
    ], ids=["p", "names", "phi", "trend", "const"])
    def test_malformed_document_rejected(self, edit, message):
        model = VarForecaster(p=2, det="constant+trend").fit(simulate_var2(150, seed=8))
        doc = json.loads(model.to_json())
        edit(doc)
        with pytest.raises(ValueError, match=message):
            VarForecaster.from_json(json.dumps(doc))

    def test_get_params(self):
        m = VarForecaster(p=3, det="constant")
        assert m.get_params() == {"p": 3, "det": "constant"}
        m.set_params(p=5)
        assert m.p == 5
        clone = m.clone()
        assert clone.get_params() == m.get_params()
        assert not hasattr(clone, "phi_")


class TestFittedState:
    @pytest.mark.parametrize("params", [{"p": 2}, {"p": 5}, {"det": "none"},
                                        {"det": "constant+trend"}],
                             ids=["p2", "p5", "det-none", "det-trend"])
    def test_set_params_after_fit_leaves_fitted_model_unchanged(self, params):
        data = simulate_var2(150, seed=8)
        model = VarForecaster(p=3, det="constant").fit(data)
        fc, aic, doc = model.forecast(data, 5).values, model.aic(data), model.to_json()
        model.set_params(**params)
        assert np.array_equal(model.forecast(data, 5).values, fc)
        assert model.aic(data) == aic
        assert model.to_json() == doc
