import hashlib

import numpy as np
import pytest

from vanar import (
    LogisticParams,
    ScenarioSpec,
    Dataset,
    TrueSystem,
    add_observation_noise,
    impulse_path,
    impulse_response,
    rolling_one_step,
    simulate_system1,
    spearman,
)
from vanar.simulate import DEFAULT_X0


class TestSimulation:
    def test_hand_evaluated_first_step(self):
        # x1 = 0.4*(3.8 - 3.8*0.4 - 0.02*0.2), y1 = 0.2*(3.5 - 3.5*0.2 - 0.1*0.4)
        d = simulate_system1(x0=(0.4, 0.2), n=1)
        assert d.values[1, 0] == pytest.approx(0.9104, abs=1e-12)
        assert d.values[1, 1] == pytest.approx(0.552, abs=1e-12)

    def test_zero_is_fixed_point(self):
        d = simulate_system1(x0=(0.0, 0.37), n=50)
        assert np.all(d.column("x") == 0.0)

    def test_mirage_correlation(self):
        d = simulate_system1(n=1000)
        rho = spearman(d.column("x"), d.column("y"))
        assert abs(rho) < 0.15

    def test_default_trajectory_stays_in_unit_interval(self):
        d = simulate_system1(x0=(0.4, 0.2), n=1000)
        assert d.values.min() > 0.0
        assert d.values.max() < 1.0

    def test_determinism(self):
        a = simulate_system1(n=200)
        b = simulate_system1(n=200)
        assert np.array_equal(a.values, b.values)

    def test_divergence_guard(self):
        bad = LogisticParams(a_x=9.0, b_x=-9.0, c_x=0.0)
        with pytest.raises(ValueError, match="divergent trajectory"):
            simulate_system1(bad, x0=(0.9, 0.5), n=100)

    @pytest.mark.parametrize("n,digest", [
        (868, "07e2e394751c8e40ea9d7bcc9b5280c6af3ac3f0"),    # fit-high's series
        (4268, "c6f889c4703710b202391a80c4b8accc82aada4e"),   # serve-forecast's series
    ])
    def test_trajectory_bytes_are_pinned(self, n, digest):
        values = simulate_system1(x0=DEFAULT_X0, n=n).values
        assert hashlib.sha1(values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("params,x0,message", [
        (LogisticParams(a_x=9.0, b_x=-9.0, c_x=0.0), (0.9, 0.5),
         "divergent trajectory at step 1: (15.39, 0.83)"),
        (LogisticParams(a_y=4.5), (0.4, 0.2),
         "divergent trajectory at step 5: (0.887103, -14.3392)"),
    ])
    def test_divergence_names_the_step_and_state(self, params, x0, message):
        with pytest.raises(ValueError) as exc:
            simulate_system1(params, x0=x0, n=100)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x0", [
        (0.4,), (0.4, 0.2, 0.1), (float("nan"), 0.2), (0.4, float("inf")), (0.4, -10.5),
        (), 0.4, None, ("a", "b"),
    ], ids=["one", "three", "nan", "inf", "beyond_bound", "empty", "scalar", "none", "text"])
    def test_bad_start_state_is_rejected(self, x0):
        with pytest.raises(ValueError, match="x0 must be two finite numbers"):
            simulate_system1(x0=x0, n=10)

    def test_start_state_may_be_an_array(self):
        a = simulate_system1(x0=np.array([0.4, 0.2]), n=50)
        assert np.array_equal(a.values, simulate_system1(x0=[0.4, 0.2], n=50).values)

    def test_no_interaction_decouples_trajectories(self):
        params = LogisticParams().decoupled()
        a = simulate_system1(params, x0=(0.4, 0.2), n=300)
        b = simulate_system1(params, x0=(0.4, 0.77), n=300)
        assert np.array_equal(a.column("x"), b.column("x"))
        c = simulate_system1(params, x0=(0.13, 0.2), n=300)
        assert np.array_equal(a.column("y"), c.column("y"))


class TestScenarios:
    def test_noise_levels_per_kind(self):
        assert ScenarioSpec("default").noise_sd == 0.0
        assert ScenarioSpec("nointeraction").noise_sd == 0.0
        assert ScenarioSpec("noise1").noise_sd == 0.1
        assert ScenarioSpec("noise2").noise_sd == 0.01

    def test_nointeraction_forces_zero_coupling(self):
        params = ScenarioSpec("nointeraction").params()
        assert params.c_x == 0.0 and params.c_y == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSpec("weird")


class TestObservationNoise:
    def test_zero_sd_is_identity(self):
        d = simulate_system1(n=50)
        assert add_observation_noise(d, 0.0, seed=5) is d

    def test_sample_sd_matches(self):
        d = simulate_system1(n=4999)  # 10000 values
        noisy = add_observation_noise(d, 0.1, seed=2)
        diff = noisy.values - d.values
        assert 0.095 <= diff.std() <= 0.105

    def test_same_seed_identical(self):
        d = simulate_system1(n=50)
        a = add_observation_noise(d, 0.05, seed=9)
        b = add_observation_noise(d, 0.05, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_noise_layering(self):
        # noise(sim) == sim + noise matrix, elementwise
        d = simulate_system1(n=50)
        noisy = add_observation_noise(d, 0.1, seed=4)
        noise = noisy.values - d.values
        assert np.array_equal(d.values + noise, noisy.values)

    def test_negative_sd_rejected(self):
        d = simulate_system1(n=5)
        with pytest.raises(ValueError):
            add_observation_noise(d, -0.1, seed=0)


class TestTrueImpulse:
    def test_zero_shock_continues_the_trajectory(self):
        # eps=0 path is the plain continuation, so the true response is all zeros
        params = LogisticParams()
        full = simulate_system1(params, n=120)
        hist = full.rows(0, 101)
        path = impulse_path(TrueSystem(params), hist, "y", 0.0, 20).path
        assert np.array_equal(path.values, full.values[101:121])
        response = impulse_response(TrueSystem(params), hist, "y", 0.0, 20)
        assert np.all(response.values == 0.0)

    def test_one_step_response_linear_in_shock(self):
        # x's equation is linear in y, so the first-step x response is x_T * (-c_x * eps)
        params = LogisticParams()
        hist = simulate_system1(params, n=849)
        eps = 0.1
        response = impulse_response(TrueSystem(params), hist, "y", eps, 1)
        x_T = hist.values[-1, 0]
        expect = x_T * (-params.c_x * eps)
        got = response.values[0, 0]
        assert got == pytest.approx(expect, rel=1e-10)

    def test_response_diverges_after_ten_steps(self):
        # chaotic amplification: near zero early, large later
        params = LogisticParams()
        hist = simulate_system1(params, n=849)  # 850 rows
        resp_x = np.abs(impulse_response(TrueSystem(params), hist, "y", 0.1, 20).column("x"))
        assert resp_x[:5].max() < 0.05
        assert resp_x[10:].max() > 0.1

    def test_unknown_variable(self):
        hist = simulate_system1(n=10)
        with pytest.raises(KeyError):
            impulse_path(TrueSystem(LogisticParams()), hist, "z", 0.1, 5)

    @pytest.mark.parametrize("query", [
        lambda model, history, actual: model.forecast(history, 3),
        lambda model, history, actual: rolling_one_step(model, history, actual),
    ], ids=["forecast", "one_step"])
    def test_divergence_guard(self, query):
        # from y = 1.5 the next y is about -2.69 (time 3), and the state after it leaves
        # [-10, 10] (time 4), whether predicted from the forecast or from the actual row
        history = Dataset(("x", "y"), [[0.4, 0.2], [0.4, 1.5]])
        actual = Dataset(("x", "y"), [[0.4, -2.69], [0.4, 0.2]])
        with pytest.raises(ValueError, match="divergent trajectory at time 4"):
            query(TrueSystem(), history, actual)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 5], [10, 20, 21, 100]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        a = np.arange(10.0)
        assert spearman(a, -a) == pytest.approx(-1.0)

    def test_hand_ranked_triple(self):
        # ranks a = [1,2,3], b = [3,1,2]; rho = 1 - 6*sum(d^2)/(n(n^2-1)) = -0.5
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_ties_use_average_ranks(self):
        # b has a tie; average ranks keep |rho| < 1
        rho = spearman([1, 2, 3, 4], [1, 2, 2, 3])
        assert rho == pytest.approx(0.9486832980505138)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            spearman([1, 2], [1, 2, 3])
