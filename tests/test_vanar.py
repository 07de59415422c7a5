import json

import numpy as np
import pytest

from vanar import Dataset, TrainConfig, VanarForecaster, simulate_system1
from vanar.network import Mlp
from vanar.preprocessing import StandardScaler
from vanar.vanar import fit_autoencoder

FAST = dict(hidden_dims=(16, 16), epochs=30)


def chaotic(n=300):
    return simulate_system1(n=n - 1)


class TestAutoencoder:
    def test_planted_subspace_recovery(self):
        rng = np.random.default_rng(7)
        Z = rng.uniform(-1, 1, (400, 2))
        basis = rng.normal(0, 1, (2, 10))
        X = StandardScaler().fit_transform(Z @ basis)
        ae = fit_autoencoder(X, 2, TrainConfig(epochs=1000, learning_rate=1e-2, seed=0))
        assert ae.reconstruction_error < 1e-3

    def test_embedding_must_compress(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        with pytest.raises(ValueError, match="embedding_dim"):
            fit_autoencoder(X, 4, TrainConfig(epochs=1))

    def test_deterministic(self):
        X = np.random.default_rng(1).normal(size=(80, 6))
        cfg = TrainConfig(epochs=20, seed=3)
        a = fit_autoencoder(X, 2, cfg)
        b = fit_autoencoder(X, 2, cfg)
        assert a.reconstruction_error == b.reconstruction_error

    def test_encode_zero_weights_returns_bias(self):
        X = np.random.default_rng(2).normal(size=(40, 6))
        ae = fit_autoencoder(X, 2, TrainConfig(epochs=0, seed=0))
        for w in ae.encoder.weights:
            w[:] = 0.0
        ae.encoder.biases[-1][:] = [0.5, -1.5]
        assert ae.encode(X[0]).tolist() == [0.5, -1.5]

    def test_feature_length_and_purity(self):
        X = np.random.default_rng(3).normal(size=(60, 8))
        ae = fit_autoencoder(X, 3, TrainConfig(epochs=10, seed=1))
        f1 = ae.encode(X[5])
        f2 = ae.encode(X[5])
        assert f1.shape == (3,)
        assert np.array_equal(f1, f2)

    def test_features_centred_reconstruction_kept(self):
        X = np.random.default_rng(5).normal(size=(80, 6))
        ae = fit_autoencoder(X, 2, TrainConfig(epochs=30, seed=2))
        fitted, tail = X[:-8], X[-8:]  # validation tail: default fraction 0.1
        assert np.allclose(ae.encode(fitted).mean(axis=0), 0.0, atol=1e-12)
        assert not np.allclose(ae.encode(X).mean(axis=0), 0.0, atol=1e-12)
        recon = ae.decoder.forward(ae.encode(tail))
        assert np.mean((recon - tail) ** 2) == pytest.approx(ae.reconstruction_error, rel=1e-9)


class TestActivationRule:
    def test_small_lag_deactivates(self):
        model = VanarForecaster(p=3, **FAST).fit(chaotic(250))
        assert model.activated_ is False
        assert model.autoencoder_ is None

    def test_force_with_small_lag_rejected(self):
        with pytest.raises(ValueError, match="p >= 4"):
            VanarForecaster(p=3, force_autoencoder=True, **FAST).fit(chaotic(250))

    def test_force_on(self):
        model = VanarForecaster(p=4, force_autoencoder=True, **FAST).fit(chaotic(250))
        assert model.activated_ is True
        assert model.autoencoder_.embedding_dim == 2
        assert model.heads_[0].layer_dims[0] == 4 * 2 + 2

    def test_force_off(self):
        model = VanarForecaster(p=6, force_autoencoder=False, **FAST).fit(chaotic(250))
        assert model.activated_ is False
        assert model.heads_[0].layer_dims[0] == 6 * 2

    def test_auto_decision_is_deterministic(self):
        a = VanarForecaster(p=4, seed=1, **FAST).fit(chaotic(250))
        b = VanarForecaster(p=4, seed=1, **FAST).fit(chaotic(250))
        assert a.activated_ == b.activated_


class TestHyperparameters:
    @pytest.mark.parametrize("seed", [1.5, True, -1], ids=["float", "bool", "negative"])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            VanarForecaster(p=2, seed=seed, **FAST).fit(chaotic(60))
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            TrainConfig(seed=seed)

    def test_numpy_values_fit_as_the_python_values(self):
        data = chaotic(60)
        numpy = VanarForecaster(p=np.int64(2), hidden_dims=(np.int64(4), np.int64(4)),
                                epochs=np.int64(3), learning_rate=np.float64(0.01)).fit(data)
        python = VanarForecaster(p=2, hidden_dims=(4, 4), epochs=3, learning_rate=0.01).fit(data)
        assert numpy.to_json() == python.to_json()

    def test_p_max_checked_when_p_is_given(self):
        with pytest.raises(ValueError, match="p_max must be a positive integer, got 0"):
            VanarForecaster(p=2, p_max=0, **FAST).fit(chaotic(60))

    @pytest.mark.parametrize("params", [{"hidden_dims": (4, True)}, {"batch_size": True}],
                             ids=["width", "batch_size"])
    def test_bool_is_no_count(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            VanarForecaster(p=2, epochs=1, **params).fit(chaotic(60))


class TestShapes:
    def test_head_width_invariant(self):
        model = VanarForecaster(p=5, force_autoencoder=True, embedding_dim=3, **FAST).fit(chaotic(300))
        assert all(h.layer_dims[0] == 5 * 2 + 3 for h in model.heads_)
        model2 = VanarForecaster(p=5, force_autoencoder=False, **FAST).fit(chaotic(300))
        assert all(h.layer_dims[0] == 5 * 2 for h in model2.heads_)

    def test_univariate_single_head(self):
        data = chaotic(250).select(["x"])
        model = VanarForecaster(p=2, **FAST).fit(data)
        assert len(model.heads_) == 1
        fc = model.forecast(data, 4)
        assert fc.names == ("x",)


class TestForecast:
    def test_h1_equals_one_step_map(self):
        data = chaotic(250)
        model = VanarForecaster(p=4, **FAST).fit(data)
        fc = model.forecast(data, 1)
        from vanar.preprocessing import lag_vector

        scaled = model.scaler_.transform(data.values)
        x = lag_vector(scaled[-4:], 4)
        manual = model.scaler_.inverse_transform(model._predict(x))
        assert fc.values[0] == pytest.approx(manual, rel=1e-12)

    def test_zero_weight_heads_return_inverse_scaled_bias(self):
        data = chaotic(250)
        model = VanarForecaster(p=2, **FAST).fit(data)
        beta = 0.75
        for head in model.heads_:
            for w in head.weights:
                w[:] = 0.0
            for b in head.biases:
                b[:] = 0.0
            head.biases[-1][:] = beta
        fc = model.forecast(data, 3)
        expect = model.scaler_.inverse_transform(np.array([beta, beta]))
        for t in range(3):
            assert fc.values[t] == pytest.approx(expect, rel=1e-12)

    def test_hand_built_tiny_model_recursion(self):
        # one variable, p=1, identity scaler, head = single linear layer 0.5*s + 0.25
        head = Mlp([1, 1], activations=["linear"])
        head.weights[0] = np.array([[0.5]])
        head.biases[0] = np.array([0.25])
        doc = {
            "model": "vanar",
            "p": 1,
            "names": ["x"],
            "activated": False,
            "scaler": {"mean": [0.0], "scale": [1.0]},
            "autoencoder": None,
            "heads": [head.to_dict()],
        }
        model = VanarForecaster.from_json(json.dumps(doc))
        hist = Dataset(("x",), [[1.0]])
        fc = model.forecast(hist, 3)
        assert fc.values[:, 0] == pytest.approx([0.75, 0.625, 0.5625], rel=1e-12)

    def test_insufficient_history(self):
        model = VanarForecaster(p=5, **FAST).fit(chaotic(250))
        with pytest.raises(ValueError, match="insufficient history"):
            model.forecast(chaotic(250).rows(0, 3), 2)

    def test_deterministic_end_to_end(self):
        data = chaotic(250)
        a = VanarForecaster(p=4, seed=9, **FAST).fit(data).forecast(data, 8)
        b = VanarForecaster(p=4, seed=9, **FAST).fit(data).forecast(data, 8)
        assert np.array_equal(a.values, b.values)

    def test_ana_is_vanar_on_one_variable(self):
        series = chaotic(250).select(["x"])
        a = VanarForecaster(p=4, seed=2, **FAST).fit(series)
        b = VanarForecaster(p=4, seed=2, **FAST).fit(series)
        assert a.activated_ == b.activated_
        fa = a.forecast(series, 6)
        fb = b.forecast(series, 6)
        assert np.array_equal(fa.values, fb.values)


class TestRollingVsRecursive:
    def test_modes_differ_beyond_one_step(self):
        from vanar.causality import rolling_one_step
        from vanar import split_dataset

        data = chaotic(260)
        train, test = split_dataset(data, 250, 10)
        model = VanarForecaster(p=4, **FAST).fit(train)
        recursive = model.forecast(train, 10)
        rolling = rolling_one_step(model, train, test)
        # first step identical (same information set)
        assert np.array_equal(recursive.values[0], rolling.values[0])
        # later steps diverge as soon as predictions differ from actuals
        assert not np.array_equal(recursive.values[1:], rolling.values[1:])


def _narrow_hidden_layer(head):
    """A head document whose one hidden layer loses a unit, its shapes kept consistent."""
    head["layer_dims"][1] -= 1
    head["weights"] = [head["weights"][0][:-1], [head["weights"][1][0][:-1]]]
    head["biases"][0].pop()


class TestSerialization:
    def test_roundtrip_preserves_forecasts(self):
        data = chaotic(250)
        model = VanarForecaster(p=4, seed=3, **FAST).fit(data)
        back = VanarForecaster.from_json(model.to_json())
        assert back.activated_ == model.activated_
        fa = model.forecast(data, 6)
        fb = back.forecast(data, 6)
        assert np.array_equal(fa.values, fb.values)

    def test_untrained_autoencoder_document_loads(self):
        data = chaotic(60)
        model = VanarForecaster(p=4, hidden_dims=(4,), epochs=0, force_autoencoder=True).fit(data)
        text = model.to_json()
        assert '"reconstruction_error": NaN' in text  # no epoch, no error to report
        back = VanarForecaster.from_json(text)
        assert np.array_equal(back.forecast(data, 3).values, model.forecast(data, 3).values)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["scaler"]["mean"].append(0.0), "scaler mean"),
        (lambda d: d["scaler"].update(scale=[1.0]), "scaler mean"),
        (lambda d: d["heads"].pop(), "one single-output head per name"),
        (lambda d: d["heads"].append(d["heads"][0]), "one single-output head per name"),
        (lambda d: d.update(autoencoder=None), "without an autoencoder"),
        (lambda d: d["autoencoder"].update(embedding_dim=d["autoencoder"]["embedding_dim"] + 1),
         "must be equal"),
        (lambda d: d["heads"][1]["biases"][0].pop(), "layer_dims give"),
        (lambda d: d.update(p=5), "heads take"),
        (lambda d: d.update(activated=False, autoencoder=None), "heads take"),
        (lambda d: d.update(heads=5), "nonempty list of objects"),
        (lambda d: d.update(heads=[5, 5]), "nonempty list of objects"),
        (lambda d: d.update(heads=[]), "nonempty list of objects"),
        (lambda d: _narrow_hidden_layer(d["heads"][1]), "share one"),
        (lambda d: d["heads"][1].update(activations=["linear", "linear"]), "share one"),
        (lambda d: d["heads"][1].update(layer_dims=[5]),
         r"heads\[1\] layer_dims must be a list of at least 2 items, each item a positive"),
    ], ids=["scaler-mean", "scaler-scale", "head-missing", "head-extra", "autoencoder-missing",
            "embedding-dim", "head-bias", "head-width-p", "head-width-autoencoder", "heads-int",
            "heads-items", "heads-empty", "head-layout-dims", "head-layout-activations",
            "head-one-size"])
    def test_malformed_document_rejected(self, edit, message):
        model = VanarForecaster(p=4, hidden_dims=(4,), epochs=2, force_autoencoder=True)
        doc = json.loads(model.fit(chaotic(60)).to_json())
        edit(doc)
        with pytest.raises(ValueError, match=message):
            VanarForecaster.from_json(json.dumps(doc))

    def test_get_params_roundtrip(self):
        model = VanarForecaster(p=7, hidden_dims=(8,), seed=5)
        params = model.get_params()
        clone = VanarForecaster(**params)
        assert clone.get_params() == params
