import numpy as np
import pytest

from vanar.network import AdaGradState, Mlp, TrainConfig, train


def relative_error(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestForward:
    def test_zero_weights_give_bias(self):
        net = Mlp([3, 4, 2])
        net.biases[1] = np.array([1.5, -2.0])
        out = net.forward([1.0, 2.0, 3.0])
        assert out.tolist() == [1.5, -2.0]

    def test_single_linear_layer_affine(self):
        net = Mlp([1, 1], activations=["linear"])
        net.weights[0] = np.array([[2.0]])
        net.biases[0] = np.array([1.0])
        assert net.forward([3.0]).tolist() == [7.0]

    def test_hand_evaluated_2_2_1(self):
        # a1 = [-1-1+0.5, -0.5+2-1] = [-1.5, 0.5] -> relu [0, 0.5]
        # out = 2*0 - 3*0.5 + 1 = -0.5
        net = Mlp([2, 2, 1])
        net.weights[0] = np.array([[1.0, -1.0], [0.5, 2.0]])
        net.biases[0] = np.array([0.5, -1.0])
        net.weights[1] = np.array([[2.0, -3.0]])
        net.biases[1] = np.array([1.0])
        assert net.forward([-1.0, 1.0])[0] == pytest.approx(-0.5)

    def test_dimension_mismatch(self):
        net = Mlp([3, 2])
        with pytest.raises(ValueError, match="features"):
            net.forward([1.0, 2.0])

    def test_positive_homogeneity_with_zero_biases(self):
        rng = np.random.default_rng(0)
        net = Mlp([4, 6, 5, 2]).initialize(rng)
        for b in net.biases:
            b[:] = 0.0
        x = rng.normal(size=4)
        for c in (0.5, 2.0, 7.3):
            assert np.allclose(net.forward(c * x), c * net.forward(x), rtol=1e-12)


class TestGradients:
    def test_zero_loss_zero_gradients(self):
        net = Mlp([2, 2], activations=["linear"])
        net.weights[0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        loss, grads = net.loss_and_gradients(X, X)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_scalar_linear_neuron(self):
        # y = w*x, w=2, sample (x=1, t=0): loss = 4, dL/dw = 2*y*x = 4
        net = Mlp([1, 1], activations=["linear"])
        net.weights[0] = np.array([[2.0]])
        loss, grads = net.loss_and_gradients([[1.0]], [[0.0]])
        assert loss == pytest.approx(4.0)
        assert grads[0][0, 0] == pytest.approx(4.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        step = 1e-6
        for _ in range(10):
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
            net = Mlp(dims).initialize(rng)
            for b in net.biases:
                # keep relu kinks away from the finite-difference window
                b += rng.uniform(-0.3, 0.3, size=b.shape)
            X = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
            Y = rng.normal(size=(X.shape[0], dims[-1]))
            _, grads = net.loss_and_gradients(X, Y)
            for pi, p in enumerate(net.parameters()):
                flat = p.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + step
                    lp, _ = net.loss_and_gradients(X, Y)
                    flat[k] = orig - step
                    lm, _ = net.loss_and_gradients(X, Y)
                    flat[k] = orig
                    fd = (lp - lm) / (2 * step)
                    assert relative_error(fd, grads[pi].reshape(-1)[k]) < 1e-5

    def test_shape_mismatch(self):
        net = Mlp([2, 1])
        with pytest.raises(ValueError):
            net.loss_and_gradients([[1.0, 2.0]], [[1.0], [2.0]])


class TestFromDict:
    def _doc(self):
        return Mlp([3, 4, 1]).initialize(np.random.default_rng(0)).to_dict()

    @pytest.mark.parametrize("field, index, value", [
        ("weights", 0, np.zeros((3, 4))),   # transposed
        ("weights", 1, np.zeros((1, 5))),   # wider than its layer
        ("biases", 0, np.zeros(3)),
        ("biases", 1, np.zeros(())),        # a number, not a list: its rule refuses it first
    ])
    def test_shape_other_than_layer_dims_rejected(self, field, index, value):
        doc = self._doc()
        doc[field][index] = value.tolist()
        message = "layer_dims give" if value.ndim else "network biases must be"
        with pytest.raises(ValueError, match=message):
            Mlp.from_dict(doc)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_missing_layer_rejected(self, field):
        doc = self._doc()
        doc[field].pop()
        with pytest.raises(ValueError, match="need 2 weights and biases"):
            Mlp.from_dict(doc)


class TestAdaGrad:
    def test_first_step_magnitude_is_learning_rate(self):
        p = [np.array([0.0])]
        opt = AdaGradState(p, learning_rate=0.1, epsilon=0.0)
        opt.step(p, [np.array([4.0])])
        assert p[0][0] == pytest.approx(-0.1)

    def test_zero_gradient_no_change(self):
        p = [np.array([1.0, -2.0])]
        opt = AdaGradState(p, learning_rate=0.1)
        opt.step(p, [np.zeros(2)])
        assert p[0].tolist() == [1.0, -2.0]
        assert np.all(opt.accumulators[0] == 0.0)

    def test_two_hand_applied_steps(self):
        # g=3 then g=4: second update = 0.1 * 4 / sqrt(9 + 16) = 0.08
        p = [np.array([1.0])]
        opt = AdaGradState(p, learning_rate=0.1, epsilon=0.0)
        opt.step(p, [np.array([3.0])])
        after_first = p[0][0]
        assert 1.0 - after_first == pytest.approx(0.1)
        opt.step(p, [np.array([4.0])])
        assert after_first - p[0][0] == pytest.approx(0.08)

    def test_accumulators_nondecreasing(self):
        rng = np.random.default_rng(5)
        p = [rng.normal(size=(3, 2))]
        opt = AdaGradState(p, learning_rate=0.01)
        prev = opt.accumulators[0].copy()
        for _ in range(50):
            opt.step(p, [rng.normal(size=(3, 2))])
            assert np.all(opt.accumulators[0] >= prev)
            prev = opt.accumulators[0].copy()


class TestTrain:
    def test_linear_function_recovery(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(100, 1))
        Y = 2.0 * X
        net = Mlp([1, 16, 1])
        cfg = TrainConfig(epochs=300, learning_rate=0.1, seed=0)
        net, history = train(net, X, Y, cfg)
        assert history.best_val_loss < 1e-3
        assert history.train_losses[-1] < history.train_losses[0]

    def test_zero_epochs_returns_initialized_net(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 2))
        Y = rng.normal(size=(10, 1))
        net = Mlp([2, 4, 1])
        net, history = train(net, X, Y, TrainConfig(epochs=0, seed=3))
        assert history.train_losses == [] and history.val_losses == []
        # weights equal a fresh seeded init
        fresh = Mlp([2, 4, 1]).initialize(np.random.default_rng(3))
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, fresh.weights))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 1))
        cfg = TrainConfig(epochs=20, seed=11)
        net1, h1 = train(Mlp([3, 8, 1]), X, Y, cfg)
        net2, h2 = train(Mlp([3, 8, 1]), X, Y, cfg)
        assert h1.train_losses == h2.train_losses
        assert all(np.array_equal(a, b) for a, b in zip(net1.weights, net2.weights))

    def test_divergence_raises(self):
        # the squared error overflows to inf on the first batch
        X = np.array([[1.0e200]])
        Y = np.array([[0.0]])
        net = Mlp([1, 1], activations=["linear"])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="training diverged"):
            train(net, X, Y, TrainConfig(epochs=5, learning_rate=1.0, validation_fraction=0.0))

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        Y = rng.normal(size=(60, 1))
        cfg = TrainConfig(epochs=200, patience=5, seed=1)
        net, history = train(Mlp([2, 4, 1]), X, Y, cfg)
        assert history.epochs_run <= 200
        assert history.best_val_loss == min(history.val_losses)
