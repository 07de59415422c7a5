"""Minimal feed-forward network engine.

Implements exactly what the wide, shallow regression networks here need:
relu/linear layers, mean-squared-error loss with exact reverse-mode
gradients, AdaGrad updates, and a deterministic mini-batch training loop
with tail-split validation and early stopping. Everything is float64 so
gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "linear")


class Mlp:
    """Fully connected network with relu hidden layers and a linear output.

    Parameters
    ----------
    layer_dims : sequence of int
        (input, hidden..., output) sizes.
    activations : sequence of str, optional
        Per-layer activation tags; defaults to relu everywhere except a
        linear output layer. Weight W_l has shape (dims[l+1], dims[l]).
    """

    def __init__(self, layer_dims, activations=None):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"layer_dims must be >= 2 positive sizes, got {layer_dims}")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["linear"]
        activations = list(activations)
        if len(activations) != n_layers:
            raise ValueError(f"need {n_layers} activation tags, got {len(activations)}")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.layer_dims = dims
        self.activations = activations
        self.weights = [np.zeros((dims[i + 1], dims[i])) for i in range(n_layers)]
        self.biases = [np.zeros(dims[i + 1]) for i in range(n_layers)]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def initialize(self, rng: np.random.Generator) -> "Mlp":
        """Seeded init: uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
        for i, W in enumerate(self.weights):
            fan_out, fan_in = W.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            self.weights[i] = rng.uniform(-limit, limit, size=W.shape)
            self.biases[i] = np.zeros(fan_out)
        return self

    def parameters(self) -> list[np.ndarray]:
        """Weights then biases, in layer order (views, not copies)."""
        return list(self.weights) + list(self.biases)

    def set_parameters(self, params) -> None:
        n = self.n_layers
        self.weights = [np.array(p, dtype=np.float64) for p in params[:n]]
        self.biases = [np.array(p, dtype=np.float64) for p in params[n:]]

    def forward(self, x) -> np.ndarray:
        """Network output for a single input vector or a (batch, d) matrix."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        h = x.reshape(1, -1) if single else x
        if h.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"input has {h.shape[1]} features, network expects {self.layer_dims[0]}"
            )
        for W, b, act in zip(self.weights, self.biases, self.activations):
            # bias and relu in place on the fresh product: no temporaries per layer
            h = h @ W.T
            h += b
            if act == "relu":
                np.maximum(h, 0.0, out=h)
        return h[0] if single else h

    def loss_and_gradients(self, inputs, targets):
        """Batch MSE loss and its exact gradients.

        The loss is the mean of squared errors over every (sample, output)
        entry. Gradients are returned in :meth:`parameters` order. The relu
        subgradient at 0 is taken as 0.
        """
        X = np.asarray(inputs, dtype=np.float64)
        Y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("inputs and targets must be 2-D (batch, dim)")
        if X.shape[0] != Y.shape[0] or X.shape[0] == 0:
            raise ValueError(f"batch mismatch: {X.shape[0]} inputs, {Y.shape[0]} targets")
        if X.shape[1] != self.layer_dims[0] or Y.shape[1] != self.layer_dims[-1]:
            raise ValueError(
                f"shapes {X.shape}/{Y.shape} do not match network "
                f"({self.layer_dims[0]} -> {self.layer_dims[-1]})"
            )

        # forward, keeping pre-activations for the backward pass
        acts = [X]
        pres = []
        h = X
        for W, b, act in zip(self.weights, self.biases, self.activations):
            a = h @ W.T + b
            pres.append(a)
            h = np.maximum(a, 0.0) if act == "relu" else a
            acts.append(h)

        diff = acts[-1] - Y
        m = X.shape[0] * Y.shape[1]
        loss = float((diff * diff).sum() / m)

        grad_w = [None] * self.n_layers
        grad_b = [None] * self.n_layers
        delta = 2.0 * diff / m
        for i in range(self.n_layers - 1, -1, -1):
            if self.activations[i] == "relu":
                delta *= pres[i] > 0
            grad_w[i] = delta.T @ acts[i]
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i]
        return loss, grad_w + grad_b

    def to_dict(self) -> dict:
        return {
            "layer_dims": self.layer_dims,
            "activations": self.activations,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        """Network from :meth:`to_dict` output; ValueError unless every weight
        and bias has the shape ``layer_dims`` gives it."""
        net = cls(d["layer_dims"], d["activations"])
        weights = [np.asarray(w, dtype=np.float64) for w in d["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in d["biases"]]
        if len(weights) != net.n_layers or len(biases) != net.n_layers:
            raise ValueError(f"layer_dims {net.layer_dims} need {net.n_layers} weights and "
                             f"biases, got {len(weights)} and {len(biases)}")
        for i, (W, b) in enumerate(zip(weights, biases)):
            if W.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
                raise ValueError(f"layer {i} has weight {W.shape} and bias {b.shape}, layer_dims "
                                 f"give {net.weights[i].shape} and {net.biases[i].shape}")
        net.weights, net.biases = weights, biases
        return net


class AdaGradState:
    """Per-parameter squared-gradient accumulators for AdaGrad updates.

    Each parameter also gets two scratch arrays of its shape, so a step
    allocates nothing: fresh temporaries of a wide layer's size are handed
    back to the system and faulted in again on every step.
    """

    def __init__(self, params, learning_rate: float, epsilon: float = 1e-8):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)
        self.accumulators = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]

    def step(self, params, grads) -> None:
        """One AdaGrad update, in place:

        acc += g**2; p -= lr * g / (sqrt(acc) + eps), elementwise, with
        the operations in that order.
        """
        if len(params) != len(self.accumulators) or len(grads) != len(self.accumulators):
            raise ValueError("params/grads do not match optimizer state")
        for p, g, acc, (u, d) in zip(params, grads, self.accumulators, self._scratch):
            np.multiply(g, g, out=u)
            acc += u
            np.sqrt(acc, out=d)
            d += self.epsilon
            np.multiply(self.learning_rate, g, out=u)
            u /= d
            p -= u


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the mini-batch training loop.

    validation_fraction > 0 reserves that tail share of the rows for
    validation; early stopping then triggers after ``patience`` epochs
    without improvement and the best-validation weights are restored.
    """

    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-2
    seed: int = 0
    validation_fraction: float = 0.1
    patience: int = 20
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def validation_rows(self, n_rows: int) -> int:
        """Size of the validation tail that :func:`train` holds out of ``n_rows``."""
        return int(round(n_rows * self.validation_fraction))


@dataclass
class TrainResult:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_val_loss: float = math.nan
    epochs_run: int = 0


def train(net: Mlp, inputs, targets, cfg: TrainConfig) -> tuple[Mlp, TrainResult]:
    """Initialize and train ``net`` in place; returns (net, loss history).

    Fully deterministic for a fixed (cfg.seed, data): weight init and
    batch shuffling both derive from one seeded generator. Raises
    ValueError("training diverged") on a non-finite loss.
    """
    X = np.asarray(inputs, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise ValueError(f"bad design shapes {X.shape} / {Y.shape}")

    rng = np.random.default_rng(cfg.seed)
    net.initialize(rng)
    result = TrainResult()
    if cfg.epochs == 0:
        return net, result

    n = X.shape[0]
    n_val = cfg.validation_rows(n)
    if n - n_val < 1:
        raise ValueError("validation split leaves no training rows")
    X_tr, Y_tr = X[: n - n_val], Y[: n - n_val]
    X_val, Y_val = X[n - n_val :], Y[n - n_val :]
    has_val = n_val > 0

    opt = AdaGradState(net.parameters(), cfg.learning_rate, cfg.epsilon)
    best_val = math.inf
    best_params = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(X_tr))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(X_tr), cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            loss, grads = net.loss_and_gradients(X_tr[take], Y_tr[take])
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at epoch {epoch}: loss={loss}")
            opt.step(net.parameters(), grads)
            epoch_loss += loss
            n_batches += 1
        result.train_losses.append(epoch_loss / n_batches)
        result.epochs_run = epoch + 1

        if has_val:
            pred = net.forward(X_val)
            val_loss = float(np.mean((pred - Y_val) ** 2))
            if not math.isfinite(val_loss):
                raise ValueError(f"training diverged at epoch {epoch}: val loss={val_loss}")
            result.val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = [p.copy() for p in net.parameters()]
                stale = 0
            else:
                stale += 1
                if cfg.patience and stale >= cfg.patience:
                    break
        else:
            result.val_losses.append(math.nan)

    if best_params is not None:
        net.set_parameters(best_params)
        result.best_val_loss = best_val
    return net, result
