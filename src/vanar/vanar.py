"""Neural vector autoregression with autoencoder feature extraction.

The estimator fits one wide two-hidden-layer relu network per variable on
the standardized lag matrix. When the lag order is at least 4, an
autoencoder can compress the lag vector into a low-dimensional feature
vector, centred like the lags, that is concatenated to the raw lags
before the per-variable heads see them; whether that pays off is decided
by comparing validation one-step error with and without it. Fitting a
single-variable dataset yields the univariate special case (own lags
only) through the same code path.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .base import BaseForecaster
from .dataset import Dataset
from .network import Mlp, TrainConfig, run_layers, train
from .preprocessing import StandardScaler, lag_matrix
from .validation import (
    COUNT, FLAG, NUMBER, OBJECT, check_fields, check_fitted, check_hyperparameters,
    check_model_document, check_positive_int, follows,
)
from .var import P_MAX, capped_p_max, select_lag_aic

MIN_AUTOENCODER_LAG = 4


class Autoencoder:
    """Encoder/decoder pair over lag vectors, with its validation error.

    The encoder maps a p*N lag vector to ``embedding_dim`` features
    through 3 relu hidden layers and a linear bottleneck; the decoder
    mirrors it back. Both halves are trained jointly on reconstruction
    MSE.
    """

    def __init__(self, encoder: Mlp, decoder: Mlp, embedding_dim: int,
                 reconstruction_error: float):
        if not encoder.layer_dims[-1] == embedding_dim == decoder.layer_dims[0]:
            raise ValueError(
                f"encoder output {encoder.layer_dims[-1]}, embedding_dim {embedding_dim} and "
                f"decoder input {decoder.layer_dims[0]} must be equal"
            )
        self.encoder = encoder
        self.decoder = decoder
        self.embedding_dim = embedding_dim
        self.reconstruction_error = reconstruction_error

    def encode(self, lag_vec) -> np.ndarray:
        """Feature vector (length embedding_dim) for one lag vector or a batch."""
        return self.encoder.forward(lag_vec)

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "decoder": self.decoder.to_dict(),
            "embedding_dim": self.embedding_dim,
            "reconstruction_error": self.reconstruction_error,
        }

    @classmethod
    def from_dict(cls, d: dict, what: str = "autoencoder") -> "Autoencoder":
        """Autoencoder from :meth:`to_dict` output; a NaN ``reconstruction_error`` (an
        ``epochs=0`` fit) loads."""
        check_fields(d, {"encoder": OBJECT, "decoder": OBJECT, "embedding_dim": COUNT,
                         "reconstruction_error": NUMBER}, what)
        return cls(
            Mlp.from_dict(d["encoder"], f"{what} encoder"),
            Mlp.from_dict(d["decoder"], f"{what} decoder"),
            d["embedding_dim"],
            d["reconstruction_error"],
        )


def _funnel_dims(width_in: int, width_out: int, n_hidden: int = 3) -> list[int]:
    """Geometrically interpolated hidden widths between two layer sizes."""
    dims = []
    for i in range(1, n_hidden + 1):
        t = i / (n_hidden + 1)
        dims.append(max(1, round(width_in ** (1 - t) * width_out**t)))
    return dims


def fit_autoencoder(design_inputs, embedding_dim: int, cfg: TrainConfig) -> Autoencoder:
    """Train an autoencoder on lag-design rows (already standardized).

    ``embedding_dim`` must be strictly smaller than the input width;
    equal or larger would make the compression vacuous. After training,
    the linear bottleneck is shifted so that the features have zero mean
    over the rows the autoencoder was fitted on (the validation tail left
    out), like the centred lags they are concatenated to; the decoder
    absorbs the shift, so reconstructions are unchanged.
    """
    X = np.asarray(design_inputs, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("design_inputs must be a nonempty 2-D matrix")
    width = X.shape[1]
    check_positive_int(embedding_dim, "embedding_dim")
    if embedding_dim >= width:
        raise ValueError(
            f"embedding_dim must be < input width for compression, "
            f"got {embedding_dim} >= {width}"
        )
    funnel = _funnel_dims(width, embedding_dim)
    dims = [width, *funnel, embedding_dim, *reversed(funnel), width]
    acts = ["relu"] * 3 + ["linear"] + ["relu"] * 3 + ["linear"]
    stack = Mlp(dims, acts)
    stack, history = train(stack, X, X, cfg)

    encoder, decoder = Mlp(dims[:5], acts[:4]), Mlp(dims[4:], acts[4:])  # four layers each
    encoder.weights, encoder.biases = stack.weights[:4], stack.biases[:4]
    decoder.weights, decoder.biases = stack.weights[4:], stack.biases[4:]

    # the bottleneck's offset is arbitrary (the decoder can undo any shift
    # of it), so fix it at zero mean over the rows the stack was fitted on
    n_fit = X.shape[0] - cfg.validation_rows(X.shape[0])
    mean = encoder.forward(X[:n_fit]).mean(axis=0)
    encoder.biases[-1] = encoder.biases[-1] - mean
    decoder.biases[0] = decoder.biases[0] + decoder.weights[0] @ mean

    err = history.best_val_loss
    if math.isnan(err) and history.train_losses:
        err = history.train_losses[-1]
    return Autoencoder(encoder, decoder, embedding_dim, float(err))


def _head_seed(base_seed: int, *key: int) -> int:
    """Stable derived seed for one sub-network of one fit."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class VanarForecaster(BaseForecaster):
    """Per-variable neural autoregression with optional feature extraction.

    Parameters
    ----------
    p : int or None
        Lag order; None selects it with a preliminary linear-VAR AIC scan
        up to ``p_max``.
    hidden_dims : tuple of int
        Head hidden-layer widths (relu). The reference architecture is two
        hidden layers; widths of a few thousand match the original recipe,
        the default 256 keeps desk runs fast.
    embedding_dim : int or None
        Feature-vector length; None picks max(2, p*N // 4).
    force_autoencoder : bool or None
        True/False overrides the activation decision; None lets validation
        one-step error decide (only reachable when p >= 4).
    learning_rate : float
        AdaGrad step size. 1e-4 matches the original recipe at widths in
        the thousands; the 1e-2 default for narrow desk-scale heads is an
        empirical choice, not a width-proportional one (see README).
    seed : int
        Master seed; every sub-network trains from a seed derived from it.

    Attributes (after fit)
    ----------
    heads_ : list of Mlp, one per variable (scalar output each); their weights and
        biases are views of one stacked array per layer, which ``_predict`` runs, so
        edit them in place and do not rebind them
    autoencoder_ : Autoencoder or None
    scaler_ : StandardScaler fitted on the training rows
    activated_ : bool
    p_ : int, the lag order actually used
    """

    def __init__(
        self,
        p: int | None = None,
        hidden_dims: tuple[int, ...] = (256, 256),
        embedding_dim: int | None = None,
        force_autoencoder: bool | None = None,
        epochs: int = 200,
        batch_size: int = 32,
        learning_rate: float = 1e-2,
        patience: int = 20,
        validation_fraction: float = 0.1,
        seed: int = 0,
        p_max: int = P_MAX,
    ):
        self.p = p
        self.hidden_dims = hidden_dims
        self.embedding_dim = embedding_dim
        self.force_autoencoder = force_autoencoder
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.patience = patience
        self.validation_fraction = validation_fraction
        self.seed = seed
        self.p_max = p_max

    def _train_config(self, seed: int) -> TrainConfig:
        knobs = ("epochs", "batch_size", "learning_rate", "validation_fraction", "patience")
        return TrainConfig(seed=seed, **{name: getattr(self, name) for name in knobs})

    def fit(self, data: Dataset) -> "VanarForecaster":
        check_hyperparameters(vars(self))
        p = int(self.p if self.p is not None else
                select_lag_aic(data, p_max=capped_p_max(self.p_max, data.n_obs)))
        T, N = data.values.shape
        self._check_rows(T, N, p)

        self.scaler_ = StandardScaler().fit(data.values)
        scaled = self.scaler_.transform(data.values)
        inputs, targets = lag_matrix(scaled, p), scaled[p:]

        emb = self.embedding_dim or max(2, (p * N) // 4)  # None picks the default

        use_ae = self.force_autoencoder
        if p < MIN_AUTOENCODER_LAG:
            if use_ae:
                raise ValueError(
                    f"feature extraction needs p >= {MIN_AUTOENCODER_LAG}, got p={p}"
                )
            use_ae = False
        if emb >= p * N:
            if use_ae:
                raise ValueError(f"embedding_dim {emb} must be < p*N = {p * N}")
            use_ae = False  # no room to compress; skip the comparison

        # None fits both head sets and keeps the better one on validation
        plain = enriched = None
        if not use_ae:
            plain = self._fit_heads(inputs, targets, N, ae_tag=0)
        if use_ae is None or use_ae:
            ae = fit_autoencoder(inputs, emb, self._train_config(_head_seed(self.seed, 0)))
            ae_inputs = np.hstack([inputs, ae.encode(inputs)])
            enriched = self._fit_heads(ae_inputs, targets, N, ae_tag=1)
        # activated wins ties: feature extraction is the preferred form
        self.activated_ = plain is None or (enriched is not None and enriched[2] <= plain[2])
        self.autoencoder_ = ae if self.activated_ else None
        self.heads_, self.train_histories_, _ = enriched if self.activated_ else plain

        self.p_ = p
        self.names_ = data.names
        self.n_vars_ = N
        self._stack_heads()
        return self

    def _fit_heads(self, inputs, targets, n_vars, ae_tag):
        """One head per variable; returns (heads, histories, mean validation MSE)."""
        heads, histories = [], []
        for j in range(n_vars):
            net = Mlp([inputs.shape[1], *self.hidden_dims, 1])
            cfg = self._train_config(_head_seed(self.seed, 1 + ae_tag, j))
            net, history = train(net, inputs, targets[:, j : j + 1], cfg)
            heads.append(net)
            histories.append(history)
        score = float(np.mean([h.best_val_loss for h in histories])) if histories else math.nan
        return heads, histories, score

    def _to_model(self, values: np.ndarray) -> np.ndarray:
        return self.scaler_.transform(values)

    def _from_model(self, values: np.ndarray) -> np.ndarray:
        return self.scaler_.inverse_transform(values)

    def _stack_heads(self) -> None:
        """Move the heads' weights and biases into one stacked array per layer, slot j
        for head j, and rebind each head's arrays to views of its slots: one copy of
        the parameters, which ``_predict`` runs one layer at a time for all heads."""
        self._stack = []
        for i, act in enumerate(self.heads_[0].activations):
            W = np.stack([head.weights[i] for head in self.heads_])  # (n, out, in)
            b = np.stack([head.biases[i] for head in self.heads_])  # (n, out)
            for j, head in enumerate(self.heads_):
                head.weights[i], head.biases[i] = W[j], b[j]
            # shaped to broadcast over (B, 1, in) rows: (n, 1, in, out) and (n, 1, 1, out)
            self._stack.append((W[:, None].swapaxes(-1, -2), b[:, None, None], act))

    def _predict(self, lags: np.ndarray, t=None) -> np.ndarray:
        """Scaled predictions (..., N) from scaled lag vectors (..., p*N); the
        heads read no time index ``t``.

        Each lag vector goes through every layer of every head as a lone (1, d)
        row, so each (head, row) pair gets the BLAS matrix-vector product that a
        lone row gets in ``Mlp.forward``: the answers are bit for bit those of
        one head and one row at a time.
        """
        lags = np.asarray(lags, dtype=np.float64)
        x = lags.reshape(-1, 1, lags.shape[-1])  # (B, 1, p*N)
        if self.activated_:
            x = np.concatenate([x, self.autoencoder_.encode(x)], axis=-1)
        x = run_layers(x, self._stack)  # (n_heads, B, 1, 1)
        out = np.ascontiguousarray(x.reshape(len(x), -1).T)  # (B, n_heads)
        return out.reshape(lags.shape[:-1] + (-1,))

    forecast = BaseForecaster.forecast  # the class's own attribute, so tracing can wrap it

    def to_json(self) -> str:
        check_fitted(self, "heads_")
        doc = {
            "model": "vanar",
            "p": self.p_,
            "names": list(self.names_),
            "activated": self.activated_,
            "scaler": self.scaler_.to_dict(),
            "autoencoder": self.autoencoder_.to_dict() if self.activated_ else None,
            "heads": [h.to_dict() for h in self.heads_],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "VanarForecaster":
        doc = check_model_document(text, "vanar", {"p": COUNT, "activated": FLAG})
        est = cls(p=doc["p"])
        est.p_ = doc["p"]
        est.names_ = tuple(doc["names"])
        est.n_vars_ = len(est.names_)
        est.activated_ = doc["activated"]
        what = "vanar model"
        est.scaler_ = StandardScaler.from_dict(doc.get("scaler"), f"{what} scaler")
        ae = doc.get("autoencoder")
        est.autoencoder_ = None if ae is None else Autoencoder.from_dict(ae, f"{what} autoencoder")
        if not follows(doc.get("heads"), [OBJECT, 1]):
            raise ValueError(f"heads must be a nonempty list of objects: {doc.get('heads')!r:.60}")
        est.heads_ = [Mlp.from_dict(h, f"{what} heads[{j}]") for j, h in enumerate(doc["heads"])]
        N = est.n_vars_
        if est.scaler_.mean_.shape != (N,) or est.scaler_.scale_.shape != (N,):
            raise ValueError(f"scaler mean {est.scaler_.mean_.shape} and scale "
                             f"{est.scaler_.scale_.shape} do not fit {N} names")
        if len(est.heads_) != N or any(h.layer_dims[-1] != 1 for h in est.heads_):
            raise ValueError(f"need one single-output head per name ({N}), got output widths "
                             f"{[h.layer_dims[-1] for h in est.heads_]}")
        if est.activated_ and est.autoencoder_ is None:
            raise ValueError("activated model without an autoencoder")
        width = est.p_ * N + (est.autoencoder_.embedding_dim if est.activated_ else 0)
        if any(h.layer_dims[0] != width for h in est.heads_):
            raise ValueError(f"heads take {[h.layer_dims[0] for h in est.heads_]} inputs; "
                             f"p={est.p_}, {N} names and the autoencoder give {width}")
        layouts = [(h.layer_dims, h.activations) for h in est.heads_]
        if any(layout != layouts[0] for layout in layouts):
            raise ValueError(f"heads must share one (layer_dims, activations), got {layouts}")
        est._stack_heads()
        return est
