"""Dense feed-forward classifier with analytic gradients.

Pure-numpy MLP for binary classification over binary feature vectors.
The penultimate-layer activation doubles as the sample embedding used by
the contrastive loss and the distance-based selection criterion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity")


class ShapeError(ValueError):
    """Input or parameter shapes do not chain consistently."""


class NumericError(FloatingPointError):
    """Non-finite value encountered in parameters or gradients."""


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ShapeError(f"layer dims must be positive, got {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def default_architecture(input_dim, hidden=(512, 128)):
    """input -> hidden ReLU layers -> 2 logits; last hidden is the embedding."""
    specs = []
    prev = input_dim
    for h in hidden:
        specs.append(LayerSpec(prev, h, "relu"))
        prev = h
    specs.append(LayerSpec(prev, 2, "identity"))
    return specs


def validate_architecture(specs):
    if not specs:
        raise ShapeError("architecture must have at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.output_dim != b.input_dim:
            raise ShapeError(f"layer dims do not chain: {a} -> {b}")
    last = specs[-1]
    if last.output_dim != 2 or last.activation != "identity":
        raise ShapeError("final layer must emit 2 identity logits")


def softmax(logits):
    """Row-wise stable softmax."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _relu(x):
    return np.maximum(x, 0.0)


class Classifier:
    """MLP with explicit parameters and hand-written backprop.

    All parameters live in one contiguous float64 vector ``theta``;
    ``weights`` and ``biases`` are tuples of views into it, so writing
    through a view writes ``theta``. Initialization is uniform in
    +-sqrt(6 / (fan_in + fan_out)), drawn from a seeded generator so that
    construction is reproducible.
    """

    def __init__(self, architecture, seed=0, init=True):
        validate_architecture(list(architecture))
        self.architecture = list(architecture)
        self.seed = int(seed)
        size = sum(s.output_dim * (s.input_dim + 1) for s in self.architecture)
        self.theta = np.zeros(size)
        self.weights, self.biases = self.layer_views(self.theta)
        if init:
            rng = np.random.default_rng(self.seed)
            for spec, w in zip(self.architecture, self.weights):
                bound = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    # index of the layer whose activation is the embedding; -1 means the
    # raw input (single-layer nets have no penultimate activation)
    @property
    def embedding_layer_index(self):
        return len(self.architecture) - 2

    @property
    def input_dim(self):
        return self.architecture[0].input_dim

    @property
    def embedding_dim(self):
        i = self.embedding_layer_index
        return self.architecture[i].output_dim if i >= 0 else self.input_dim

    def layer_views(self, flat):
        """Per-layer (weights, biases) tuples of views into a vector shaped
        like ``theta``; each layer's weights are followed by its biases."""
        weights, biases, start = [], [], 0
        for s in self.architecture:
            end = start + s.output_dim * s.input_dim
            weights.append(flat[start:end].reshape(s.output_dim, s.input_dim))
            biases.append(flat[end : end + s.output_dim])
            start = end + s.output_dim
        return tuple(weights), tuple(biases)

    def copy(self):
        clone = Classifier(self.architecture, seed=self.seed, init=False)
        clone.theta[:] = self.theta
        return clone

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _check_input(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            if X.shape[0] != self.input_dim:
                raise ShapeError(
                    f"input has dim {X.shape[0]}, model expects {self.input_dim}"
                )
        elif X.ndim == 2:
            if X.shape[1] != self.input_dim:
                raise ShapeError(
                    f"input has dim {X.shape[1]}, model expects {self.input_dim}"
                )
        else:
            raise ShapeError(f"input must be 1-D or 2-D, got ndim={X.ndim}")
        return X

    def forward_batch(self, X):
        """Batched forward returning (logits, probs, embeddings, cache).

        The cache holds per-layer inputs and pre-activations and is what
        ``backward_batch`` consumes.
        """
        X = self._check_input(X)
        if X.ndim == 1:
            X = X[None, :]
        inputs, pres = [], []
        a = X
        for spec, w, b in zip(self.architecture, self.weights, self.biases):
            inputs.append(a)
            pre = a @ w.T + b
            pres.append(pre)
            a = _relu(pre) if spec.activation == "relu" else pre
        logits = a
        # the embedding is the last layer's input: the penultimate
        # activation, or X itself for a one-layer net
        cache = {"inputs": inputs, "pres": pres, "n": X.shape[0]}
        return logits, softmax(logits), inputs[-1], cache

    def backward_batch(self, cache, d_logits, d_embedding=None):
        """Backpropagate upstream gradients to every parameter.

        ``d_logits`` is the loss gradient w.r.t. the final logits; an
        optional ``d_embedding`` is injected at the penultimate-layer
        activation (where the contrastive loss attaches). Returns one
        flat gradient shaped like ``theta``.
        """
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.shape != cache["pres"][-1].shape:
            raise ShapeError("d_logits shape does not match cached forward pass")
        grad = np.empty_like(self.theta)
        d_weights, d_biases = self.layer_views(grad)
        delta = d_logits
        for i in range(len(self.architecture) - 1, -1, -1):
            if self.architecture[i].activation == "relu":
                delta = delta * (cache["pres"][i] > 0)
            np.matmul(delta.T, cache["inputs"][i], out=d_weights[i])
            delta.sum(axis=0, out=d_biases[i])
            if i > 0:
                delta = delta @ self.weights[i]
                if d_embedding is not None and i - 1 == self.embedding_layer_index:
                    delta = delta + d_embedding
        return grad

    # ------------------------------------------------------------------
    # batch prediction
    # ------------------------------------------------------------------

    def predict_batch(self, X):
        """Class-probability pairs for each row, order preserved."""
        if len(X) == 0:
            return np.zeros((0, 2))
        _, probs, _, _ = self.forward_batch(X)
        return probs

    def embed_batch(self, X):
        if len(X) == 0:
            return np.zeros((0, self.embedding_dim))
        _, _, emb, _ = self.forward_batch(X)
        return emb

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    CHECKPOINT_VERSION = 1

    def _named_views(self):
        """Checkpoint array name (``w{i}``/``b{i}``) -> view into ``theta``."""
        views = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            views[f"w{i}"], views[f"b{i}"] = w, b
        return views

    def save(self, path):
        """Write a versioned .npz checkpoint; round-trips bit-exactly."""
        meta = {
            "version": self.CHECKPOINT_VERSION,
            "seed": self.seed,
            "architecture": [
                [s.input_dim, s.output_dim, s.activation] for s in self.architecture
            ],
        }
        meta = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, meta=meta, **self._named_views())

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            meta = json.loads(bytes(_array(data, "meta", path)).decode())
            for key in ("version", "architecture", "seed"):
                if not isinstance(meta, dict) or key not in meta:
                    raise ValueError(f"checkpoint {path} meta has no {key!r}")
            if meta["version"] != cls.CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            arch = [LayerSpec(i, o, a) for i, o, a in meta["architecture"]]
            model = cls(arch, seed=meta["seed"], init=False)
            for name, view in model._named_views().items():
                array = _array(data, name, path)
                if array.shape != view.shape:
                    raise ValueError(f"checkpoint {path} array {name!r} has shape "
                                     f"{array.shape}, the architecture needs {view.shape}")
                view[...] = array
        return model


def _array(checkpoint, name, path):
    if name not in checkpoint.files:
        raise ValueError(f"checkpoint {path} has no array {name!r}")
    return checkpoint[name]


@dataclass
class Optimizer:
    """Adam (Kingma & Ba, 2015) over a Classifier's parameter vector ``theta``."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None  # first moment, shaped like theta
    v: np.ndarray | None = None  # second moment, shaped like theta

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def step(self, model, grad):
        """Update ``model.theta`` in place; raises on a bad gradient."""
        if np.shape(grad) != model.theta.shape:
            raise ShapeError(f"gradient {np.shape(grad)} != theta {model.theta.shape}")
        if not np.all(np.isfinite(grad)):
            raise NumericError("non-finite gradient")
        self.step_count += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(model.theta), np.zeros_like(model.theta)
        t = self.step_count
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1**t)
        vhat = self.v / (1 - self.beta2**t)
        model.theta -= self.learning_rate * mhat / (np.sqrt(vhat) + self.eps)
