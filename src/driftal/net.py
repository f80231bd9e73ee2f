"""Dense feed-forward classifier with analytic gradients.

Pure-numpy MLP for binary classification over binary feature vectors.
The penultimate-layer activation doubles as the sample embedding used by
the contrastive loss and the distance-based selection criterion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    Parameters are float64 throughout. Initialization is uniform in
    +-sqrt(6 / (fan_in + fan_out)), drawn from a seeded generator so that
    construction is reproducible.
    """

    def __init__(self, architecture, seed=0, init=True):
        validate_architecture(list(architecture))
        self.architecture = list(architecture)
        self.seed = int(seed)
        self.weights = []
        self.biases = []
        rng = np.random.default_rng(self.seed)
        for spec in self.architecture:
            if init:
                bound = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
                w = rng.uniform(-bound, bound, size=(spec.output_dim, spec.input_dim))
            else:
                w = np.zeros((spec.output_dim, spec.input_dim))
            self.weights.append(w)
            self.biases.append(np.zeros(spec.output_dim))

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

    def parameters(self):
        """Flat list of parameter arrays, weights and biases interleaved."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        clone = Classifier(self.architecture, seed=self.seed, init=False)
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
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
        i = self.embedding_layer_index
        emb = _relu(pres[i]) if self.architecture[i].activation == "relu" else pres[i]
        emb = emb if i >= 0 else X
        cache = {"inputs": inputs, "pres": pres, "n": X.shape[0]}
        return logits, softmax(logits), emb, cache

    def backward_batch(self, cache, d_logits, d_embedding=None):
        """Backpropagate upstream gradients to every parameter.

        ``d_logits`` is the loss gradient w.r.t. the final logits; an
        optional ``d_embedding`` is injected at the penultimate-layer
        activation (where the contrastive loss attaches). Returns a list
        of (dW, db) pairs, one per layer.
        """
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.shape != cache["pres"][-1].shape:
            raise ShapeError("d_logits shape does not match cached forward pass")
        grads = [None] * len(self.architecture)
        delta = d_logits
        for i in range(len(self.architecture) - 1, -1, -1):
            spec = self.architecture[i]
            if spec.activation == "relu":
                delta = delta * (cache["pres"][i] > 0)
            dw = delta.T @ cache["inputs"][i]
            db = delta.sum(axis=0)
            grads[i] = (dw, db)
            if i > 0:
                delta = delta @ self.weights[i]
                if d_embedding is not None and i - 1 == self.embedding_layer_index:
                    delta = delta + d_embedding
        return grads

    # ------------------------------------------------------------------
    # batch prediction
    # ------------------------------------------------------------------

    def predict_batch(self, X):
        """Class-probability pairs for each row, order preserved."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            return np.zeros((0, 2))
        _, probs, _, _ = self.forward_batch(X)
        return probs

    def embed_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            return np.zeros((0, self.embedding_dim))
        _, _, emb, _ = self.forward_batch(X)
        return emb

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    CHECKPOINT_VERSION = 1

    def save(self, path):
        """Write a versioned .npz checkpoint; round-trips bit-exactly."""
        meta = {
            "version": self.CHECKPOINT_VERSION,
            "seed": self.seed,
            "architecture": [
                [s.input_dim, s.output_dim, s.activation] for s in self.architecture
            ],
        }
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

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
            model.weights = [_array(data, f"w{i}", path) for i in range(len(arch))]
            model.biases = [_array(data, f"b{i}", path) for i in range(len(arch))]
        return model


def _array(checkpoint, name, path):
    if name not in checkpoint.files:
        raise ValueError(f"checkpoint {path} has no array {name!r}")
    return checkpoint[name]


@dataclass
class Optimizer:
    """Adam over a Classifier's parameter list."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def step(self, model, grads):
        """Apply one update in place; raises on non-finite gradients."""
        params = model.parameters()
        flat_grads = [g for dw_db in grads for g in dw_db]
        for i, (p, g) in enumerate(zip(params, flat_grads)):
            if p.shape != g.shape:
                raise ShapeError(f"gradient {i} shape {g.shape} != param {p.shape}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {i}")
        self.step_count += 1
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        t = self.step_count
        for p, g, m, v in zip(params, flat_grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1**t)
            vhat = v / (1 - self.beta2**t)
            p -= self.learning_rate * mhat / (np.sqrt(vhat) + self.eps)
