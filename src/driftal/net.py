"""Dense feed-forward classifier with analytic gradients.

Pure-numpy MLP for binary classification over binary feature vectors.
The penultimate-layer activation doubles as the sample embedding used by
the contrastive loss and the distance-based selection criterion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import check_fields, checked, entry, typed_list


class ShapeError(ValueError):
    """Input or parameter shapes do not chain consistently."""


class NumericError(FloatingPointError):
    """Non-finite value encountered in parameters or gradients."""


_MAX_GRAD = float(np.sqrt(np.finfo(np.float64).max))  # Adam squares each entry
INFER_BLOCK = 2048  # rows per forward block in Classifier.infer


def softmax(logits):
    """Row-wise stable softmax."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)  # a new array: exp and divide in place
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _relu(x):
    return np.maximum(x, 0.0)


def _widths(architecture):
    """``architecture`` as a tuple ``(input_dim, *hidden, 2)`` of ints >= 1."""
    widths = tuple(typed_list(architecture, "architecture", int, ShapeError, minimum=1))
    if len(widths) < 2 or widths[-1] != 2:
        raise ShapeError(f"architecture: expected (input_dim, *hidden, 2), got {widths}")
    return widths


class Classifier:
    """MLP with explicit parameters and hand-written backprop.

    ``architecture`` is the tuple of layer widths ``(input_dim, *hidden, 2)``.
    Every layer but the last applies ReLU, the last emits two logits, and
    the embedding is the last layer's input: the last hidden activation,
    or the input itself for a ``(d, 2)`` net.

    All parameters live in one contiguous float64 vector ``theta``;
    ``weights`` and ``biases`` are tuples of views into it, so writing
    through a view writes ``theta``. Initialization is uniform in
    +-sqrt(6 / (fan_in + fan_out)), drawn from a seeded generator so that
    construction is reproducible.
    """

    def __init__(self, architecture, seed=0, init=True):
        self.architecture = _widths(architecture)
        # per layer: the weights' slice and shape, then the biases' slice
        self._layout, start = [], 0
        for n_in, n_out in zip(self.architecture, self.architecture[1:]):
            end = start + n_out * n_in
            self._layout.append((slice(start, end), (n_out, n_in), slice(end, end + n_out)))
            start = end + n_out
        self.theta = np.zeros(start)
        self.weights, self.biases = self.layer_views(self.theta)
        if init:
            rng = np.random.default_rng(seed)
            for w in self.weights:
                bound = np.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    @property
    def input_dim(self):
        return self.architecture[0]

    @property
    def embedding_dim(self):
        return self.architecture[-2]

    def layer_views(self, flat):
        """Per-layer (weights, biases) tuples of views into a vector shaped
        like ``theta``; each layer's weights are followed by its biases."""
        return (tuple(flat[w].reshape(shape) for w, shape, _ in self._layout),
                tuple(flat[b] for _, _, b in self._layout))

    def copy(self):
        clone = Classifier(self.architecture, init=False)
        clone.theta[:] = self.theta
        return clone

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _check_input(self, X, dtype=None):
        X = np.asarray(X, dtype=dtype)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeError(f"input has shape {X.shape}, model expects (n, {self.input_dim})")
        return X

    def forward_batch(self, X):
        """Batched forward returning (logits, probs, embeddings, cache).

        The cache holds per-layer inputs and pre-activations and is what
        ``backward_batch`` consumes; passes that need no gradient use
        ``infer``, which runs this over blocks of rows.
        """
        X = self._check_input(X, np.float64)
        last = len(self.weights) - 1
        inputs, pres = [], []
        a = X
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            pre = a @ w.T
            pre += b
            pres.append(pre)
            a = _relu(pre) if i < last else pre
        cache = {"inputs": inputs, "pres": pres, "n": X.shape[0]}
        return a, softmax(a), inputs[-1], cache

    def backward_batch(self, cache, d_logits, d_embedding=None):
        """Backpropagate upstream gradients to every parameter.

        ``d_logits`` is the loss gradient w.r.t. the final logits; an
        optional ``d_embedding`` is injected at the embedding, the top
        layer's input (where the contrastive loss attaches). Returns one
        flat gradient shaped like ``theta``.
        """
        d_logits = np.asarray(d_logits, dtype=np.float64)
        grad = np.empty_like(self.theta)
        d_weights, d_biases = self.layer_views(grad)
        last = len(self.weights) - 1
        delta = d_logits
        for i in range(last, -1, -1):
            if i < last:  # delta is this call's own array below the top layer
                delta *= cache["pres"][i] > 0
            np.matmul(delta.T, cache["inputs"][i], out=d_weights[i])
            delta.sum(axis=0, out=d_biases[i])
            if i > 0:
                delta = delta @ self.weights[i]
                if d_embedding is not None and i == last:
                    delta += d_embedding
        return grad

    # ------------------------------------------------------------------
    # batch prediction
    # ------------------------------------------------------------------

    def infer(self, X):
        """Class-probability pairs and embeddings for each row, order preserved.

        This is ``forward_batch`` run over ``INFER_BLOCK`` rows at a time,
        each block's probabilities and embeddings written into the outputs.
        Each block's cache is dropped before the next block runs, so no
        float64 copy of all of ``X`` (uint8 included) is made.
        """
        X = self._check_input(X)
        n = len(X)
        probs, embs = np.empty((n, 2)), np.empty((n, self.embedding_dim))
        for start in range(0, n, INFER_BLOCK):
            rows = slice(start, start + INFER_BLOCK)
            probs[rows], embs[rows] = self.forward_batch(X[rows])[1:3]
        return probs, embs

    def predict_batch(self, X):
        """Class-probability pairs for each row, order preserved."""
        return self.infer(X)[0]

    def embed_batch(self, X):
        return self.infer(X)[1]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    CHECKPOINT_VERSION = 2

    def _named_views(self):
        """Checkpoint array name (``w{i}``/``b{i}``) -> view into ``theta``."""
        views = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            views[f"w{i}"], views[f"b{i}"] = w, b
        return views

    def save(self, path):
        """Write a versioned .npz checkpoint; round-trips bit-exactly."""
        meta = {"version": self.CHECKPOINT_VERSION, "architecture": list(self.architecture)}
        meta = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, meta=meta, **self._named_views())

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            meta = json.loads(bytes(_array(data, "meta", path)).decode())
            where = f"checkpoint {path} meta"
            entry(meta, "version", where, int, ValueError, choices=(cls.CHECKPOINT_VERSION,))
            try:
                widths = _widths(entry(meta, "architecture", where, list, ValueError))
            except ShapeError as e:
                raise ValueError(f"{where}: {e}") from None
            # every stored shape is checked before theta is allocated, so a width
            # the file holds no array of is never allocated
            arrays = {}
            for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
                for name, needed in ((f"w{i}", (n_out, n_in)), (f"b{i}", (n_out,))):
                    array = arrays[name] = _array(data, name, path)
                    if array.shape != needed:
                        raise ValueError(f"checkpoint {path} array {name!r} has shape "
                                         f"{array.shape}, the architecture needs {needed}")
        model = cls(widths, init=False)
        for name, view in model._named_views().items():
            view[...] = arrays[name]
        return model


def _array(checkpoint, name, path):
    if name not in checkpoint.files:
        raise ValueError(f"checkpoint {path} has no array {name!r}")
    return checkpoint[name]


@dataclass
class Optimizer:
    """Adam (Kingma & Ba, 2015) over a Classifier's parameter vector ``theta``."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    learning_rate: float = checked(1e-3, float, above=0)
    step_count: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False)  # first moment, like theta
    v: np.ndarray | None = field(default=None, init=False)  # second moment, like theta

    def __post_init__(self):
        check_fields(self)

    def step(self, model, grad):
        """Update ``model.theta`` in place; a gradient entry Adam cannot
        square raises NumericError and changes no state. The update is,
        in this order of operations,
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
        ``theta -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``, with bias corrections
        ``c = 1 - b**t``."""
        if np.shape(grad) != model.theta.shape:
            raise ShapeError(f"gradient {np.shape(grad)} != theta {model.theta.shape}")
        if not np.abs(grad).max() <= _MAX_GRAD:
            raise NumericError("gradient entry not finite or too large for Adam to square")
        if self.m is None:
            self.m, self.v = np.zeros_like(model.theta), np.zeros_like(model.theta)
        a, b = np.empty_like(self.m), np.empty_like(self.m)  # scratch
        self.step_count += 1
        t = self.step_count
        self.m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=a)
        self.m += a
        self.v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=a)
        a *= grad
        self.v += a
        np.divide(self.v, 1 - self.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(self.m, 1 - self.beta1**t, out=a)
        a *= self.learning_rate
        a /= b
        model.theta -= a
