"""Stochastic perturbations of binary feature vectors.

Weak views use a low perturbation probability (default 0.01) so the core
semantics of a sample survive; strong views perturb harder (default 0.05).
All functions are pure given an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("bernoulli_bit_flip", "bernoulli_mask", "flip_plus_mask", "uniform_bit_flip")


class AugmentConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentConfig:
    mode: str = "bernoulli_bit_flip"
    weak_prob: float = 0.01
    strong_prob: float = 0.05

    def __post_init__(self):
        if self.mode not in MODES:
            raise AugmentConfigError(f"unknown augmentation mode {self.mode!r}")
        for name in ("weak_prob", "strong_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise AugmentConfigError(f"{name}={p} outside [0, 1]")
        if self.weak_prob > self.strong_prob:
            raise AugmentConfigError(
                "weak_prob must not exceed strong_prob "
                f"({self.weak_prob} > {self.strong_prob})"
            )


def _check_prob(p, name):
    if not 0.0 <= p <= 1.0:
        raise AugmentConfigError(f"{name}={p} outside [0, 1]")


def bernoulli_bit_flip(x, p, rng):
    """XOR each bit with independent Bernoulli(p) noise.

    Works on a single vector or a (batch, d) matrix of {0,1} values.
    """
    _check_prob(p, "p")
    x = np.asarray(x, dtype=np.uint8)
    noise = (rng.random(x.shape) < p).astype(np.uint8)
    return x ^ noise


def bernoulli_mask(x, q, rng):
    """Zero each bit independently with probability q."""
    _check_prob(q, "q")
    x = np.asarray(x, dtype=np.uint8)
    keep = (rng.random(x.shape) >= q).astype(np.uint8)
    return x & keep


def uniform_bit_flip(x, rng):
    """XOR with noise drawn uniformly from {0,1}; the ablation baseline."""
    x = np.asarray(x, dtype=np.uint8)
    noise = rng.integers(0, 2, size=x.shape, dtype=np.uint8)
    return x ^ noise


def _apply(x, mode, prob, rng):
    if mode == "bernoulli_bit_flip":
        return bernoulli_bit_flip(x, prob, rng)
    if mode == "bernoulli_mask":
        return bernoulli_mask(x, prob, rng)
    if mode == "flip_plus_mask":
        # flip then mask, sharing the probability value
        return bernoulli_mask(bernoulli_bit_flip(x, prob, rng), prob, rng)
    if mode == "uniform_bit_flip":
        return uniform_bit_flip(x, rng)
    raise AugmentConfigError(f"unknown augmentation mode {mode!r}")


def weak_view(x, cfg, rng):
    return _apply(x, cfg.mode, cfg.weak_prob, rng)


def strong_view(x, cfg, rng):
    return _apply(x, cfg.mode, cfg.strong_prob, rng)
