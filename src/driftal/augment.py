"""Stochastic perturbations of binary feature vectors.

Weak views use a low perturbation probability (default 0.01) so the core
semantics of a sample survive; strong views perturb harder (default 0.05).
All functions are pure given an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_fields, checked, typed

MODES = ("bernoulli_bit_flip", "bernoulli_mask", "flip_plus_mask", "uniform_bit_flip")


@dataclass(frozen=True)
class AugmentConfig:
    mode: str = checked("bernoulli_bit_flip", str, choices=MODES)
    weak_prob: float = checked(0.01, float, minimum=0, maximum=1)
    strong_prob: float = checked(0.05, float, minimum=0, maximum=1)

    def __post_init__(self):
        check_fields(self)
        if self.weak_prob > self.strong_prob:
            raise ConfigError(f"weak_prob: expected <= strong_prob "
                              f"({self.strong_prob!r}), got {self.weak_prob!r}")


def bernoulli_bit_flip(x, p, rng):
    """XOR each bit with independent Bernoulli(p) noise.

    Works on a single vector or a (batch, d) matrix of {0,1} values.
    """
    typed(p, "p", float, minimum=0, maximum=1)
    x = np.asarray(x, dtype=np.uint8)
    noise = (rng.random(x.shape) < p).astype(np.uint8)
    return x ^ noise


def bernoulli_mask(x, q, rng):
    """Zero each bit independently with probability q."""
    typed(q, "q", float, minimum=0, maximum=1)
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
    return uniform_bit_flip(x, rng)  # the last of MODES, which AugmentConfig checks


def weak_view(x, cfg, rng):
    return _apply(x, cfg.mode, cfg.weak_prob, rng)


def strong_view(x, cfg, rng):
    return _apply(x, cfg.mode, cfg.strong_prob, rng)
