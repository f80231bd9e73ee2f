import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftal.augment import (
    AugmentConfig,
    AugmentConfigError,
    bernoulli_bit_flip,
    bernoulli_mask,
    strong_view,
    uniform_bit_flip,
    weak_view,
)

BIG = 100_000


def three_sigma(p, n=BIG):
    return 3 * np.sqrt(p * (1 - p) / n)


class TestBitFlip:
    def test_p_zero_identity(self):
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert (bernoulli_bit_flip(x, 0.0, np.random.default_rng(0)) == x).all()

    def test_p_one_complement(self):
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert (bernoulli_bit_flip(x, 1.0, np.random.default_rng(0)) == 1 - x).all()

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.5])
    def test_binomial_calibration(self, p):
        x = np.zeros(BIG, dtype=np.uint8)
        out = bernoulli_bit_flip(x, p, np.random.default_rng(123))
        assert abs(out.mean() - p) < three_sigma(p)

    def test_invalid_probability(self):
        with pytest.raises(AugmentConfigError):
            bernoulli_bit_flip(np.zeros(3, dtype=np.uint8), 1.5, np.random.default_rng(0))


class TestMask:
    def test_q_zero_identity(self):
        x = np.array([1, 1, 0, 1], dtype=np.uint8)
        assert (bernoulli_mask(x, 0.0, np.random.default_rng(0)) == x).all()

    def test_q_one_all_zero(self):
        x = np.ones(10, dtype=np.uint8)
        assert not bernoulli_mask(x, 1.0, np.random.default_rng(0)).any()

    @pytest.mark.parametrize("q", [0.01, 0.05, 0.5])
    def test_binomial_calibration(self, q):
        x = np.ones(BIG, dtype=np.uint8)
        out = bernoulli_mask(x, q, np.random.default_rng(321))
        assert abs(out.mean() - (1 - q)) < three_sigma(q)

    def test_absorption(self):
        rng = np.random.default_rng(5)
        x = (rng.random(500) < 0.5).astype(np.uint8)
        out = bernoulli_mask(x, 0.3, rng)
        assert (out <= x).all()


class TestUniformFlip:
    def test_empty_input(self):
        out = uniform_bit_flip(np.zeros(0, dtype=np.uint8), np.random.default_rng(0))
        assert out.shape == (0,)

    def test_half_flip_rate(self):
        x = np.zeros(BIG, dtype=np.uint8)
        out = uniform_bit_flip(x, np.random.default_rng(7))
        assert abs(out.mean() - 0.5) < three_sigma(0.5)

    def test_seed_determinism(self):
        x = (np.random.default_rng(1).random(200) < 0.5).astype(np.uint8)
        a = uniform_bit_flip(x, np.random.default_rng(42))
        b = uniform_bit_flip(x, np.random.default_rng(42))
        assert (a == b).all()


class TestViews:
    def test_weak_prob_zero_is_identity(self):
        cfg = AugmentConfig(weak_prob=0.0, strong_prob=0.0)
        x = np.array([1, 0, 1], dtype=np.uint8)
        assert (weak_view(x, cfg, np.random.default_rng(0)) == x).all()

    def test_default_probabilities(self):
        cfg = AugmentConfig()
        assert cfg.weak_prob == 0.01
        assert cfg.strong_prob == 0.05
        assert cfg.mode == "bernoulli_bit_flip"

    def test_flip_plus_mask_extremes(self):
        cfg = AugmentConfig(mode="flip_plus_mask", weak_prob=1.0, strong_prob=1.0)
        x = (np.random.default_rng(3).random(50) < 0.5).astype(np.uint8)
        assert not strong_view(x, cfg, np.random.default_rng(1)).any()

    def test_weak_exceeding_strong_rejected(self):
        with pytest.raises(AugmentConfigError):
            AugmentConfig(weak_prob=0.2, strong_prob=0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(AugmentConfigError):
            AugmentConfig(mode="rotate")


class TestProperties:
    @given(st.lists(st.integers(0, 1), max_size=64),
           st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_flip_preserves_length_and_binarity(self, bits, p, seed):
        x = np.array(bits, dtype=np.uint8)
        out = bernoulli_bit_flip(x, p, np.random.default_rng(seed))
        assert out.shape == x.shape
        assert set(np.unique(out)) <= {0, 1}

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64),
           st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mask_is_elementwise_bounded(self, bits, q, seed):
        x = np.array(bits, dtype=np.uint8)
        out = bernoulli_mask(x, q, np.random.default_rng(seed))
        assert (out <= x).all()

    def test_xor_involution_with_same_noise(self):
        x = (np.random.default_rng(2).random(300) < 0.5).astype(np.uint8)
        once = bernoulli_bit_flip(x, 0.3, np.random.default_rng(99))
        twice = bernoulli_bit_flip(once, 0.3, np.random.default_rng(99))
        assert (twice == x).all()

    def test_seed_determinism(self):
        cfg = AugmentConfig()
        x = (np.random.default_rng(4).random(100) < 0.5).astype(np.uint8)
        assert (weak_view(x, cfg, np.random.default_rng(8))
                == weak_view(x, cfg, np.random.default_rng(8))).all()
