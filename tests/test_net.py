import json
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from driftal.data import DriftGeneratorConfig, synth_drift_generate
from driftal.experiment import Experiment
from driftal.net import (
    INFER_BLOCK,
    Classifier,
    NumericError,
    Optimizer,
    ShapeError,
    softmax,
)
from driftal.selection import SelectorConfig
from driftal.trainer import TrainConfig


def small_net(seed=0):
    return Classifier((8, 6, 2), seed=seed)


def reference_forward(model, x):
    """Independent forward pass with explicit per-element loops.

    Returns (probabilities, embedding); the embedding is the penultimate
    activation, or the input itself for a single-layer net. Every layer but
    the last applies ReLU.
    """
    a = [float(v) for v in x]
    acts = [a]
    last = len(model.weights) - 1
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for i in range(W.shape[0]):
            s = b[i]
            for j in range(W.shape[1]):
                s += W[i, j] * a[j]
            out.append(max(s, 0.0) if k < last else s)
        a = out
        acts.append(a)
    m = max(a)
    exps = [np.exp(v - m) for v in a]
    z = sum(exps)
    return np.array([e / z for e in exps]), np.array(acts[-2])


class TestForward:
    def test_zero_model_is_uniform(self):
        m = Classifier((4, 2), init=False)
        probs = m.predict_batch(np.array([[1, 0, 1, 1]]))
        assert np.allclose(probs, [[0.5, 0.5]])

    def test_identity_layer_closed_form(self):
        m = Classifier((2, 2), init=False)
        m.weights[0][...] = np.eye(2)
        probs = m.predict_batch(np.array([[3.0, 0.0]]))
        e3 = np.exp(3.0)
        assert np.allclose(probs, [[e3 / (e3 + 1), 1 / (e3 + 1)]])

    def test_matches_reference_oracle(self):
        m = small_net(seed=7)
        rng = np.random.default_rng(11)
        X = (rng.random((5, 8)) < 0.5).astype(float)
        _, probs, embs, _ = m.forward_batch(X)
        for x, p, e in zip(X, probs, embs):
            ref_probs, ref_emb = reference_forward(m, x)
            assert np.allclose(p, ref_probs, atol=1e-12)
            assert np.allclose(e, ref_emb, atol=1e-12)

    def test_single_layer_embedding_is_input(self):
        m = Classifier((3, 2), seed=1)
        x = np.array([1.0, 0.0, 1.0])
        ref_probs, ref_emb = reference_forward(m, x)
        assert np.allclose(m.predict_batch(x[None])[0], ref_probs, atol=1e-12)
        assert (m.embed_batch(x[None])[0] == ref_emb).all()

    def test_probabilities_normalized(self):
        m = small_net()
        probs = m.predict_batch(np.random.default_rng(0).random((20, 8)))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
        assert (probs >= 0).all()

    def test_deterministic(self):
        m = small_net()
        x = np.ones(8)
        _, p1, e1, _ = m.forward_batch(x[None])
        _, p2, e2, _ = m.forward_batch(x[None])
        assert (p1 == p2).all()
        assert (e1 == e2).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            small_net().forward_batch(np.ones(5))
        with pytest.raises(ShapeError):
            small_net().predict_batch(np.ones((2, 5)))

    def test_embedding_is_penultimate_activation(self):
        m = small_net()
        x = np.ones(8)
        _, _, emb, cache = m.forward_batch(x[None])
        assert emb.shape == (1, 6)
        assert (emb == np.maximum(cache["pres"][0], 0.0)).all()
        assert (m.embed_batch(x[None]) == emb).all()


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        m = small_net()
        _, _, _, cache = m.forward_batch(np.ones((3, 8)))
        grad = m.backward_batch(cache, np.zeros((3, 2)))
        assert grad.shape == m.theta.shape
        assert not grad.any()

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (1, 2), (3,), (3, 3), (3, 1)])
    def test_d_logits_of_another_shape_raises(self, shape):
        # no check of its own: the layer products cannot take the wrong shape
        m = small_net()
        _, _, _, cache = m.forward_batch(np.ones((3, 8)))
        with pytest.raises(ValueError):
            m.backward_batch(cache, np.ones(shape))

    def test_single_linear_layer_chain_rule(self):
        m = Classifier((3, 2), init=False)
        x = np.array([[1.0, 2.0, 3.0]])
        delta = np.array([[0.5, -0.25]])
        _, _, _, cache = m.forward_batch(x)
        (dw,), (db,) = m.layer_views(m.backward_batch(cache, delta))
        assert np.allclose(dw, delta.T @ x)
        assert np.allclose(db, delta[0])

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        m = Classifier((5, 8, 4, 2), seed=2)
        X = rng.random((4, 5))
        y = rng.integers(0, 2, 4)

        def loss():
            _, probs, _, _ = m.forward_batch(X)
            return -np.log(probs[np.arange(4), y]).mean()

        _, probs, _, cache = m.forward_batch(X)
        onehot = np.zeros((4, 2))
        onehot[np.arange(4), y] = 1
        dws, dbs = m.layer_views(m.backward_batch(cache, (probs - onehot) / 4))
        eps = 1e-6
        for li, (dw, db) in enumerate(zip(dws, dbs)):
            for arr, g in ((m.weights[li], dw), (m.biases[li], db)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + eps
                    lp = loss()
                    arr[ix] = old - eps
                    lm = loss()
                    arr[ix] = old
                    fd = (lp - lm) / (2 * eps)
                    assert abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8) < 1e-4


class TestOptimizer:
    def test_learning_rate_is_the_only_setting(self):
        assert [f.name for f in fields(Optimizer) if f.init] == ["learning_rate"]
        with pytest.raises(TypeError):
            Optimizer(beta1=0.5)
        opt = Optimizer(learning_rate=0.1)
        assert (opt.beta1, opt.beta2, opt.eps) == (0.9, 0.999, 1e-8)
        assert (opt.step_count, opt.m, opt.v) == (0, None, None)

    def test_adam_first_step_magnitude(self):
        m = Classifier((1, 2), init=False)
        opt = Optimizer(learning_rate=1e-3)
        opt.step(m, np.ones_like(m.theta))
        # bias-corrected first step moves by ~lr regardless of grad scale
        assert np.allclose(m.weights[0], -1e-3, atol=1e-8)
        assert opt.step_count == 1

    def test_adam_matches_scalar_recurrence(self):
        # minimize (theta - 3)^2 via grad 2(theta - 3), against scalar Adam
        m = Classifier((1, 2), init=False)
        m.weights[0][0, 0] = 10.0
        opt = Optimizer(learning_rate=0.1)
        theta, mom, vel = 10.0, 0.0, 0.0
        for t in range(1, 11):
            g = np.zeros_like(m.theta)
            (gw,), _ = m.layer_views(g)
            gw[0, 0] = 2 * (m.weights[0][0, 0] - 3.0)
            opt.step(m, g)
            grad = 2 * (theta - 3.0)
            mom = 0.9 * mom + 0.1 * grad
            vel = 0.999 * vel + 0.001 * grad * grad
            theta -= 0.1 * (mom / (1 - 0.9**t)) / (np.sqrt(vel / (1 - 0.999**t)) + 1e-8)
            assert np.isclose(m.weights[0][0, 0], theta, rtol=0, atol=1e-12)

    def test_nonfinite_gradient_rejected(self):
        # 1e200 is finite, but Adam's v would take its square, inf, and freeze theta
        m = Classifier((1, 2), init=False)
        opt = Optimizer(learning_rate=0.1)
        for value in (np.nan, np.inf, -np.inf, 1e200):
            bad = np.zeros_like(m.theta)
            (bw,), _ = m.layer_views(bad)
            bw[...] = 1.0
            bw[0, 0] = value
            with pytest.raises(NumericError, match="too large for Adam to square"):
                opt.step(m, bad)
            # the rejected step changed no state: no moments, no count
            assert opt.m is None and opt.v is None and opt.step_count == 0
            assert not m.theta.any()
        opt.step(m, np.full_like(m.theta, 0.5))
        state = [a.copy() for a in (m.theta, opt.m, opt.v)]
        for value in (np.nan, np.inf, -np.inf, 1e200):
            bad[...] = 1.0
            bad[-1] = value
            with pytest.raises(NumericError, match="too large for Adam to square"):
                opt.step(m, bad)
            assert opt.step_count == 1
            for now, then in zip((m.theta, opt.m, opt.v), state):
                assert now.tobytes() == then.tobytes()


class TestBatch:
    def test_empty_batch(self):
        m = small_net()
        assert m.predict_batch(np.zeros((0, 8))).shape == (0, 2)
        assert m.embed_batch(np.zeros((0, 8))).shape == (0, 6)

    def test_identical_rows_identical_outputs(self):
        m = small_net()
        X = np.tile(np.ones(8), (5, 1))
        probs = m.predict_batch(X)
        assert (probs == probs[0]).all()

    def test_batch_equals_per_row_forward(self):
        m = small_net()
        rng = np.random.default_rng(3)
        X = (rng.random((10, 8)) < 0.5).astype(float)
        probs = m.predict_batch(X)
        embs = m.embed_batch(X)
        for i, x in enumerate(X):
            _, row_probs, row_emb, _ = m.forward_batch(x[None])
            ref_probs, ref_emb = reference_forward(m, x)
            assert np.allclose(probs[i], row_probs[0], atol=1e-12)
            assert np.allclose(embs[i], row_emb[0], atol=1e-12)
            assert np.allclose(probs[i], ref_probs, atol=1e-12)
            assert np.allclose(embs[i], ref_emb, atol=1e-12)

    def test_permutation_equivariance(self):
        m = small_net()
        rng = np.random.default_rng(4)
        X = rng.random((12, 8))
        perm = rng.permutation(12)
        assert np.allclose(m.predict_batch(X)[perm], m.predict_batch(X[perm]))


class TestInfer:
    @staticmethod
    def pool(n, d=200, seed=0):
        return (np.random.default_rng(seed).random((n, d)) < 0.3).astype(np.uint8)

    @pytest.mark.parametrize("n", [1, 37, INFER_BLOCK])
    def test_one_block_equals_forward_batch(self, n):
        m = Classifier((200, 32, 16, 2), seed=1)
        X = self.pool(n)
        probs, embs = m.infer(X)
        _, fwd_probs, fwd_embs, _ = m.forward_batch(X)
        assert probs.tobytes() == fwd_probs.tobytes()
        assert embs.tobytes() == fwd_embs.tobytes()

    def test_blocks_equal_blockwise_forward_batch(self):
        m = Classifier((200, 32, 16, 2), seed=1)
        X = self.pool(2 * INFER_BLOCK + 1)
        probs, embs = m.infer(X)
        blocks = [m.forward_batch(X[i:i + INFER_BLOCK]) for i in range(0, len(X), INFER_BLOCK)]
        assert [len(b[1]) for b in blocks] == [INFER_BLOCK, INFER_BLOCK, 1]
        assert probs.tobytes() == np.concatenate([b[1] for b in blocks]).tobytes()
        assert embs.tobytes() == np.concatenate([b[2] for b in blocks]).tobytes()
        _, whole_probs, whole_embs, _ = m.forward_batch(X)
        assert np.abs(probs - whole_probs).max() <= 1e-15
        assert np.abs(embs - whole_embs).max() <= 1e-15

    @pytest.mark.parametrize("architecture", [(200, 2), (200, 32, 16, 2)])
    def test_uint8_equals_float64(self, architecture):
        m = Classifier(architecture, seed=2)
        X = self.pool(INFER_BLOCK + 5)
        for got, want in zip(m.infer(X), m.infer(X.astype(np.float64))):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_no_float64_copy_of_the_pool(self):
        m = Classifier((200, 32, 16, 2), seed=3)
        X = self.pool(3 * INFER_BLOCK)
        bound = X.size * 8  # one float64 copy of X
        peaks = {}
        for name, run in (("infer", m.infer), ("forward_batch", m.forward_batch)):
            tracemalloc.start()
            try:
                run(X)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["infer"] < bound < peaks["forward_batch"], peaks

    def test_blocks_run_through_forward_batch(self, monkeypatch):
        m = Classifier((200, 32, 16, 2), seed=4)
        X = self.pool(2 * INFER_BLOCK + 1)
        sizes = []
        forward_batch = Classifier.forward_batch

        def counting_forward(model, X):
            sizes.append(len(X))
            return forward_batch(model, X)

        monkeypatch.setattr(Classifier, "forward_batch", counting_forward)
        m.infer(X)
        assert sizes == [INFER_BLOCK, INFER_BLOCK, 1]

    def test_every_inferred_row_reaches_forward_batch(self, monkeypatch):
        # one multi_criteria run infers for evaluation, pool scoring, the
        # labeled embedding and the weak view; each call's rows must reach
        # forward_batch, block by block and in order
        gen = DriftGeneratorConfig(dim=12, months=4, samples_per_month_per_class=20, seed=0)
        ds = synth_drift_generate(gen)
        months = ds.months()
        exp = Experiment(ds, months[:2], months[2:], label_ratio=0.5, noise_rate=0.0,
                         train_cfg=TrainConfig(epochs=1, hidden=(4,)), retrain_epochs=1)
        calls, open_calls = [], []
        infer, forward_batch = Classifier.infer, Classifier.forward_batch

        def spying_infer(model, X):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == "driftal.net":  # predict/embed_batch
                frame = frame.f_back
            open_calls.append([])
            out = infer(model, X)
            calls.append((frame.f_code.co_name, np.asarray(X), open_calls.pop()))
            return out

        def spying_forward(model, X):
            if open_calls:
                open_calls[-1].append(np.asarray(X))
            return forward_batch(model, X)

        monkeypatch.setattr(Classifier, "infer", spying_infer)
        monkeypatch.setattr(Classifier, "forward_batch", spying_forward)
        exp.run(SelectorConfig(), 5, 0)
        monkeypatch.undo()
        assert {caller for caller, _, _ in calls} == {
            "run_stream", "score_pool", "step_loss_and_grads", "train"}
        scored = [X for caller, X, _ in calls if caller == "score_pool"]
        assert len(scored) == 2 * (len(months) - 2)  # pool and labeled rows per month
        for _, X, forwarded in calls:
            assert [len(f) for f in forwarded] == [
                min(INFER_BLOCK, len(X) - i) for i in range(0, len(X), INFER_BLOCK)]
            assert np.array_equal(np.concatenate([X[:0], *forwarded]), X)

    def test_empty_and_wrong_shape(self):
        m = Classifier((200, 32, 16, 2))
        probs, embs = m.infer(np.zeros((0, 200), dtype=np.uint8))
        assert probs.shape == (0, 2) and embs.shape == (0, 16)
        for X in (np.zeros((0, 199)), np.zeros((4, 201), dtype=np.uint8), np.zeros(200)):
            with pytest.raises(ShapeError):
                m.infer(X)


def saved_arrays(model, path):
    """The ``w{i}``/``b{i}`` members of ``model``'s checkpoint, and its ``meta``."""
    model.save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "meta"}
        return arrays, json.loads(bytes(data["meta"]).decode())


def write_checkpoint(path, arrays, meta):
    """An .npz checkpoint of ``arrays`` whose ``meta`` member is the JSON of ``meta``."""
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = Classifier((16, 8, 4, 2), seed=9)
        opt = Optimizer()
        _, probs, _, cache = m.forward_batch(np.ones((2, 16)))
        opt.step(m, m.backward_batch(cache, np.ones((2, 2)) * 0.1))
        path = tmp_path / "model.npz"
        m.save(path)
        loaded = Classifier.load(path)
        assert loaded.theta.tobytes() == m.theta.tobytes()
        for a, b in zip(m.weights + m.biases, loaded.weights + loaded.biases):
            assert (a == b).all()
        assert loaded.architecture == m.architecture == (16, 8, 4, 2)

    def test_checkpoint_holds_version_widths_and_arrays(self, tmp_path):
        arrays, meta = saved_arrays(Classifier((16, 8, 4, 2), seed=9), tmp_path / "model.npz")
        assert sorted(arrays) == ["b0", "b1", "b2", "w0", "w1", "w2"]
        assert meta == {"version": 2, "architecture": [16, 8, 4, 2]}

    @pytest.mark.parametrize("name", ["meta", "w1", "b0"])
    def test_missing_array_named(self, tmp_path, name):
        path = tmp_path / "model.npz"
        arrays, meta = saved_arrays(Classifier((16, 8, 4, 2), seed=9), path)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        del arrays[name]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"no array '{name}'"):
            Classifier.load(path)

    @pytest.mark.parametrize("name,reshape", [
        ("b0", lambda a: np.zeros(1)),  # would broadcast into the view
        ("w1", lambda a: a.T),
    ])
    def test_wrong_shape_array_named(self, tmp_path, name, reshape):
        path = tmp_path / "model.npz"
        arrays, meta = saved_arrays(Classifier((16, 8, 4, 2), seed=9), path)
        needed = arrays[name].shape
        arrays[name] = reshape(arrays[name])
        write_checkpoint(path, arrays, meta)
        message = f"'{name}' has shape {arrays[name].shape}, the architecture needs {needed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Classifier.load(path)

    @pytest.mark.parametrize("key", ["version", "architecture", None])
    def test_meta_missing_key_named(self, tmp_path, key):
        path = tmp_path / "model.npz"
        arrays, meta = saved_arrays(Classifier((16, 8, 4, 2), seed=9), path)
        if key is None:  # not an object at all
            meta, key = list(meta), "version"
        else:
            del meta[key]
        write_checkpoint(path, arrays, meta)
        with pytest.raises(ValueError, match=f"meta has no '{key}'"):
            Classifier.load(path)

    def test_version_1_rejected(self, tmp_path):
        # the version-1 meta: a seed, and [in, out, activation] per layer
        path = tmp_path / "model.npz"
        arrays, _ = saved_arrays(Classifier((16, 8, 4, 2), seed=9), path)
        layers = [[16, 8, "relu"], [8, 4, "relu"], [4, 2, "identity"]]
        write_checkpoint(path, arrays, {"version": 1, "seed": 9, "architecture": layers})
        with pytest.raises(ValueError, match="'version': expected one of \\[2\\], got 1"):
            Classifier.load(path)

    @pytest.mark.parametrize("layers", [
        5,  # not a list
        # version-1 layer lists, well formed or not, are no widths
        [[16, 8], [8, 4, "relu"], [4, 2, "identity"]],
        [[16, "8", "relu"], ["8", 4, "relu"], [4, 2, "identity"]],
        [[16, 8, "relu"], [7, 4, "relu"], [4, 2, "identity"]],
        [[16, 8, "identity"], [8, 4, "relu"], [4, 2, "identity"]],
        [[16, 8, "relu"], [8.0, 4, "relu"], [4, 2, "identity"]],
        [[16, 8, "relu"], [8, 4, "relu"], [4, 2, "identity"]],
        [], [16, 8, 4], [16, 8, 4, 3], [16, 0, 4, 2], [16, "8", 4, 2],
        [16, 8.0, 4, 2], [16, True, 4, 2], [16, 8, 4, 2.0],
    ])
    def test_bad_architecture_named(self, tmp_path, layers):
        path = tmp_path / "model.npz"
        arrays, _ = saved_arrays(Classifier((16, 8, 4, 2), seed=9), path)
        write_checkpoint(path, arrays, {"version": 2, "architecture": layers})
        with pytest.raises(ValueError, match="meta: '?architecture'?: expected"):
            Classifier.load(path)

    @pytest.mark.parametrize("widths,name", [
        ([18, 2], "w0"),  # the parameter count of (6, 4, 2)
        ([6, 2**40, 2], "w0"),  # 72 TiB of theta if allocated before the check
        ([6, 4, 2**40, 2], "w1"),
        ([2**70, 4, 2], "w0"),
        ([6, 4, 4, 2], "w1"),
    ])
    def test_architecture_the_arrays_do_not_have(self, tmp_path, widths, name):
        # rejected from the stored shapes alone, before theta is allocated
        path = tmp_path / "model.npz"
        arrays, _ = saved_arrays(Classifier((6, 4, 2), seed=9), path)
        write_checkpoint(path, arrays, {"version": 2, "architecture": widths})
        with pytest.raises(ValueError, match=f"array '{name}' has shape"):
            Classifier.load(path)


class TestParameterVector:
    def test_views_share_theta(self):
        m = Classifier((16, 8, 4, 2), seed=9)
        views = m.weights + m.biases
        assert all(np.shares_memory(v, m.theta) for v in views)
        # the views tile theta exactly: no element is left out or shared
        for i, v in enumerate(views):
            v[...] = i
        counts = np.bincount(m.theta.astype(int), minlength=len(views))
        assert counts.tolist() == [v.size for v in views]

    def test_views_cannot_be_rebound(self):
        m = small_net()
        with pytest.raises(TypeError):
            m.weights[0] = np.zeros((6, 8))
        with pytest.raises(TypeError):
            m.biases[0] = np.zeros(6)

    def test_step_shows_in_views_of_built_and_loaded(self, tmp_path):
        built = Classifier((16, 8, 4, 2), seed=9)
        built.save(tmp_path / "model.npz")
        loaded = Classifier.load(tmp_path / "model.npz")
        for m in (built, loaded):
            before = [v.copy() for v in m.weights + m.biases]
            Optimizer(learning_rate=1e-3).step(m, np.ones_like(m.theta))
            # a first Adam step on a unit gradient moves every entry by ~lr
            for b, v in zip(before, m.weights + m.biases):
                assert np.allclose(v, b - 1e-3, rtol=0, atol=1e-10)

    def test_copy_shares_no_memory(self):
        m = small_net(seed=3)
        clone = m.copy()
        assert (clone.theta == m.theta).all()
        for a in (clone.theta,) + clone.weights + clone.biases:
            assert not np.shares_memory(a, m.theta)
        clone.weights[0][0, 0] += 1.0
        assert clone.theta[0] != m.theta[0]

    def test_gradient_shape_checked(self):
        m = small_net()
        with pytest.raises(ShapeError):
            Optimizer().step(m, np.zeros(m.theta.size + 1))


class TestValidation:
    @pytest.mark.parametrize("architecture", [
        (4, 0, 2), (4,), (4, 3), (4, True, 2), (4, 2.0, 2),
    ], ids=["zero-width", "one-width", "last-not-2", "bool-width", "float-width"])
    def test_bad_dims_rejected(self, architecture):
        with pytest.raises(ShapeError):
            Classifier(architecture)

    def test_final_layer_must_be_two_logits(self):
        with pytest.raises(ShapeError):
            Classifier((4, 3))

    def test_softmax_stability(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all() and abs(p.sum() - 1) < 1e-12
