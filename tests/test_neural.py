from __future__ import annotations

import dataclasses
import hashlib
import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan import neural, tagger
from clinspan.chunking import PaddedChunk
from clinspan.corpus import Vocabulary, build_vocab
from clinspan.features import EmbeddingTable, load_embeddings
from clinspan.neural import (
    AdamState,
    DenseParams,
    GruDirectionParams,
    ModelDims,
    ModelParameters,
    NumericError,
    adam_step,
    backward_from_cache,
    batch_chunks,
    build_probe,
    clip_gradients,
    dense_softmax,
    finite_difference_check,
    forward_batch,
    global_grad_norm,
    init_parameters,
    make_dropout_plan,
    named_tensors,
    softmax,
    tensor_shapes,
    trainable_tensor_names,
)
from clinspan.neural import _chunk_losses, _sigmoid
from clinspan.tagger import TrainConfig, format_history, load_model, save_model, train

from conftest import DATA_DIR, chunk_backward, chunk_probe


def gru_cell_forward(x, h_prev, p):
    """One GRU step over a vector (D,) or batch of row vectors (..., D): the
    per-cell oracle that the packed loop in forward_batch is tested against."""
    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sigmoid(x @ p.w_z.T + h_prev @ p.u_z.T + p.b_z)
    r = sigmoid(x @ p.w_r.T + h_prev @ p.u_r.T + p.b_r)
    candidate = np.tanh(x @ p.w_h.T + (r * h_prev) @ p.u_h.T + p.b_h)
    return (1.0 - z) * h_prev + z * candidate


def _gru_params(h, d, fill=0.0):
    shape = lambda *s: np.full(s, fill, dtype=np.float64)
    return GruDirectionParams(
        w_z=shape(h, d), w_r=shape(h, d), w_h=shape(h, d),
        u_z=shape(h, h), u_r=shape(h, h), u_h=shape(h, h),
        b_z=shape(h), b_r=shape(h), b_h=shape(h),
    )


def _random_gru(h, d, rng, scale=0.5):
    draw = lambda *s: rng.uniform(-scale, scale, size=s)
    return GruDirectionParams(
        w_z=draw(h, d), w_r=draw(h, d), w_h=draw(h, d),
        u_z=draw(h, h), u_r=draw(h, h), u_h=draw(h, h),
        b_z=draw(h), b_r=draw(h), b_h=draw(h),
    )


class TestGruCell:
    def test_zero_params_zero_state_is_fixed_point(self):
        p = _gru_params(3, 2)
        h = gru_cell_forward(np.zeros(2), np.zeros(3), p)
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_scalar_fixture(self):
        # z saturates to ~1 via a large update bias, so h ~ tanh(W_h x).
        p = _gru_params(1, 1)
        p.b_z[:] = 10.0
        p.w_h[:] = 1.0
        h = gru_cell_forward(np.array([0.5]), np.zeros(1), p)
        z = 1.0 / (1.0 + math.exp(-10.0))
        assert h[0] == pytest.approx(z * math.tanh(0.5), abs=1e-12)
        assert h[0] == pytest.approx(0.4621, abs=1e-3)

    def test_output_bounded_by_state_and_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = _random_gru(4, 3, rng, scale=2.0)
            h_prev = rng.uniform(-3, 3, size=4)
            x = rng.uniform(-3, 3, size=3)
            h = gru_cell_forward(x, h_prev, p)
            assert (np.abs(h) <= np.maximum(np.abs(h_prev), 1.0) + 1e-12).all()

    def test_state_stays_in_unit_box(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = _random_gru(5, 2, rng, scale=3.0)
            h = rng.uniform(-1, 1, size=5)
            for _ in range(10):
                h = gru_cell_forward(rng.uniform(-2, 2, size=2), h, p)
            assert (np.abs(h) <= 1.0 + 1e-12).all()


def _bigru_states(model, chunk, p_fwd, p_bwd):
    """forward_batch on one chunk with the given GRU directions: the
    concatenated states (T, 2H) and the feature rows of the real slots."""
    tensors = dict(model.tensors)
    for prefix, p in (("gru_fwd", p_fwd), ("gru_bwd", p_bwd)):
        tensors.update({f"{prefix}.{g}": getattr(p, g) for g in GruDirectionParams.GATE_NAMES})
    model = ModelParameters(model.dims, tensors, model.word_table_trainable)
    cache = forward_batch(model, batch_chunks([chunk]))
    return cache.concat[0], cache.inputs


class TestBigruForward:
    def test_single_token_both_halves_from_same_input(self):
        rng = np.random.default_rng(2)
        model, chunk = chunk_probe(seed=2, hidden=3, window=4, real_tokens=1)
        p = _random_gru(3, model.dims.feature_dim, rng)
        out, _ = _bigru_states(model, chunk, p, p)
        np.testing.assert_allclose(out[0, :3], out[0, 3:], atol=1e-14)

    def test_palindrome_with_shared_params(self):
        # For x_t = x_{T-1-t} and identical direction parameters, the forward
        # state at t equals the backward state at T-1-t.
        rng = np.random.default_rng(3)
        model, chunk = chunk_probe(seed=3, hidden=1, window=3, real_tokens=3)
        mirror = [0, 1, 0]
        chunk = dataclasses.replace(
            chunk,
            word_ids=chunk.word_ids[mirror],
            pos_ids=chunk.pos_ids[mirror],
            char_ids=tuple(chunk.char_ids[t] for t in mirror),
        )
        p = _random_gru(1, model.dims.feature_dim, rng)
        out, rows = _bigru_states(model, chunk, p, p)
        np.testing.assert_array_equal(rows[0], rows[2])
        fwd, bwd = out[:, 0], out[:, 1]
        for t in range(3):
            assert fwd[t] == pytest.approx(bwd[2 - t], abs=1e-14)

    def test_pad_rows_emit_zero(self):
        rng = np.random.default_rng(4)
        model, chunk = chunk_probe(seed=4, hidden=4, window=6, real_tokens=2)
        p_f = _random_gru(4, model.dims.feature_dim, rng)
        p_b = _random_gru(4, model.dims.feature_dim, rng)
        out, _ = _bigru_states(model, chunk, p_f, p_b)
        np.testing.assert_array_equal(out[2:], np.zeros((4, 8)))
        assert np.abs(out[:2]).max() > 0

    def test_matches_cell_iteration(self):
        rng = np.random.default_rng(5)
        model, chunk = chunk_probe(seed=5, hidden=3, window=4, real_tokens=4)
        p_f = _random_gru(3, model.dims.feature_dim, rng)
        p_b = _random_gru(3, model.dims.feature_dim, rng)
        out, rows = _bigru_states(model, chunk, p_f, p_b)
        h = np.zeros(3)
        for t in range(4):
            h = gru_cell_forward(rows[t], h, p_f)
            np.testing.assert_allclose(out[t, :3], h, atol=1e-14)
        h = np.zeros(3)
        for t in range(3, -1, -1):
            h = gru_cell_forward(rows[t], h, p_b)
            np.testing.assert_allclose(out[t, 3:], h, atol=1e-14)


class TestDenseSoftmax:
    def test_zero_weights_uniform(self):
        p = DenseParams(w=np.zeros((3, 4)), b=np.zeros(3))
        np.testing.assert_allclose(dense_softmax(np.ones(4), p), np.full(3, 1 / 3))

    def test_extreme_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-300)

    def test_scalar_oracle_1_2_3(self):
        exp = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        total = sum(exp)
        expected = [v / total for v in exp]
        out = softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = softmax(rng.normal(scale=30, size=(50, 3)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(50), atol=1e-6)
        assert (out >= 0).all() and (out <= 1).all()


def _chunk_loss(dist, gold, mask=None):
    """The summed loss of one chunk; gold is tag indices (B=0, I=1, O=2)."""
    mask = np.ones(len(gold)) if mask is None else np.asarray(mask, dtype=np.float64)
    labels = np.asarray(gold, dtype=np.int64)
    return float(_chunk_losses(np.asarray(dist)[None], labels[None], mask[None])[0])


class TestMaskedCrossEntropy:
    def test_perfect_predictions_zero_loss(self):
        dist = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert _chunk_loss(dist, [0, 1]) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_four_tokens(self):
        dist = np.full((4, 3), 1 / 3)
        loss = _chunk_loss(dist, [0, 1, 2, 0])
        assert loss == pytest.approx(4 * math.log(3), abs=1e-12)

    def test_pads_contribute_zero(self):
        dist = np.full((4, 3), 1 / 3)
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        assert _chunk_loss(dist, [0, 1, 2, 2], mask) == pytest.approx(2 * math.log(3), abs=1e-12)
        # A -1 label (a pad or an unlabeled slot) contributes nothing either.
        assert _chunk_loss(dist, [0, 1, -1, -1]) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dist = softmax(rng.normal(size=(6, 3)))
            gold = rng.integers(0, 3, size=6)
            assert _chunk_loss(dist, gold) >= 0.0

    def test_floor_prevents_infinite_loss(self):
        dist = np.array([[0.0, 1.0, 0.0]])
        loss = _chunk_loss(dist, [0])
        assert np.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)


class TestBackward:
    def test_gradcheck_default_probe(self):
        model, batch, _ = build_probe(seed=0)
        report = finite_difference_check(model, batch)
        assert report.ok
        failed = [c for c in report.checks if c.status == "failed"]
        assert not failed
        skipped = [c.name for c in report.checks if c.status == "skipped"]
        assert skipped == ["word_table"]

    def test_gradcheck_other_seeds(self):
        for seed in (1, 2):
            model, batch, _ = build_probe(seed=seed)
            report = finite_difference_check(model, batch)
            assert report.ok, report.format()

    def test_gradcheck_trainable_word_table(self):
        model, batch, _ = build_probe(seed=3, trainable_words=True)
        report = finite_difference_check(model, batch)
        assert report.ok, report.format()
        assert all(c.status != "skipped" for c in report.checks)

    def test_gradcheck_through_fixed_dropout_masks(self):
        # Dropout is part of the differentiated graph when the masks are held
        # fixed, so finite differences must still agree.
        model, batch, plan = build_probe(seed=4)
        report = finite_difference_check(model, batch, plan)
        assert report.ok, report.format()

    def test_mutation_detected(self, rolled_dense_gradient):
        model, batch, _ = build_probe(seed=0)
        report = finite_difference_check(model, batch)
        assert not report.ok
        assert any(c.name == "dense.w" and c.status == "failed" for c in report.checks)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_assigned_char_gradients_detected(self, assigned_char_gradients, seed):
        # Only the char tensors' gradients change, and only because the
        # probe's slots share char sequences.
        model, batch, _ = build_probe(seed=seed)
        report = finite_difference_check(model, batch)
        failed = {c.name for c in report.checks if c.status == "failed"}
        assert failed and all(name.startswith("char_") for name in failed), report.format()

    def test_confident_correct_predictions_have_tiny_dense_gradient(self):
        model, chunk = chunk_probe(seed=0)
        # Saturate the bias toward B and make every gold label B: the
        # softmax-minus-onehot factor vanishes.
        model.dense.w[:] = 0.0
        model.dense.b[:] = [50.0, 0.0, 0.0]
        chunk = dataclasses.replace(chunk, labels=np.where(chunk.mask, 0, -1))  # 0 is B
        grads = chunk_backward(model, chunk)
        assert np.abs(grads["dense.w"]).max() < 1e-15
        assert np.abs(grads["dense.b"]).max() < 1e-15

    def test_lengthening_pad_suffix_leaves_gradients_unchanged(self):
        model, chunk = chunk_probe(seed=6, window=7, real_tokens=5)
        grads_small = chunk_backward(model, chunk)
        window = 11
        pad = window - chunk.window
        empty = np.zeros(0, dtype=np.int64)
        wider = PaddedChunk(
            word_ids=np.concatenate([chunk.word_ids, np.zeros(pad, dtype=np.int64)]),
            pos_ids=np.concatenate([chunk.pos_ids, np.zeros(pad, dtype=np.int64)]),
            char_ids=tuple(chunk.char_ids) + (empty,) * pad,
            mask=np.concatenate([chunk.mask, np.zeros(pad, dtype=bool)]),
            sentence_offset=0,
            labels=np.concatenate([chunk.labels, np.full(pad, -1, dtype=np.int64)]),
        )
        grads_wide = chunk_backward(model, wider)
        assert set(grads_small) == set(grads_wide)
        for name in grads_small:
            np.testing.assert_allclose(
                grads_small[name], grads_wide[name], atol=1e-15,
                err_msg=f"gradient differs for {name}",
            )

    def test_pad_table_rows_get_zero_gradient(self):
        model, chunk = chunk_probe(seed=7, trainable_words=True)
        grads = chunk_backward(model, chunk)
        for name in ("word_table", "pos_table", "char_table"):
            np.testing.assert_array_equal(grads[name][0], np.zeros_like(grads[name][0]))

    def test_nonfinite_loss_aborts_check(self):
        model, batch, _ = build_probe(seed=0)
        model.dense.b[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            finite_difference_check(model, batch)

    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"step": -1e-5}, {"step": float("nan")}, {"step": float("inf")},
        {"tolerance": 0.0}, {"tolerance": float("nan")}, {"tolerance": float("inf")},
    ])
    def test_bad_step_or_tolerance_rejected(self, kwargs):
        model, batch, _ = build_probe(seed=0)
        with pytest.raises(ValueError, match="finite and > 0"):
            finite_difference_check(model, batch, **kwargs)

    def test_nan_numeric_gradient_fails(self, monkeypatch):
        # Only the analytic forward is finite: every perturbed loss is NaN,
        # so every checked tensor must fail rather than pass.
        model, batch, _ = build_probe(seed=0)
        original = neural.forward_batch
        calls = []

        def nan_after_two(model, batch, plan=None):
            cache = original(model, batch, plan)
            calls.append(None)
            if len(calls) > 1:
                cache.chunk_losses = np.full_like(cache.chunk_losses, np.nan)
            return cache

        monkeypatch.setattr(neural, "forward_batch", nan_after_two)
        report = finite_difference_check(model, batch)
        assert not report.ok
        assert all(c.status in ("failed", "skipped") for c in report.checks)


class TestClipGradients:
    def _grads(self, values):
        return {f"t{i}": np.array(v, dtype=np.float64) for i, v in enumerate(values)}

    def test_norm_above_max_scales_everything(self):
        grads = self._grads([[6.0, 0.0], [0.0, 8.0]])  # global norm 10
        clip_gradients(grads, max_norm=5.0)
        np.testing.assert_allclose(grads["t0"], [3.0, 0.0])
        np.testing.assert_allclose(grads["t1"], [0.0, 4.0])

    def test_norm_below_max_unchanged(self):
        grads = self._grads([[3.0, 0.0]])
        clip_gradients(grads, max_norm=5.0)
        np.testing.assert_array_equal(grads["t0"], [3.0, 0.0])

    def test_post_clip_norm_is_min_of_pre_and_max(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            grads = {f"g{i}": rng.normal(scale=3, size=(4, 3)) for i in range(3)}
            pre = global_grad_norm(grads)
            clip_gradients(grads, max_norm=5.0)
            assert global_grad_norm(grads) == pytest.approx(min(pre, 5.0), abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        grads = {"g": rng.normal(scale=10, size=20)}
        clip_gradients(grads, max_norm=5.0)
        once = grads["g"].copy()
        clip_gradients(grads, max_norm=5.0)
        np.testing.assert_allclose(grads["g"], once, rtol=1e-15)


class TestAdam:
    def _model_and_state(self, seed=0):
        model = build_probe(seed=seed)[0]
        return model, AdamState.for_model(model)

    def _zero_grads(self, model):
        names = trainable_tensor_names(model)
        tensors = dict(named_tensors(model))
        return {n: np.zeros_like(tensors[n]) for n in names}

    def test_zero_gradient_leaves_parameters_unchanged(self):
        model, state = self._model_and_state()
        before = {n: a.copy() for n, a in named_tensors(model)}
        adam_step(model, self._zero_grads(model), state, lr=0.001)
        for name, arr in named_tensors(model):
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_with_unit_gradient(self):
        # Bias correction gives m_hat = v_hat = 1, so the update is
        # -lr / (1 + eps), i.e. -0.001 to within 1e-9.
        model, state = self._model_and_state()
        grads = self._zero_grads(model)
        grads["dense.b"][0] = 1.0
        before = model.dense.b.copy()
        adam_step(model, grads, state, lr=0.001)
        delta = model.dense.b[0] - before[0]
        assert delta == pytest.approx(-0.001, abs=1e-9)
        np.testing.assert_array_equal(model.dense.b[1:], before[1:])

    def test_moment_recurrence_oracle(self):
        model, state = self._model_and_state()
        g1 = self._zero_grads(model)
        g1["dense.b"][:] = [1.0, -2.0, 0.5]
        adam_step(model, g1, state, lr=0.001)
        g2 = self._zero_grads(model)
        g2["dense.b"][:] = [0.25, 1.0, -1.0]
        adam_step(model, g2, state, lr=0.001)
        m = 0.0
        v = 0.0
        for g in (1.0, 0.25):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
        assert state.m["dense.b"][0] == pytest.approx(m, abs=1e-15)
        assert state.v["dense.b"][0] == pytest.approx(v, abs=1e-15)
        assert state.t == 2

    def test_lr_zero_is_identity(self):
        model, state = self._model_and_state()
        rng = np.random.default_rng(10)
        grads = {
            n: rng.normal(size=a.shape)
            for n, a in named_tensors(model)
            if n in trainable_tensor_names(model)
        }
        before = {n: a.copy() for n, a in named_tensors(model)}
        adam_step(model, grads, state, lr=0.0)
        for name, arr in named_tensors(model):
            np.testing.assert_array_equal(arr, before[name])

    def test_frozen_word_table_never_updates(self):
        model, state = self._model_and_state()
        assert "word_table" not in state.m
        before = model.word_table.matrix.copy()
        grads = self._zero_grads(model)
        grads["dense.b"][:] = 1.0
        adam_step(model, grads, state, lr=0.001)
        np.testing.assert_array_equal(model.word_table.matrix, before)


class TestDropout:
    def test_inference_mode_identity(self):
        # Without a plan the GRU reads the feature rows unscaled.
        model, chunk = chunk_probe(seed=11)
        cache = forward_batch(model, batch_chunks([chunk]))
        t = chunk.real_count - 1
        np.testing.assert_array_equal(
            cache.inputs[t, : model.dims.word_dim], model.word_table.matrix[chunk.word_ids[t]]
        )
        assert cache.rec is None

    def test_rate_zero_identity(self):
        model, chunk = chunk_probe(seed=12)
        batch = batch_chunks([chunk])
        plan = make_dropout_plan(np.random.default_rng(12), 0.0, 1, chunk.window,
                                 model.dims.feature_dim, model.dims.hidden)
        np.testing.assert_array_equal(
            forward_batch(model, batch, plan).probs, forward_batch(model, batch).probs
        )

    def test_values_are_zero_or_scaled(self):
        plan = make_dropout_plan(np.random.default_rng(13), 0.5, 4, 5, 50, 10)
        for mask in (plan.input_mask, plan.rec_fwd, plan.rec_bwd):
            assert set(np.unique(mask)) <= {0.0, 2.0}
        plan = make_dropout_plan(np.random.default_rng(13), 0.2, 4, 5, 50, 10)
        assert set(np.unique(plan.input_mask)) <= {0.0, 1.0 / (1.0 - 0.2)}

    def test_monte_carlo_expectation(self):
        # Each surviving coordinate is 2 w.p. 1/2: mean 1, variance 1.  Over
        # 10,000 trials the per-coordinate mean lands within 3 sigma of 1.
        plan = make_dropout_plan(np.random.default_rng(14), 0.5, 10_000, 1, 8, 8)
        for trials in (plan.input_mask[:, 0], plan.rec_fwd, plan.rec_bwd):
            means = trials.mean(axis=0)
            assert (np.abs(means - 1.0) <= 3.0 / np.sqrt(10_000)).all()

    def test_invalid_rate_rejected(self):
        for rate in (1.0, -0.5):
            with pytest.raises(ValueError, match="dropout"):
                TrainConfig(dropout=rate)

    def test_recurrent_masks_reused_across_timesteps(self):
        plan = make_dropout_plan(np.random.default_rng(15), 0.5, 2, 7, 4, 8)
        assert plan.rec_fwd.shape == (2, 8)
        assert plan.rec_bwd.shape == (2, 8)
        assert set(np.unique(plan.rec_fwd)) <= {0.0, 2.0}

    def test_plan_disabled_at_rate_zero(self):
        assert make_dropout_plan(np.random.default_rng(16), 0.0, 1, 2, 3, 4) is None


class TestForwardDeterminism:
    def test_forward_batch_repeatable(self):
        model, batch, _ = build_probe(seed=17)
        first = forward_batch(model, batch)
        second = forward_batch(model, batch)
        np.testing.assert_array_equal(first.probs, second.probs)
        np.testing.assert_array_equal(first.chunk_losses, second.chunk_losses)


class TestSigmoid:
    def test_exact_saturation_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_matches_logistic_on_grid(self):
        x = np.linspace(-30.0, 30.0, 6001)
        np.testing.assert_allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)


def _chunk(chars, labels, window=7, seed=0):
    """A chunk with the given char sequences on its real prefix."""
    rng = np.random.default_rng(seed)
    real = len(chars)
    mask = np.arange(window) < real
    empty = np.zeros(0, dtype=np.int64)
    return PaddedChunk(
        word_ids=np.where(mask, rng.integers(1, 8, size=window), 0),
        pos_ids=np.where(mask, rng.integers(1, 5, size=window), 0),
        char_ids=tuple(np.asarray(c, dtype=np.int64) for c in chars) + (empty,) * (window - real),
        mask=mask,
        sentence_offset=0,
        labels=np.where(mask, np.resize(np.asarray(labels, dtype=np.int64), window), -1),
    )


def _probe_model(seed=0):
    return chunk_probe(seed=seed, char_widths=(2, 3), trainable_words=True)[0]


# Probe char ids 2..7 are letters; 0 is PAD, 1 is UNK; -2 and 9 are out of range.
MIXED_CHUNKS = [
    _chunk([[2, 3], [2, 3], [4, 5, 6], [2, 3], [2, 3, 4]], [0, 1, 2], seed=1),  # repeats
    _chunk([[2], [3, 4], [5, 6, 7], [7, 6], [4, 4, 4, 4]], [2, 0, 1], seed=2),  # all distinct
    _chunk([[2, 3, 0], [2, 3], [2, 3, 0, 0]], [0, 2], seed=3),  # differ by trailing PAD
    _chunk([[-2, 3], [9], [3, 9, 2], [1, 3]], [1, 1, 2], seed=4),  # out of range
    _chunk([[2, 3]] * 7, [0, 1, 1, 2], seed=5),  # full window
]


def _assert_batch_invariant(model, chunks):
    mixed = forward_batch(model, batch_chunks(chunks))
    for i, chunk in enumerate(chunks):
        single = forward_batch(model, batch_chunks([chunk]))
        np.testing.assert_allclose(mixed.probs[i], single.probs[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            mixed.chunk_losses[i], single.chunk_losses[0], rtol=0, atol=1e-12
        )


char_seqs = st.lists(st.integers(min_value=-3, max_value=11), min_size=1, max_size=6)


@st.composite
def chunk_lists(draw):
    pool = draw(st.lists(char_seqs, min_size=1, max_size=3))
    chunks = []
    for seed in range(draw(st.integers(min_value=1, max_value=5))):
        chars = []
        for _ in range(draw(st.integers(min_value=1, max_value=7))):
            kind = draw(st.sampled_from(["repeat", "fresh", "trailing_pad"]))
            seq = draw(char_seqs) if kind == "fresh" else list(draw(st.sampled_from(pool)))
            if kind == "trailing_pad":
                seq += [0] * draw(st.integers(min_value=1, max_value=3))
            chars.append(seq)
        labels = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7))
        chunks.append(_chunk(chars, labels, seed=seed))
    return chunks


class TestBatchInvariance:
    def test_mixed_batch_equals_per_chunk(self):
        _assert_batch_invariant(_probe_model(), MIXED_CHUNKS)

    @given(chunk_lists())
    @settings(max_examples=60, deadline=None)
    def test_property(self, chunks):
        _assert_batch_invariant(_probe_model(), chunks)

    def test_char_cnn_runs_once_per_distinct_sequence(self, monkeypatch):
        calls = []
        original = neural.char_cnn_trace

        def counting(seqs, params):
            calls.append([chars.tobytes() for chars in seqs])
            return original(seqs, params)

        monkeypatch.setattr(neural, "char_cnn_trace", counting)
        batch = batch_chunks(MIXED_CHUNKS)
        forward_batch(_probe_model(), batch)
        real = batch.mask > 0
        distinct = {
            chars[t].tobytes() for chars, row in zip(batch.chars, real) for t in np.flatnonzero(row)
        }
        (keys,) = calls  # one call per forward
        assert len(keys) == len(set(keys)) == len(distinct) and set(keys) == distinct


class TestCharDedupGradients:
    def test_batch_gradient_is_mean_of_chunk_gradients(self):
        model = _probe_model(seed=8)
        cache = forward_batch(model, batch_chunks(MIXED_CHUNKS))
        assert np.unique(cache.char_index).size < int(cache.batch.mask.sum())
        batched = backward_from_cache(model, cache)
        per_chunk = [chunk_backward(model, chunk) for chunk in MIXED_CHUNKS]
        assert set(batched) == set(per_chunk[0])
        for name, grad in batched.items():
            mean = sum(g[name] for g in per_chunk) / len(per_chunk)
            np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_with_shared_char_sequence(self):
        model, batch, _ = build_probe(seed=0)
        cache = forward_batch(model, batch)
        assert np.unique(cache.char_index).size < int(batch.mask.sum())
        report = finite_difference_check(model, batch)
        assert report.ok, report.format()


class TestPackedLayout:
    def test_gradcheck_mixed_batch_with_dropout_plan(self):
        # Packing sorts the chunks by length, so the recurrent masks are
        # reordered; finite differences through a fixed plan check that the
        # backward pass reorders them the same way.
        model = _probe_model(seed=9)
        batch = batch_chunks(MIXED_CHUNKS)
        assert len({int(n) for n in batch.mask.sum(axis=1)}) > 2
        plan = make_dropout_plan(
            np.random.default_rng(21), 0.5, batch.size, batch.mask.shape[1],
            model.dims.feature_dim, model.dims.hidden,
        )
        report = finite_difference_check(model, batch, plan)
        assert report.ok, report.format()
        assert all(c.status == "passed" for c in report.checks)

    def test_dropout_plan_rows_follow_their_chunks(self):
        # Row i of every plan mask belongs to chunk i of the batch, whatever
        # order the packed loop runs the chunks in.
        model = _probe_model(seed=12)
        batch = batch_chunks(MIXED_CHUNKS)
        plan = make_dropout_plan(
            np.random.default_rng(22), 0.5, batch.size, batch.mask.shape[1],
            model.dims.feature_dim, model.dims.hidden,
        )
        cache = forward_batch(model, batch, plan)
        batched = backward_from_cache(model, cache)
        per_chunk = []
        for i, chunk in enumerate(MIXED_CHUNKS):
            own = neural.DropoutPlan(*(m[i : i + 1] for m in (plan.input_mask, plan.rec_fwd, plan.rec_bwd)))
            single = forward_batch(model, batch_chunks([chunk]), own)
            np.testing.assert_allclose(cache.probs[i], single.probs[0], rtol=0, atol=1e-12)
            per_chunk.append(backward_from_cache(model, single))
        for name, grad in batched.items():
            mean = sum(g[name] for g in per_chunk) / len(per_chunk)
            np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)

    def test_non_prefix_mask_rejected(self):
        batch = batch_chunks(MIXED_CHUNKS[:2])
        batch.mask[1, 0] = 0.0  # a pad slot before real ones
        with pytest.raises(ValueError, match="prefix"):
            forward_batch(_probe_model(), batch)

    def test_gate_names_are_views_of_the_stored_arrays(self):
        model = _probe_model(seed=10)
        h = model.dims.hidden
        np.testing.assert_array_equal(model.gru_bwd.u_r, model.gru_u[1, h : 2 * h])
        assert np.shares_memory(model.gru_bwd.u_r, model.gru_u)
        batch = batch_chunks(MIXED_CHUNKS)
        before = forward_batch(model, batch).probs
        tensors = dict(named_tensors(model))
        grads = {name: np.zeros_like(tensors[name]) for name in trainable_tensor_names(model)}
        grads["gru_bwd.u_r"][:] = 1.0
        stored = model.gru_u.copy()
        adam_step(model, grads, AdamState.for_model(model), lr=0.01)
        moved = np.zeros(stored.shape, dtype=bool)
        moved[1, h : 2 * h] = True
        np.testing.assert_allclose(model.gru_u[moved] - stored[moved], -0.01, atol=1e-9)
        np.testing.assert_array_equal(model.gru_u[~moved], stored[~moved])
        assert np.abs(forward_batch(model, batch).probs - before).max() > 0

    def test_clone_shares_no_memory(self):
        model = _probe_model(seed=11)
        copy = model.clone()
        assert copy.word_table_trainable and copy.dims == model.dims
        stored = lambda m: [a for _, a in named_tensors(m)] + [m.gru_w, m.gru_u, m.gru_b]
        for a, b in zip(stored(model), stored(copy)):
            np.testing.assert_array_equal(a, b)
        for a in stored(model):
            assert not any(np.shares_memory(a, b) for b in stored(copy))
        assert np.shares_memory(copy.gru_fwd.w_h, copy.gru_w)


class TestTensorInventory:
    # sha256 of the float64 bytes of every tensor in named_tensors order, as
    # the init stream drew them when the inventory moved behind neural.  A
    # changed draw order changes every seed's model and fails here.
    PROBE_DIGEST = "b04161cb9d9f0d3ebfc58750f8b90b5c1dc48070032e570208a46ba91a0df438"

    def test_init_stream_is_pinned(self):
        model = chunk_probe(seed=3, char_widths=(2, 3), hidden=5)[0]
        digest = hashlib.sha256()
        for _, arr in named_tensors(model):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.PROBE_DIGEST

    @pytest.mark.parametrize("widths, trainable", [((3,), False), ((2, 4), True), ((2, 3), False)])
    def test_shapes_match_the_initialized_model(self, widths, trainable, tmp_path):
        vocab, models = _inventory_models(widths, trainable, tmp_path)
        for source, model in models.items():
            assert model.word_table_trainable is trainable, source
            shapes = [(n, a.shape) for n, a in named_tensors(model)]
            assert tensor_shapes(model.dims, vocab) == shapes, source

    @pytest.mark.parametrize("widths", [(3,), (2, 3)])
    def test_tensors_are_the_typed_views(self, widths, tmp_path):
        _, models = _inventory_models(widths, True, tmp_path)
        for source, model in models.items():
            for arr in (model.gru_w, model.gru_u, model.gru_b, *model.tensors.values()):
                arr.setflags(write=True)  # a loaded model's arrays are read-only
            h = model.dims.hidden
            views = _typed_views(model)
            assert list(views) == list(model.tensors), source
            for name, arr in model.tensors.items():
                view = views[name]
                arr.flat[0] = 0.25
                view.flat[-1] = -0.75
                assert view.flat[0] == 0.25 and arr.flat[-1] == -0.75, (source, name)
                if name.startswith("gru_"):
                    prefix, gate = name.split(".")
                    stacked = {"w": model.gru_w, "u": model.gru_u, "b": model.gru_b}[gate[0]]
                    k, g = ("gru_fwd", "gru_bwd").index(prefix), "zrh".index(gate[2])
                    np.testing.assert_array_equal(stacked[k, g * h : (g + 1) * h], arr)


def _inventory_models(widths, trainable, tmp_path):
    """The vocabulary and three models over it: from ``init_parameters``,
    from ``clone()`` and from a ``load_model`` round trip."""
    vocab = Vocabulary(
        word_to_index={"<pad>": 0, "<unk>": 1, "a": 2, "b": 3},
        pos_to_index={"<pad>": 0, "<unk>": 1, "NOUN": 2},
        char_to_index={"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "c": 4},
    )
    dims = ModelDims(word_dim=3, pos_dim=2, char_dim=4, char_filters=5,
                     char_widths=widths, hidden=6, window=7, overlap=2)
    words = EmbeddingTable(np.ones((vocab.word_size, 3)))
    model = init_parameters(dims, vocab, words, np.random.default_rng(0), trainable)
    path = str(tmp_path / f"model-{len(widths)}.bin")
    save_model(model, vocab, path)
    return vocab, {"init": model, "clone": model.clone(), "load": load_model(path)[0]}


def _typed_views(model):
    """The attribute the forward reads for each archive name, spelled out
    here apart from clinspan.neural."""
    char = model.char_params
    views = {
        "word_table": model.word_table.matrix,
        "pos_table": model.pos_table.matrix,
        "char_table": char.char_table,
    }
    for k, filters, bias in zip(char.widths, char.filters, char.biases):
        views |= {f"char_filters_w{k}": filters, f"char_bias_w{k}": bias}
    for prefix in ("gru_fwd", "gru_bwd"):
        for gate in GruDirectionParams.GATE_NAMES:
            views[f"{prefix}.{gate}"] = getattr(getattr(model, prefix), gate)
    return views | {"dense.w": model.dense.w, "dense.b": model.dense.b}


def _wide_batch(n_chunks=72, seed=0):
    """A batch of ``n_chunks`` probe chunks of random lengths and char sequences."""
    rng = np.random.default_rng(seed)
    chunks = [
        _chunk([rng.integers(2, 8, size=rng.integers(1, 5)) for _ in range(rng.integers(1, 8))],
               rng.integers(0, 3, size=7), seed=s)
        for s in range(n_chunks)
    ]
    return batch_chunks(chunks)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs."""
    started = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestThreadedDirections:
    """A forward with at least PARALLEL_ROWS real slots runs the backward GRU
    direction on a helper thread; the stacked loop is the reference."""

    @pytest.mark.parametrize("dropout", [False, True])
    def test_outputs_and_gradients_are_byte_identical(self, monkeypatch, started_threads, dropout):
        monkeypatch.setattr(neural, "_CPUS", 2)
        model = _probe_model(seed=13)
        batch = _wide_batch()
        assert batch.size >= 64
        plan = make_dropout_plan(
            np.random.default_rng(23), 0.5, batch.size, batch.mask.shape[1],
            model.dims.feature_dim, model.dims.hidden,
        ) if dropout else None
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 10**9)
        stacked = forward_batch(model, batch, plan)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        threaded = forward_batch(model, batch, plan)
        assert len(started_threads) == 1
        for name in ("probs", "gates", "states", "chunk_losses"):
            assert getattr(stacked, name).tobytes() == getattr(threaded, name).tobytes(), name
        expected = backward_from_cache(model, stacked)
        got = backward_from_cache(model, threaded)
        assert got.keys() == expected.keys()
        for name in got:
            assert got[name].tobytes() == expected[name].tobytes(), name

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(neural, "_CPUS", 2)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        caller = threading.get_ident()
        original = neural._sigmoid

        def failing(x):
            if threading.get_ident() != caller:
                time.sleep(0.05)  # fail after the caller's direction is done
                raise RuntimeError("helper failed")
            return original(x)

        monkeypatch.setattr(neural, "_sigmoid", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="helper failed"):
            forward_batch(_probe_model(), _wide_batch())
        assert threading.enumerate() == before

    def test_caller_exception_propagates_after_the_helper_is_joined(self, monkeypatch):
        monkeypatch.setattr(neural, "_CPUS", 2)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        caller = threading.get_ident()
        original = neural._sigmoid
        helper_steps = []

        def failing(x):
            if threading.get_ident() == caller:
                raise RuntimeError("caller failed")
            time.sleep(0.01)  # the helper is still running when the caller fails
            helper_steps.append(x.shape)
            return original(x)

        monkeypatch.setattr(neural, "_sigmoid", failing)
        before = threading.enumerate()
        batch = _wide_batch()
        with pytest.raises(RuntimeError, match="caller failed"):
            forward_batch(_probe_model(), batch)
        assert threading.enumerate() == before
        assert len(helper_steps) == int(batch.mask.sum(axis=1).max())  # it ran to the end

    def test_caller_errstate_applies_in_the_helper(self, monkeypatch):
        monkeypatch.setattr(neural, "_CPUS", 2)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        model = _probe_model()
        model.gru_w[1] = 1e308  # only the helper's direction overflows
        batch = _wide_batch()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            forward_batch(model, batch)
        with np.errstate(all="ignore"):  # a warning would be an error in this suite
            threaded = forward_batch(model, batch).probs
            monkeypatch.setattr(neural, "PARALLEL_ROWS", 10**9)
            assert threaded.tobytes() == forward_batch(model, batch).probs.tobytes()

    def test_no_warning_leaks_from_training(self, monkeypatch, started_threads, overfit_corpus):
        # lr 1e300 overflows the second forward; train() ignores the warnings
        # and its non-finite loss guard reports the failure.
        monkeypatch.setattr(neural, "_CPUS", 2)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        vocab = build_vocab(overfit_corpus)
        with open(DATA_DIR / "overfit_embeddings.txt", encoding="utf-8") as fh:
            embeddings = load_embeddings(fh, vocab)
        config = TrainConfig(epochs=2, lr=1e300, batch_size=4, hidden=8, char_filters=4,
                             pos_dim=4, char_dim=4)
        with pytest.raises(NumericError, match="non-finite loss"):
            train(overfit_corpus, embeddings, config, vocab=vocab)
        assert started_threads

    @pytest.mark.parametrize("rows, cpus", [(10**9, 2), (1, 1)], ids=["small-batch", "one-cpu"])
    def test_no_thread_below_threshold_or_on_one_cpu(self, monkeypatch, started_threads, rows, cpus):
        monkeypatch.setattr(neural, "PARALLEL_ROWS", rows)
        monkeypatch.setattr(neural, "_CPUS", cpus)
        forward_batch(_probe_model(), _wide_batch())
        assert started_threads == []

    def test_default_threshold_splits_large_batches_only(self, monkeypatch, started_threads):
        monkeypatch.setattr(neural, "_CPUS", 2)
        model = _probe_model()
        batch = _wide_batch(n_chunks=128)
        assert int(batch.mask.sum()) >= neural.PARALLEL_ROWS
        forward_batch(model, batch)
        forward_batch(model, batch_chunks([MIXED_CHUNKS[0]]))
        assert len(started_threads) == 1


def _grad_names(model):
    """The keys of a backward's gradient dict, in the order clip_gradients
    sums norms in."""
    gates = [f"{prefix}.{gate}" for prefix in ("gru_fwd", "gru_bwd")
             for gate in GruDirectionParams.GATE_NAMES]
    tables = ["word_table"] * model.word_table_trainable + ["pos_table", "char_table"]
    chars = [f"char_{kind}_w{k}" for k in model.dims.char_widths for kind in ("filters", "bias")]
    return ["dense.w", "dense.b", *gates, *tables, *chars]


class TestThreadedBackward:
    """A backward over at least PARALLEL_ROWS real rows runs the GRU weight
    gradients on a helper thread while the caller runs the feature
    gradients; the one-thread backward is the reference."""

    @staticmethod
    def _cache(monkeypatch, dropout=True, trainable_words=True):
        """A forward over a wide probe batch, computed on one thread."""
        model = chunk_probe(seed=13, char_widths=(2, 3), trainable_words=trainable_words)[0]
        batch = _wide_batch()
        plan = make_dropout_plan(
            np.random.default_rng(23), 0.5, batch.size, batch.mask.shape[1],
            model.dims.feature_dim, model.dims.hidden,
        ) if dropout else None
        monkeypatch.setattr(neural, "_CPUS", 2)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 10**9)
        return model, forward_batch(model, batch, plan)

    @pytest.mark.parametrize("trainable_words", [False, True], ids=["frozen-words", "word-table"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["no-dropout", "dropout"])
    def test_gradients_are_byte_identical_in_the_same_order(
        self, monkeypatch, started_threads, dropout, trainable_words
    ):
        model, cache = self._cache(monkeypatch, dropout, trainable_words)
        serial = backward_from_cache(model, cache)
        assert started_threads == []
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        threaded = backward_from_cache(model, cache)
        assert len(started_threads) == 1
        assert list(serial) == list(threaded) == _grad_names(model)
        for name in serial:
            assert serial[name].tobytes() == threaded[name].tobytes(), name

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        model, cache = self._cache(monkeypatch)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        caller = threading.get_ident()
        original = neural._gate_views

        def failing(*args):
            if threading.get_ident() != caller:
                time.sleep(0.05)  # fail after the caller's gradients are done
                raise RuntimeError("helper failed")
            return original(*args)

        monkeypatch.setattr(neural, "_gate_views", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="helper failed"):
            backward_from_cache(model, cache)
        assert threading.enumerate() == before

    def test_caller_exception_propagates_after_the_helper_is_joined(self, monkeypatch):
        model, cache = self._cache(monkeypatch)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        caller = threading.get_ident()
        original = neural._gate_views
        helper_done = []

        def slow(*args):
            assert threading.get_ident() != caller
            time.sleep(0.05)  # the helper is still running when the caller fails
            helper_done.append(True)
            return original(*args)

        def failing(*args):
            raise RuntimeError("caller failed")

        monkeypatch.setattr(neural, "_gate_views", slow)
        monkeypatch.setattr(neural, "char_cnn_trace", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="caller failed"):
            backward_from_cache(model, cache)
        assert helper_done == [True]
        assert threading.enumerate() == before

    def test_caller_errstate_applies_in_the_helper(self, monkeypatch):
        model, cache = self._cache(monkeypatch)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", 1)
        with np.errstate(all="raise"):
            backward_from_cache(model, cache)
        # Only the helper's d_w GEMM reads the forward's inputs: inf - inf there.
        cache.inputs[...] = np.inf
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            backward_from_cache(model, cache)
        with np.errstate(all="ignore"):  # a warning would be an error in this suite
            threaded = backward_from_cache(model, cache)
            monkeypatch.setattr(neural, "PARALLEL_ROWS", 10**9)
            serial = backward_from_cache(model, cache)
        assert np.isnan(threaded["gru_fwd.w_z"]).any()
        for name in serial:
            assert serial[name].tobytes() == threaded[name].tobytes(), name

    @pytest.mark.parametrize("rows, cpus", [(10**9, 2), (1, 1)], ids=["small-batch", "one-cpu"])
    def test_no_thread_below_threshold_or_on_one_cpu(self, monkeypatch, started_threads, rows, cpus):
        model, cache = self._cache(monkeypatch)
        monkeypatch.setattr(neural, "PARALLEL_ROWS", rows)
        monkeypatch.setattr(neural, "_CPUS", cpus)
        backward_from_cache(model, cache)
        assert started_threads == []

    def test_training_is_byte_identical_with_and_without_helpers(self, monkeypatch, overfit_corpus):
        # A clip norm far below the gradients' scales every step, and the
        # scale sums the norms in the gradient dict's order.
        vocab = build_vocab(overfit_corpus)
        with open(DATA_DIR / "overfit_embeddings.txt", encoding="utf-8") as fh:
            embeddings = load_embeddings(fh, vocab)
        config = TrainConfig(epochs=2, batch_size=4, hidden=8, char_filters=4, char_widths=(2, 3),
                             pos_dim=4, char_dim=4, clip_norm=1e-3, train_word_embeddings=True)
        norms = []
        original = tagger.clip_gradients

        def clip(grads, max_norm):
            norms.append(global_grad_norm(grads))
            return original(grads, max_norm)

        monkeypatch.setattr(tagger, "clip_gradients", clip)
        monkeypatch.setattr(neural, "_CPUS", 2)
        runs = {}
        for rows in (1, 10**9):
            monkeypatch.setattr(neural, "PARALLEL_ROWS", rows)
            runs[rows] = train(overfit_corpus, embeddings, config, vocab=vocab)
        assert norms and min(norms) > config.clip_norm
        (threaded, threaded_history), (serial, serial_history) = runs.values()
        assert threaded_history == serial_history
        assert format_history(threaded_history) == format_history(serial_history)
        assert list(threaded.tensors) == list(serial.tensors)
        for name, arr in serial.tensors.items():
            assert threaded.tensors[name].tobytes() == arr.tobytes(), name
