from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinspan import neural
from clinspan.chunking import PaddedChunk
from clinspan.neural import (
    AdamState,
    DenseParams,
    GruDirectionParams,
    NumericError,
    adam_step,
    backward,
    backward_from_cache,
    batch_chunks,
    build_probe,
    clip_gradients,
    dense_softmax,
    finite_difference_check,
    forward_batch,
    global_grad_norm,
    make_dropout_plan,
    named_tensors,
    softmax,
    trainable_tensor_names,
)
from clinspan.neural import _chunk_losses, _sigmoid
from clinspan.tagger import TrainConfig


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
    model = dataclasses.replace(model, gru_fwd=p_fwd, gru_bwd=p_bwd)
    cache = forward_batch(model, batch_chunks([chunk]))
    return cache.concat[0], cache.inputs


class TestBigruForward:
    def test_single_token_both_halves_from_same_input(self):
        rng = np.random.default_rng(2)
        model, chunk = build_probe(seed=2, hidden=3, window=4, real_tokens=1)
        p = _random_gru(3, model.dims.feature_dim, rng)
        out, _ = _bigru_states(model, chunk, p, p)
        np.testing.assert_allclose(out[0, :3], out[0, 3:], atol=1e-14)

    def test_palindrome_with_shared_params(self):
        # For x_t = x_{T-1-t} and identical direction parameters, the forward
        # state at t equals the backward state at T-1-t.
        rng = np.random.default_rng(3)
        model, chunk = build_probe(seed=3, hidden=1, window=3, real_tokens=3)
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
        model, chunk = build_probe(seed=4, hidden=4, window=6, real_tokens=2)
        p_f = _random_gru(4, model.dims.feature_dim, rng)
        p_b = _random_gru(4, model.dims.feature_dim, rng)
        out, _ = _bigru_states(model, chunk, p_f, p_b)
        np.testing.assert_array_equal(out[2:], np.zeros((4, 8)))
        assert np.abs(out[:2]).max() > 0

    def test_matches_cell_iteration(self):
        rng = np.random.default_rng(5)
        model, chunk = build_probe(seed=5, hidden=3, window=4, real_tokens=4)
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
        model, chunk = build_probe(seed=0)
        report = finite_difference_check(model, chunk)
        assert report.ok
        failed = [c for c in report.checks if c.status == "failed"]
        assert not failed
        skipped = [c.name for c in report.checks if c.status == "skipped"]
        assert skipped == ["word_table"]

    def test_gradcheck_other_seeds(self):
        for seed in (1, 2):
            model, chunk = build_probe(seed=seed)
            report = finite_difference_check(model, chunk)
            assert report.ok, report.format()

    def test_gradcheck_trainable_word_table(self):
        model, chunk = build_probe(seed=3, trainable_words=True)
        report = finite_difference_check(model, chunk)
        assert report.ok, report.format()
        assert all(c.status != "skipped" for c in report.checks)

    def test_gradcheck_through_fixed_dropout_masks(self):
        # Dropout is part of the differentiated graph when the masks are held
        # fixed, so finite differences must still agree.
        model, chunk = build_probe(seed=4)
        rng = np.random.default_rng(99)
        batch = batch_chunks([chunk])
        plan = make_dropout_plan(
            rng, 0.5, 1, chunk.window, model.dims.feature_dim, model.dims.hidden
        )
        analytic = backward_from_cache(model, forward_batch(model, batch, plan))

        def loss():
            return float(forward_batch(model, batch, plan).chunk_losses[0])

        tensors = dict(named_tensors(model))
        rng2 = np.random.default_rng(5)
        for name in trainable_tensor_names(model):
            arr = tensors[name]
            flat_indices = rng2.choice(arr.size, size=min(6, arr.size), replace=False)
            for flat in flat_indices:
                if name in ("pos_table", "char_table") and flat < arr.shape[1]:
                    continue  # frozen PAD row
                orig = arr.flat[flat]
                arr.flat[flat] = orig + 1e-5
                up = loss()
                arr.flat[flat] = orig - 1e-5
                down = loss()
                arr.flat[flat] = orig
                numeric = (up - down) / 2e-5
                a = analytic[name].flat[flat]
                assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-8) < 1e-4

    def test_mutation_detected(self):
        model, chunk = build_probe(seed=0)
        report = finite_difference_check(model, chunk, corrupt_tensor="dense.w")
        assert not report.ok
        assert any(c.name == "dense.w" and c.status == "failed" for c in report.checks)

    def test_confident_correct_predictions_have_tiny_dense_gradient(self):
        model, chunk = build_probe(seed=0)
        # Saturate the bias toward B and make every gold label B: the
        # softmax-minus-onehot factor vanishes.
        model.dense.w[:] = 0.0
        model.dense.b[:] = [50.0, 0.0, 0.0]
        gold = ["B"] * chunk.real_count
        grads = backward(model, chunk, gold)
        assert np.abs(grads["dense.w"]).max() < 1e-15
        assert np.abs(grads["dense.b"]).max() < 1e-15

    def test_lengthening_pad_suffix_leaves_gradients_unchanged(self):
        model, chunk = build_probe(seed=6, window=7, real_tokens=5)
        grads_small = backward(model, chunk)
        window = 11
        pad = window - chunk.window
        empty = np.zeros(0, dtype=np.int64)
        wider = PaddedChunk(
            word_ids=np.concatenate([chunk.word_ids, np.zeros(pad, dtype=np.int64)]),
            pos_ids=np.concatenate([chunk.pos_ids, np.zeros(pad, dtype=np.int64)]),
            char_ids=tuple(chunk.char_ids) + (empty,) * pad,
            mask=np.concatenate([chunk.mask, np.zeros(pad, dtype=bool)]),
            sentence_offset=0,
            chunk_ordinal=0,
            labels=np.concatenate([chunk.labels, np.full(pad, -1, dtype=np.int64)]),
        )
        grads_wide = backward(model, wider)
        assert set(grads_small) == set(grads_wide)
        for name in grads_small:
            np.testing.assert_allclose(
                grads_small[name], grads_wide[name], atol=1e-15,
                err_msg=f"gradient differs for {name}",
            )

    def test_pad_table_rows_get_zero_gradient(self):
        model, chunk = build_probe(seed=7, trainable_words=True)
        grads = backward(model, chunk)
        for name in ("word_table", "pos_table", "char_table"):
            np.testing.assert_array_equal(grads[name][0], np.zeros_like(grads[name][0]))

    def test_nonfinite_loss_aborts_check(self):
        model, chunk = build_probe(seed=0)
        model.dense.b[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            finite_difference_check(model, chunk)


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
        model, _ = build_probe(seed=seed)
        return model, AdamState.for_model(model)

    def _zero_grads(self, model):
        names = trainable_tensor_names(model)
        tensors = dict(named_tensors(model))
        return {n: np.zeros_like(tensors[n]) for n in names}

    def test_zero_gradient_leaves_parameters_unchanged(self):
        model, state = self._model_and_state()
        before = {n: a.copy() for n, a in named_tensors(model)}
        adam_step(model, self._zero_grads(model), state)
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
        adam_step(model, g1, state)
        g2 = self._zero_grads(model)
        g2["dense.b"][:] = [0.25, 1.0, -1.0]
        adam_step(model, g2, state)
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
        adam_step(model, grads, state)
        np.testing.assert_array_equal(model.word_table.matrix, before)


class TestDropout:
    def test_inference_mode_identity(self):
        # Without a plan the GRU reads the feature rows unscaled.
        model, chunk = build_probe(seed=11)
        cache = forward_batch(model, batch_chunks([chunk]))
        t = chunk.real_count - 1
        np.testing.assert_array_equal(
            cache.inputs[t, : model.dims.word_dim], model.word_table.matrix[chunk.word_ids[t]]
        )
        assert cache.rec is None

    def test_rate_zero_identity(self):
        model, chunk = build_probe(seed=12)
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
        model, chunk = build_probe(seed=17)
        batch = batch_chunks([chunk])
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
        chunk_ordinal=0,
        labels=np.where(mask, np.resize(np.asarray(labels, dtype=np.int64), window), -1),
    )


def _probe_model(seed=0):
    model, _ = build_probe(seed=seed, char_widths=(2, 3), trainable_words=True)
    return model


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

        def counting(chars, params):
            calls.append(chars.tobytes())
            return original(chars, params)

        monkeypatch.setattr(neural, "char_cnn_trace", counting)
        batch = batch_chunks(MIXED_CHUNKS)
        forward_batch(_probe_model(), batch)
        real = batch.mask > 0
        distinct = {
            chars[t].tobytes() for chars, row in zip(batch.chars, real) for t in np.flatnonzero(row)
        }
        assert len(calls) == len(set(calls)) == len(distinct)


class TestCharDedupGradients:
    def test_batch_gradient_is_mean_of_chunk_gradients(self):
        model = _probe_model(seed=8)
        cache = forward_batch(model, batch_chunks(MIXED_CHUNKS))
        assert len(cache.char_traces) < int(cache.batch.mask.sum())
        batched = backward_from_cache(model, cache)
        per_chunk = [backward(model, chunk) for chunk in MIXED_CHUNKS]
        assert set(batched) == set(per_chunk[0])
        for name, grad in batched.items():
            mean = sum(g[name] for g in per_chunk) / len(per_chunk)
            np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_with_shared_char_sequence(self):
        model, chunk = build_probe(seed=0)
        shared = (chunk.char_ids[0],) * 2 + tuple(chunk.char_ids[2:])
        chunk = dataclasses.replace(chunk, char_ids=shared)
        cache = forward_batch(model, batch_chunks([chunk]))
        assert len(cache.char_traces) < chunk.real_count
        report = finite_difference_check(model, chunk)
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
        analytic = backward_from_cache(model, forward_batch(model, batch, plan))

        def loss():
            return forward_batch(model, batch, plan).mean_loss

        for name, arr in named_tensors(model):
            eligible = np.arange(arr.size)
            if name in neural.FROZEN_ROW_TABLES:
                eligible = eligible[eligible >= arr.shape[1]]
            rng = np.random.default_rng(len(name))
            for flat in rng.choice(eligible, size=min(20, eligible.size), replace=False):
                orig = arr.flat[flat]
                arr.flat[flat] = orig + 1e-5
                up = loss()
                arr.flat[flat] = orig - 1e-5
                down = loss()
                arr.flat[flat] = orig
                numeric = (up - down) / 2e-5
                a = analytic[name].flat[flat]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                assert rel < 1e-4, (name, flat, a, numeric)

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
        stored = lambda m: [a for _, a in named_tensors(m)] + [m.gru_w, m.gru_u, m.gru_b]
        for a, b in zip(stored(model), stored(copy)):
            np.testing.assert_array_equal(a, b)
        for a in stored(model):
            assert not any(np.shares_memory(a, b) for b in stored(copy))
        assert np.shares_memory(copy.gru_fwd.w_h, copy.gru_w)
