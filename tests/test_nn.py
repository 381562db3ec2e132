"""Layer-level tests: exact forwards, finite-difference backward oracles,
Adam against a hand-computed recurrence, and gradient-check plumbing."""

import warnings

import numpy as np
import pytest

from bwex.nn import (
    AdamState,
    AffineParams,
    EmbeddingTable,
    GradCheckReport,
    LstmParams,
    ShapeError,
    adam_update,
    affine,
    affine_backward,
    clip_global_norm,
    embed,
    embed_backward,
    grad_check,
    lstm_backward,
    lstm_forward,
    lstm_step,
    softmax_ce,
)


class TestAffine:
    def test_identity(self):
        p = AffineParams(np.eye(3), np.zeros(3))
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(affine(p, x), x)

    def test_zero_input_gives_bias(self):
        p = AffineParams(np.ones((2, 3)), np.array([5.0, -1.0]))
        np.testing.assert_array_equal(affine(p, np.zeros((4, 3))), np.tile([5.0, -1.0], (4, 1)))

    def test_shape_mismatch_names_shapes(self):
        p = AffineParams(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError, match="4"):
            affine(p, np.zeros((1, 4)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        p = AffineParams.create(5, 3, rng, dtype=np.float64)
        x = rng.standard_normal((7, 3))
        target = rng.standard_normal((7, 5))

        def loss_and_grads(params):
            y = affine_params(params)
            out = affine(y, x)
            diff = out - target
            (dw, db), _ = affine_backward(y, x, diff / diff.size * 2)
            return float(np.mean(diff**2)), {"w": dw, "b": db}

        def affine_params(params):
            return AffineParams(params["w"], params["b"])

        report = grad_check(loss_and_grads, {"w": p.weight, "b": p.bias}, tolerance=1e-4)
        assert report.passed, report.per_param


class TestLstm:
    def test_zero_everything(self):
        p = LstmParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        h, c = lstm_step(p, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        assert not h.any() and not c.any()

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 3
        biases = np.zeros(4 * hidden)
        biases[hidden : 2 * hidden] = 20.0  # forget gate ~ 1
        p = LstmParams(np.zeros((4 * hidden, 2)), np.zeros((4 * hidden, hidden)), biases)
        c_prev = np.array([[0.3, -0.8, 1.4]])
        _, c = lstm_step(p, np.zeros((1, hidden)), c_prev, np.zeros((1, 2)))
        np.testing.assert_allclose(c, c_prev, atol=1e-8)

    def test_state_shape_mismatch(self):
        p = LstmParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(ShapeError):
            lstm_step(p, np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 2)))

    def test_forward_matches_stepwise(self):
        rng = np.random.default_rng(1)
        p = LstmParams.create(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((2, 6, 3))
        h0 = rng.standard_normal((2, 4))
        c0 = rng.standard_normal((2, 4))
        h_seq, (h_last, c_last), _ = lstm_forward(p, x, h0, c0)
        h, c = h0, c0
        for t in range(6):
            h, c = lstm_step(p, h, c, x[:, t])
            np.testing.assert_allclose(h_seq[:, t], h, atol=1e-12)
        np.testing.assert_allclose(h_last, h, atol=1e-12)
        np.testing.assert_allclose(c_last, c, atol=1e-12)

    def test_step_reproduces_forward_exactly(self):
        # BLAS may order a dot product differently for different row counts,
        # so inputs and input weights sit on a dyadic grid where every input
        # projection is exact; the recurrent product and the cell then have
        # to run the same code for the states to agree bit for bit.
        rng = np.random.default_rng(4)
        batch, steps, hidden, n_in = 3, 9, 6, 5
        p = LstmParams.create(hidden, n_in, rng, dtype=np.float32)
        p.input_weights[...] = rng.integers(-8, 9, p.input_weights.shape) / 8
        x = (rng.integers(-4, 5, (batch, steps, n_in)) / 4).astype(np.float32)
        h0 = rng.standard_normal((batch, hidden)).astype(np.float32)
        c0 = rng.standard_normal((batch, hidden)).astype(np.float32)
        h_seq, _, _ = lstm_forward(p, x, h0, c0)
        h, c = h0, c0
        for t in range(steps):
            h, c = lstm_step(p, h, c, x[:, t])
            np.testing.assert_array_equal(h, h_seq[:, t])

    def test_gates_saturate_without_overflow(self):
        hidden = 4
        signs = np.tile([1.0, -1.0], 2 * hidden)
        p = LstmParams(
            np.zeros((4 * hidden, 1), np.float32),
            np.zeros((4 * hidden, hidden), np.float32),
            (1e4 * signs).astype(np.float32),
        )
        zeros = np.zeros((2, hidden), np.float32)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            h_seq, _, cache = lstm_forward(p, np.zeros((2, 3, 1), np.float32), zeros, zeros)
        gi, gf, gg, go = np.split(cache.gates, 4, axis=-1)
        sign = signs[:hidden]
        for gate in (gi, gf, go):
            np.testing.assert_array_equal(gate, np.broadcast_to(sign > 0, gate.shape))
        np.testing.assert_array_equal(gg, np.broadcast_to(sign, gg.shape))
        assert np.isfinite(h_seq).all() and np.isfinite(cache.c).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_bptt_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        hidden, n_in, steps = 8, 3, 5
        x = rng.standard_normal((2, steps, n_in))
        h0 = np.zeros((2, hidden))
        c0 = np.zeros((2, hidden))
        proj = rng.standard_normal(hidden)
        base = LstmParams.create(hidden, n_in, rng, dtype=np.float64)

        def loss_and_grads(params):
            p = LstmParams(params["wx"], params["wh"], params["b"])
            h_seq, _, cache = lstm_forward(p, x, h0, c0)
            loss = float(np.sum(h_seq * proj))
            dh = np.broadcast_to(proj, h_seq.shape).astype(np.float64)
            (dwx, dwh, db), _, _, _ = lstm_backward(p, cache, dh)
            return loss, {"wx": dwx, "wh": dwh, "b": db}

        params = {"wx": base.input_weights, "wh": base.recurrent_weights, "b": base.biases}
        report = grad_check(loss_and_grads, params, tolerance=1e-4)
        assert report.passed, report.per_param

    def test_backward_input_gradients(self):
        # dx, dh0, dc0 against finite differences on the inputs.
        rng = np.random.default_rng(9)
        p = LstmParams.create(4, 2, rng, dtype=np.float64)
        x = rng.standard_normal((1, 3, 2))
        h0 = rng.standard_normal((1, 4))
        c0 = rng.standard_normal((1, 4))
        proj = rng.standard_normal(4)

        def run(xv, h0v, c0v):
            h_seq, _, cache = lstm_forward(p, xv, h0v, c0v)
            return float(np.sum(h_seq * proj)), cache, h_seq

        loss, cache, h_seq = run(x, h0, c0)
        dh = np.broadcast_to(proj, h_seq.shape).astype(np.float64)
        _, dx, dh0, dc0 = lstm_backward(p, cache, dh)
        h = 1e-6
        for arr, grad in ((x, dx), (h0, dh0), (c0, dc0)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = run(x, h0, c0)[0]
                flat[i] = orig - h
                lm = run(x, h0, c0)[0]
                flat[i] = orig
                np.testing.assert_allclose(gflat[i], (lp - lm) / (2 * h), atol=1e-6)


class TestEmbedding:
    def test_gather_exact_rows(self):
        rng = np.random.default_rng(2)
        table = EmbeddingTable.create(4, rng)
        levels = np.array([0, 255, 7])
        out = embed(table, levels)
        np.testing.assert_array_equal(out, table.table[[0, 255, 7]])

    def test_repeated_levels_accumulate(self):
        table = EmbeddingTable(np.zeros((256, 3), dtype=np.float64))
        levels = np.array([5, 5, 9])
        dy = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]])
        dtable = embed_backward(table, levels, dy)
        np.testing.assert_array_equal(dtable[5], [3.0, 0, 0])
        np.testing.assert_array_equal(dtable[9], [0, 1.0, 0])

    def test_untouched_rows_zero(self):
        table = EmbeddingTable(np.ones((256, 2)))
        dtable = embed_backward(table, np.array([1, 2]), np.ones((2, 2)))
        untouched = np.delete(np.arange(256), [1, 2])
        assert not dtable[untouched].any()

    def test_out_of_range_level(self):
        table = EmbeddingTable(np.zeros((256, 2)))
        with pytest.raises(ValueError):
            embed(table, np.array([256]))

    def test_wrong_table_size(self):
        with pytest.raises(ValueError):
            EmbeddingTable(np.zeros((255, 4)))


class TestSoftmaxCe:
    def test_uniform_logits(self):
        logits = np.zeros((3, 256))
        loss, _ = softmax_ce(logits, np.array([0, 100, 255]), np.ones(3, bool))
        np.testing.assert_allclose(loss, np.log(256.0), rtol=1e-12)

    def test_masked_position_inert(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 256))
        targets = np.array([1, 2, 3, 4])
        mask = np.array([True, True, False, True])
        loss_a, dl_a = softmax_ce(logits, targets, mask)
        perturbed = logits.copy()
        perturbed[2] += 10.0
        loss_b, dl_b = softmax_ce(perturbed, targets, mask)
        assert loss_a == loss_b  # bit-identical
        np.testing.assert_array_equal(dl_a, dl_b)
        assert not dl_a[2].any()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((4, 256)) * 3
        targets = rng.integers(0, 256, 4)
        mask = np.array([True, False, True, True])
        loss, dlogits = softmax_ce(logits, targets, mask)
        # Independent 64-bit straight-line evaluation.
        expected = 0.0
        for i in range(4):
            if not mask[i]:
                continue
            probs = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expected += -np.log(probs[targets[i]])
        expected /= mask.sum()
        np.testing.assert_allclose(loss, expected, atol=1e-6)
        for i in range(4):
            probs = np.exp(logits[i]) / np.exp(logits[i]).sum()
            want = (probs - np.eye(256)[targets[i]]) / mask.sum() if mask[i] else np.zeros(256)
            np.testing.assert_allclose(dlogits[i], want, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((2, 256))
        targets = np.array([10, 20])
        mask = np.ones(2, bool)
        loss_a, _ = softmax_ce(logits, targets, mask)
        loss_b, _ = softmax_ce(logits + 123.0, targets, mask)
        assert abs(loss_a - loss_b) < 1e-6

    def test_all_masked_flagged(self):
        with pytest.warns(UserWarning):
            loss, dl = softmax_ce(np.zeros((2, 256)), np.array([0, 0]), np.zeros(2, bool))
        assert loss == 0.0 and not dl.any()

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_ce(np.zeros((1, 256)), np.array([256]), np.ones(1, bool))


class TestAdam:
    def test_first_step_size_is_lr(self):
        # |g| >> epsilon: the first bias-corrected step is +-lr.
        for g0 in (1e-4, 0.5, 1234.0):
            params = {"w": np.array([1.0])}
            state = AdamState.create(params, lr=0.001)
            adam_update(state, params, {"w": np.array([g0])})
            delta = abs(params["w"][0] - 1.0)
            np.testing.assert_allclose(delta, 0.001, rtol=1e-3)

    def test_zero_grad_no_change(self):
        params = {"w": np.array([2.0, -3.0])}
        state = AdamState.create(params)
        for _ in range(10):
            adam_update(state, params, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [2.0, -3.0])

    def test_two_steps_match_scalar_recurrence(self):
        # Independent scalar oracle computed straight from the update rule.
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta = 0.7
        m = v = 0.0
        grads = [0.3, -0.2]
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        params = {"w": np.array([0.7])}
        state = AdamState.create(params, lr=lr)
        for g in grads:
            adam_update(state, params, {"w": np.array([g])})
        np.testing.assert_allclose(params["w"][0], theta, atol=1e-10)

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.array([1.0])}
        state = AdamState.create(params)
        with pytest.raises(ValueError, match="w"):
            adam_update(state, params, {"w": np.array([np.nan])})

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(norm, 5.0)
        np.testing.assert_allclose(grads["a"], [0.6])
        np.testing.assert_allclose(grads["b"], [0.8])
        grads2 = {"a": np.array([0.1])}
        clip_global_norm(grads2, 1.0)
        np.testing.assert_array_equal(grads2["a"], [0.1])


class TestGradCheck:
    def test_detects_corrupted_backward(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        p = AffineParams.create(2, 3, rng, dtype=np.float64)

        def corrupted(params):
            pp = AffineParams(params["w"], params["b"])
            y = affine(pp, x)
            loss = float(np.sum(y**2) / 2)
            (dw, db), _ = affine_backward(pp, x, y)
            dw = dw.copy()
            dw[0, 0] *= 1.1  # injected bug
            return loss, {"w": dw, "b": db}

        report = grad_check(corrupted, {"w": p.weight, "b": p.bias}, tolerance=1e-4)
        assert not report.passed
        assert report.worst_param == "w"

    def test_report_fields(self):
        report = GradCheckReport(1e-6, "w", {"w": 1e-6}, 1e-4)
        assert report.passed


class TestLayerPropertySweep:
    """Randomized-shape FD sweep across >= 20 seeds (affine + lstm)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_layers_random_shapes(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_in = int(rng.integers(1, 6))
        n_out = int(rng.integers(1, 6))
        batch = int(rng.integers(1, 4))
        x = rng.standard_normal((batch, n_in))
        p = AffineParams.create(n_out, n_in, rng, dtype=np.float64)
        proj = rng.standard_normal(n_out)

        def affine_loss(params):
            pp = AffineParams(params["w"], params["b"])
            y = affine(pp, x)
            (dw, db), _ = affine_backward(pp, x, np.broadcast_to(proj, y.shape).astype(float))
            return float(np.sum(y * proj)), {"w": dw, "b": db}

        assert grad_check(affine_loss, {"w": p.weight, "b": p.bias}).passed

        hidden = int(rng.integers(2, 6))
        steps = int(rng.integers(1, 5))
        xs = rng.standard_normal((batch, steps, n_in))
        lp = LstmParams.create(hidden, n_in, rng, dtype=np.float64)
        lproj = rng.standard_normal(hidden)

        def lstm_loss(params):
            pp = LstmParams(params["wx"], params["wh"], params["b"])
            h_seq, _, cache = lstm_forward(pp, xs, np.zeros((batch, hidden)), np.zeros((batch, hidden)))
            dh = np.broadcast_to(lproj, h_seq.shape).astype(np.float64)
            (dwx, dwh, db), _, _, _ = lstm_backward(pp, cache, dh)
            return float(np.sum(h_seq * lproj)), {"wx": dwx, "wh": dwh, "b": db}

        lparams = {"wx": lp.input_weights, "wh": lp.recurrent_weights, "b": lp.biases}
        assert grad_check(lstm_loss, lparams).passed
