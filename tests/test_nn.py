"""Layer-level tests: exact forwards, finite-difference backward oracles,
Adam against a hand-computed recurrence, and gradient-check plumbing."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

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


def logistic(z):
    """The logistic function as `lstm_forward` forms it: 1/2 + tanh(z/2)/2."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def lstm_step(p: LstmParams, h_prev, c_prev, x):
    """Reference oracle: one step of the textbook cell for x [B, n_in],
    written out gate by gate. Returns (h, c).

    The recurrent product takes the weight as the left operand, as
    `lstm_forward` does, so that on exact input projections the two agree
    bit for bit.
    """
    hidden = p.hidden
    z = (p.recurrent_weights @ h_prev.T).T + (x @ p.input_weights.T + p.biases)
    gi = logistic(z[:, :hidden])
    gf = logistic(z[:, hidden : 2 * hidden])
    gg = np.tanh(z[:, 2 * hidden : 3 * hidden])
    go = logistic(z[:, 3 * hidden :])
    c = gf * c_prev + gi * gg
    return go * np.tanh(c), c


class TestLstm:
    def test_zero_everything(self):
        p = LstmParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        _, (h, c), _ = lstm_forward(p, np.zeros((1, 1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        assert not h.any() and not c.any()

    def test_saturated_forget_gate_preserves_cell(self):
        hidden = 3
        biases = np.zeros(4 * hidden)
        biases[hidden : 2 * hidden] = 20.0  # forget gate ~ 1
        p = LstmParams(np.zeros((4 * hidden, 2)), np.zeros((4 * hidden, hidden)), biases)
        c_prev = np.array([[0.3, -0.8, 1.4]])
        _, (_, c), _ = lstm_forward(p, np.zeros((1, 1, 2)), np.zeros((1, hidden)), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-8)

    def test_state_shape_mismatch(self):
        p = LstmParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(ShapeError):
            lstm_forward(p, np.zeros((1, 1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_logistic_matches_scipy_expit(self, dtype):
        # Each row of the batch carries one z into all four gate slots
        # (unit input weights, zero recurrence and biases), so the cached
        # gates are the i, f, o logistic and the cell tanh of the grid.
        z = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, 20.0, -20.0, 1e4, -1e4]]).astype(dtype)
        p = LstmParams(np.ones((4, 1), dtype), np.zeros((4, 1), dtype), np.zeros(4, dtype))
        zeros = np.zeros((z.size, 1), dtype)
        _, _, cache = lstm_forward(p, z[:, None, None], zeros, zeros)
        gi, gf, gg, go = cache.gates[:, 0].T
        want = expit(z)
        # 1/2 + tanh(z/2)/2 is within one machine epsilon of expit: at most
        # 2 ulp on z >= 0, where the gate is in [1/2, 1]. For z < 0 the sum
        # cancels, so only the absolute bound holds there.
        np.testing.assert_array_equal(gf, gi)
        np.testing.assert_array_equal(go, gi)
        np.testing.assert_allclose(gi, want, rtol=0, atol=np.finfo(dtype).eps)
        upper = z >= 0
        assert np.all(np.abs(gi - want)[upper] <= 2 * np.spacing(want[upper]))
        np.testing.assert_array_equal(gg, np.tanh(z))
        np.testing.assert_array_equal(gi[[-5, -2, -1]], np.array([0.5, 1.0, 0.0], dtype))

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


def _reference_lstm_forward(p, x, h0, c0):
    """The per-step loop lstm_forward ran before its recurrent product took
    the weight as the left operand: gates from h @ W.T, then the cell."""
    rows = _reference_lstm_rows(p, x, h0, c0)
    return rows["h"], rows["c"]


def _reference_lstm_rows(p, x, h0, c0):
    """Every row the reference loop forms: h, c, gates and tanh(c)."""
    hidden = p.hidden
    x_proj = x @ p.input_weights.T + p.biases
    h_seq = np.empty(x.shape[:2] + (hidden,), dtype=x.dtype)
    c_seq = np.empty_like(h_seq)
    tanh_c = np.empty_like(h_seq)
    gates = np.empty(x.shape[:2] + (4 * hidden,), dtype=x.dtype)
    h, c = h0, c0
    for t in range(x.shape[1]):
        z = h @ p.recurrent_weights.T
        z += x_proj[:, t]
        g = logistic(z)
        g[:, 2 * hidden : 3 * hidden] = np.tanh(z[:, 2 * hidden : 3 * hidden])
        gi, gf, gg, go = np.split(g, 4, axis=-1)
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        h_seq[:, t], c_seq[:, t], tanh_c[:, t], gates[:, t] = h, c, np.tanh(c), g
    return {"h": h_seq, "c": c_seq, "gates": gates, "tanh_c": tanh_c}


def _reference_lstm_backward(p, cache, dh_seq):
    """The per-step BPTT formulas, every gate derivative formed in the loop."""
    batch, steps, hidden = cache.h.shape
    dz_seq = np.empty_like(cache.gates)
    dh_next = np.zeros((batch, hidden), dtype=dh_seq.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(steps - 1, -1, -1):
        gi, gf, gg, go = np.split(cache.gates[:, t], 4, axis=-1)
        tc = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else cache.c0
        dh = dh_seq[:, t] + dh_next
        dc = dh * go * (1.0 - tc * tc) + dc_next
        dz_seq[:, t] = np.concatenate(
            [
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                dh * tc * go * (1.0 - go),
            ],
            axis=-1,
        )
        dh_next = dz_seq[:, t] @ p.recurrent_weights
        dc_next = dc * gf
    dz2 = dz_seq.reshape(-1, 4 * hidden)
    h_prev_seq = np.concatenate([cache.h0[:, None], cache.h[:, :-1]], axis=1)
    d_input_w = dz2.T @ cache.x.reshape(-1, cache.x.shape[-1])
    d_recur_w = dz2.T @ h_prev_seq.reshape(-1, hidden)
    return (d_input_w, d_recur_w, dz2.sum(axis=0)), dz_seq @ p.input_weights, dh_next, dc_next


def _dyadic(rng, shape, dtype, denom=8):
    return (rng.integers(-denom, denom + 1, shape) / denom).astype(dtype)


class TestLstmKernels:
    """The step loops against the former per-step formulas."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 8])
    def test_forward_equals_former_loop_bit_for_bit(self, batch, dtype):
        rng = np.random.default_rng(batch)
        hidden, n_in, steps = 16, 5, 12
        p = LstmParams(
            _dyadic(rng, (4 * hidden, n_in), dtype),
            _dyadic(rng, (4 * hidden, hidden), dtype, denom=16),
            _dyadic(rng, 4 * hidden, dtype),
        )
        x = _dyadic(rng, (batch, steps, n_in), dtype, denom=4)
        h0 = _dyadic(rng, (batch, hidden), dtype)
        c0 = _dyadic(rng, (batch, hidden), dtype)
        h_seq, (h_last, c_last), cache = lstm_forward(p, x, h0, c0)
        ref_h, ref_c = _reference_lstm_forward(p, x, h0, c0)
        np.testing.assert_array_equal(h_seq, ref_h)
        np.testing.assert_array_equal(cache.c, ref_c)
        np.testing.assert_array_equal(h_last, ref_h[:, -1])
        np.testing.assert_array_equal(c_last, ref_c[:, -1])

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("hidden", [1, 8])
    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_backward_matches_former_formulas(self, batch, hidden, dtype, rtol):
        rng = np.random.default_rng(10 * batch + hidden)
        n_in, steps = 3, 7
        p = LstmParams.create(hidden, n_in, rng, dtype=dtype)
        x = rng.standard_normal((batch, steps, n_in)).astype(dtype)
        h0 = rng.standard_normal((batch, hidden)).astype(dtype)
        c0 = rng.standard_normal((batch, hidden)).astype(dtype)
        dh_seq = rng.standard_normal((batch, steps, hidden)).astype(dtype)
        _, _, cache = lstm_forward(p, x, h0, c0)
        got = lstm_backward(p, cache, dh_seq)
        want = _reference_lstm_backward(p, cache, dh_seq)
        got_flat = [*got[0], *got[1:]]
        want_flat = [*want[0], *want[1:]]
        names = ["dWx", "dWh", "db", "dx", "dh0", "dc0"]
        for name, g, w in zip(names, got_flat, want_flat):
            assert g.shape == w.shape and g.dtype == w.dtype, name
            # entries that cancel to near zero keep an absolute error of
            # rounding in the largest entry, not a relative one
            atol = rtol * float(np.abs(w).max())
            np.testing.assert_allclose(g, w, rtol=rtol, atol=atol, err_msg=name)

    def test_backward_leaves_the_cache_unmodified(self):
        rng = np.random.default_rng(3)
        p = LstmParams.create(8, 3, rng, dtype=np.float32)
        x = rng.standard_normal((4, 6, 3)).astype(np.float32)
        zeros = np.zeros((4, 8), np.float32)
        _, _, cache = lstm_forward(p, x, zeros, zeros)
        before = {name: getattr(cache, name).copy() for name in ("gates", "c", "tanh_c")}
        lstm_backward(p, cache, rng.standard_normal((4, 6, 8)).astype(np.float32))
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(cache, name), value, err_msg=name)


class TestLstmInference:
    """`cache=False` runs the same step body and keeps no [B, T, .] cache."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_uncached_equals_cached_and_reference(self, batch, dtype):
        rng = np.random.default_rng(20 + batch)
        hidden, n_in, steps = 16, 5, 12
        p = LstmParams(
            _dyadic(rng, (4 * hidden, n_in), dtype),
            _dyadic(rng, (4 * hidden, hidden), dtype, denom=16),
            _dyadic(rng, 4 * hidden, dtype),
        )
        x = _dyadic(rng, (batch, steps, n_in), dtype, denom=4)
        h0 = _dyadic(rng, (batch, hidden), dtype)
        c0 = _dyadic(rng, (batch, hidden), dtype)
        ref = _reference_lstm_rows(p, x, h0, c0)
        h_seq, (h_last, c_last), cache = lstm_forward(p, x, h0, c0, cache=False)
        assert cache is None
        cached_h, (cached_h_last, cached_c_last), cached = lstm_forward(p, x, h0, c0)
        for got in (h_seq, cached_h):
            np.testing.assert_array_equal(got, ref["h"])
        for got_h, got_c in ((h_last, c_last), (cached_h_last, cached_c_last)):
            np.testing.assert_array_equal(got_h, ref["h"][:, -1])
            np.testing.assert_array_equal(got_c, ref["c"][:, -1])
        for name in ("gates", "c", "tanh_c"):
            np.testing.assert_array_equal(getattr(cached, name), ref[name], err_msg=name)

    def test_uncached_leaves_the_initial_state_unmodified(self):
        rng = np.random.default_rng(5)
        p = LstmParams.create(8, 3, rng, dtype=np.float32)
        x = rng.standard_normal((2, 6, 3)).astype(np.float32)
        h0 = rng.standard_normal((2, 8)).astype(np.float32)
        c0 = rng.standard_normal((2, 8)).astype(np.float32)
        before = h0.copy(), c0.copy()
        lstm_forward(p, x, h0, c0, cache=False)
        np.testing.assert_array_equal(h0, before[0])
        np.testing.assert_array_equal(c0, before[1])


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
