"""Layer-level tests: exact forwards, finite-difference backward oracles,
Adam against a hand-computed recurrence, and gradient-check plumbing."""

import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.special import expit

from bwex import nn
from bwex.nn import (
    AdamState,
    AffineParams,
    GradCheckReport,
    LstmParams,
    adam_update,
    affine,
    affine_backward,
    clip_global_norm,
    embed,
    embed_backward,
    grad_check,
    lstm_backward,
    lstm_forward,
    masked_ce,
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
        with pytest.raises(ValueError, match="4"):
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
        with pytest.raises(
            ValueError, match=r"^lstm_forward: states \(1, 3\)/\(1, 3\) do not match \(batch, hidden\) = \(1, 2\)$"
        ):
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
        rows = _three_copy_cache(cache)
        gi, gf, gg, go = np.split(rows.gates, 4, axis=-1)
        sign = signs[:hidden]
        for gate in (gi, gf, go):
            np.testing.assert_array_equal(gate, np.broadcast_to(sign > 0, gate.shape))
        np.testing.assert_array_equal(gg, np.broadcast_to(sign, gg.shape))
        assert np.isfinite(h_seq).all() and np.isfinite(rows.c).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_logistic_matches_scipy_expit(self, dtype):
        # Each row of the batch carries one z into all four gate slots
        # (unit input weights, zero recurrence and biases), so the cached
        # gates are the i, f, o logistic and the cell tanh of the grid.
        z = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, 20.0, -20.0, 1e4, -1e4]]).astype(dtype)
        p = LstmParams(np.ones((4, 1), dtype), np.zeros((4, 1), dtype), np.zeros(4, dtype))
        zeros = np.zeros((z.size, 1), dtype)
        _, _, cache = lstm_forward(p, z[:, None, None], zeros, zeros)
        gi, gf, gg, go = _three_copy_cache(cache).gates[:, 0].T
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


def _three_copy_cache(cache):
    """The fields an `LstmCache` held before `cells` was its one buffer:
    x, h0 and h, and c0 [B, H] and c, the gates and tanh(c) [B, T, .],
    read from `cells`."""
    hidden = cache.h.shape[-1]
    c = cache.cells[:, 1:, :hidden]
    return types.SimpleNamespace(
        x=cache.x, h0=cache.h0, h=cache.h, c0=cache.cells[:, 0, :hidden], c=c,
        gates=cache.cells[:, :-1, hidden:], tanh_c=np.tanh(c),
    )


def _gate_major_product(weights, h):
    """W h on a C-ordered [H, B] h, the operand `lstm_forward` passes, as
    [B, 4H] rows."""
    return (weights @ np.ascontiguousarray(h.T)).T


def _reference_lstm_forward(p, x, h0, c0):
    """The textbook per-step loop: gates from the recurrent product W h on
    a C-ordered [H, B] h, the operand `lstm_forward` passes, then the cell."""
    rows = _reference_lstm_rows(p, x, h0, c0)
    return rows["h"], rows["c"]


def _reference_lstm_rows(p, x, h0, c0, product=_gate_major_product):
    """Every row the reference loop forms: h, c, gates and tanh(c).
    `product(W, h)` gives the recurrent term as [B, 4H] rows."""
    hidden = p.hidden
    x_proj = x @ p.input_weights.T + p.biases
    h_seq = np.empty(x.shape[:2] + (hidden,), dtype=x.dtype)
    c_seq = np.empty_like(h_seq)
    tanh_c = np.empty_like(h_seq)
    gates = np.empty(x.shape[:2] + (4 * hidden,), dtype=x.dtype)
    h, c = h0, c0
    for t in range(x.shape[1]):
        z = product(p.recurrent_weights, h)
        z += x_proj[:, t]
        g = logistic(z)
        g[:, 2 * hidden : 3 * hidden] = np.tanh(z[:, 2 * hidden : 3 * hidden])
        gi, gf, gg, go = np.split(g, 4, axis=-1)
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        h_seq[:, t], c_seq[:, t], tanh_c[:, t], gates[:, t] = h, c, np.tanh(c), g
    return {"h": h_seq, "c": c_seq, "gates": gates, "tanh_c": tanh_c}


def _reference_lstm_backward(p, cache, dh_seq):
    """The per-step BPTT formulas, every gate derivative formed in the loop,
    on a `_three_copy_cache`."""
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


def _two_arm_lstm_backward(p, cache, dh_seq):
    """The step loop `lstm_backward` ran with two arms: at a row-blocked
    batch it scaled the gate factors into a gate-major [4H, B] buffer and
    copied them back, at any other it scaled the dz_seq rows in place and
    formed dh_next as `dz @ W`. A step allocated dh, dc and dc_next. It
    reads the three-copy fields c0, c, gates and tanh_c."""
    batch, steps, hidden = cache.h.shape
    gi, gf, gg, go = np.split(cache.gates, 4, axis=-1)
    tc = cache.tanh_c
    dz_seq = np.empty_like(cache.gates)
    dzi, dzf, dzg, dzo = np.split(dz_seq, 4, axis=-1)
    np.subtract(1.0, gi, out=dzi)
    dzi *= gi
    dzi *= gg
    np.subtract(1.0, gf, out=dzf)
    dzf *= gf
    dzf[:, 0] *= cache.c0
    dzf[:, 1:] *= cache.c[:, :-1]
    np.multiply(gg, gg, out=dzg)
    np.subtract(1.0, dzg, out=dzg)
    dzg *= gi
    np.subtract(1.0, go, out=dzo)
    dzo *= go
    dzo *= tc
    dh_to_dc = np.multiply(tc, tc)
    np.subtract(1.0, dh_to_dc, out=dh_to_dc)
    dh_to_dc *= go
    dz_cell = dz_seq.reshape(batch, steps, 4, hidden)[:, :, :3]
    weights = p.recurrent_weights
    dh_next = np.zeros((batch, hidden), dtype=dh_seq.dtype)
    dc_next = np.zeros_like(dh_next)
    slices = nn._row_slices(hidden, batch, 4 * hidden)
    split = len(slices) > 1
    if split:
        weights_t = np.ascontiguousarray(weights.T)
        dz = np.empty((4 * hidden, batch), dtype=dh_seq.dtype)
        dz_gates = dz.reshape(4, hidden, batch)
        dz_cell_rows, dzo_rows = dz_gates[:3].transpose(2, 0, 1), dz_gates[3].T
        dh_cols = np.empty((hidden, batch), dtype=dh_seq.dtype)
        products = [(weights_t[rows], dh_cols[rows]) for rows in slices]
    for t in range(steps - 1, -1, -1):
        dh = dh_seq[:, t] + dh_next
        dc = dh * dh_to_dc[:, t]
        dc += dc_next
        if split:
            np.multiply(dz_cell[:, t], dc[:, None], dz_cell_rows)
            np.multiply(dzo[:, t], dh, dzo_rows)
            dz_seq[:, t] = dz.T
            for weight_rows, dh_rows in products:
                weight_rows.dot(dz, dh_rows)
            dh_next[...] = dh_cols.T
        else:
            dz_cell[:, t] *= dc[:, None]
            dzo[:, t] *= dh
            np.matmul(dz_seq[:, t], weights, dh_next)
        dc_next = dc * gf[:, t]
    dz2 = dz_seq.reshape(-1, 4 * hidden)
    d_input_w = dz2.T @ cache.x.reshape(-1, cache.x.shape[-1])
    h_prev_seq = np.concatenate([cache.h0[:, None], cache.h[:, :-1]], axis=1)
    d_recur_w = dz2.T @ h_prev_seq.reshape(-1, hidden)
    return (d_input_w, d_recur_w, dz2.sum(axis=0)), dz_seq @ p.input_weights, dh_next, dc_next


def _former_lstm_forward(p, x, h0, c0):
    """The step body `lstm_forward` ran before its gate buffer became
    gate-major: gates in a [B, 4H] buffer, the recurrent product as
    `np.dot(W, h.T).T` plus the input projection, the logistic as one
    scaled tanh pass. Returns (h_seq, (h_last, c_last))."""
    batch, steps, _ = x.shape
    hidden = p.hidden
    x_proj = x @ p.input_weights.T + p.biases
    h_steps = np.empty((steps, batch, hidden), dtype=x.dtype)
    g = np.empty((batch, 4 * hidden), dtype=x.dtype)
    gi, gf, gg, go = np.split(g, 4, axis=-1)
    scale = np.full_like(g, 0.5)
    scale[:, 2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    c = np.array(c0, dtype=x.dtype)
    tc = np.empty_like(c)
    h = h0
    for x_t, h_t in zip(x_proj.swapaxes(0, 1), h_steps):
        np.add(np.dot(p.recurrent_weights, h.T).T, x_t, out=g)
        g *= scale
        np.tanh(g, out=g)
        g *= scale
        g += shift
        c *= gf
        c += np.multiply(gi, gg, out=tc)
        np.tanh(c, out=tc)
        h = np.multiply(go, tc, out=h_t)
    h_seq = np.ascontiguousarray(h_steps.swapaxes(0, 1))
    return h_seq, (h_seq[:, -1].copy(), c)


def _per_step_scaled_lstm_forward(p, x, h0, c0, cache=True):
    """The step body `lstm_forward` ran before it pre-scaled its gate
    operands: the logistic's 1/2 applied to the gates in every step, c in
    a buffer of its own, and the cell update as three calls. Returns
    (h_seq, (h_last, c_last), rows), rows holding the gates, c and
    tanh(c) when `cache` is set."""
    batch, steps, _ = x.shape
    hidden = p.hidden
    x_proj = x @ p.input_weights.T
    x_proj += p.biases
    h_steps = np.empty((steps, hidden, batch), dtype=x.dtype)
    g = np.empty((4 * hidden, batch), dtype=x.dtype)
    gi, gf, gg, go = np.split(g, 4)
    scale = np.full_like(g, 0.5)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    c = c0.T.astype(x.dtype, order="C")
    tc = np.empty_like(c)
    if cache:
        gates = np.empty((batch, steps, 4 * hidden), dtype=x.dtype)
        c_seq = np.empty((batch, steps, hidden), dtype=x.dtype)
        tanh_c = np.empty_like(c_seq)
    weights = p.recurrent_weights
    products = [(weights[rows], g[rows]) for rows in nn._row_slices(4 * hidden, batch, hidden)]
    h_t = np.ascontiguousarray(h0.T, dtype=x.dtype)
    for t, (x_t, h_next) in enumerate(zip(x_proj.transpose(1, 2, 0), h_steps)):
        for weight_rows, g_rows in products:
            weight_rows.dot(h_t, g_rows)
        g += x_t
        g *= scale
        np.tanh(g, g)
        g *= scale
        g += shift
        c *= gf
        c += np.multiply(gi, gg, tc)
        np.tanh(c, tc)
        h_t = np.multiply(go, tc, h_next)
        if cache:
            gates[:, t] = g.T
            c_seq[:, t] = c.T
            tanh_c[:, t] = tc.T
    h_seq = np.ascontiguousarray(h_steps.transpose(2, 0, 1))
    rows = {"gates": gates, "c": c_seq, "tanh_c": tanh_c} if cache else None
    return h_seq, (h_seq[:, -1].copy(), c.T), rows


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
        np.testing.assert_array_equal(_three_copy_cache(cache).c, ref_c)
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
        want = _reference_lstm_backward(p, _three_copy_cache(cache), dh_seq)
        got_flat = [*got[0], *got[1:]]
        want_flat = [*want[0], *want[1:]]
        names = ["dWx", "dWh", "db", "dx", "dh0", "dc0"]
        for name, g, w in zip(names, got_flat, want_flat):
            assert g.shape == w.shape and g.dtype == w.dtype, name
            # entries that cancel to near zero keep an absolute error of
            # rounding in the largest entry, not a relative one
            atol = rtol * float(np.abs(w).max())
            np.testing.assert_allclose(g, w, rtol=rtol, atol=atol, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden, batch, steps", [(256, 4, 12), (8, 1, 12), (8, 3, 12), (256, 16, 12), (32, 1, 1)])
    def test_cached_pair_equals_the_three_copy_cache_bit_for_bit(self, hidden, batch, steps, dtype):
        # The reference keeps the gates, c and tanh(c) in three [B, T, .]
        # caches, copied in every step by the per-step scaled body, and
        # runs the two-arm backward on them. h=256, B=4 is row-blocked; the
        # others form `dz @ W`, B=16 above nn.SMALL_GEMM_MAX_COLS, and T=1
        # has no c_{t-1} but c0. Non-dyadic data, so every rounding shows.
        assert (len(nn._row_slices(hidden, batch, 4 * hidden)) > 1) == ((hidden, batch) == (256, 4))
        rng = np.random.default_rng(hidden + batch)
        n_in = 5
        p = LstmParams.create(hidden, n_in, rng, dtype=dtype)
        p.biases[...] = rng.standard_normal(4 * hidden)
        x = rng.standard_normal((batch, steps, n_in)).astype(dtype)
        h0 = rng.standard_normal((batch, hidden)).astype(dtype)
        c0 = rng.standard_normal((batch, hidden)).astype(dtype)
        dh_seq = rng.standard_normal((batch, steps, hidden)).astype(dtype)
        h_seq, (h_last, c_last), cache = lstm_forward(p, x, h0, c0)
        got = lstm_backward(p, cache, dh_seq)
        want_h, (want_h_last, want_c_last), rows = _per_step_scaled_lstm_forward(p, x, h0, c0)
        want = _two_arm_lstm_backward(p, types.SimpleNamespace(x=x, h0=h0, c0=c0, h=want_h, **rows), dh_seq)
        names = ["h_seq", "h_last", "c_last", "dWx", "dWh", "db", "dx", "dh0", "dc0"]
        gots = [h_seq, h_last, c_last, *got[0], *got[1:]]
        wants = [want_h, want_h_last, want_c_last, *want[0], *want[1:]]
        for name, g, w in zip(names, gots, wants, strict=True):
            assert g.dtype == w.dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_backward_leaves_the_cache_unmodified(self):
        rng = np.random.default_rng(3)
        p = LstmParams.create(8, 3, rng, dtype=np.float32)
        x = rng.standard_normal((4, 6, 3)).astype(np.float32)
        zeros = np.zeros((4, 8), np.float32)
        _, _, cache = lstm_forward(p, x, zeros, zeros)
        before = {name: getattr(cache, name).copy() for name in ("x", "h0", "h", "cells")}
        lstm_backward(p, cache, rng.standard_normal((4, 6, 8)).astype(np.float32))
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(cache, name), value, err_msg=name)

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("batch, n_blocks", [(4, 2), (16, 1)])
    def test_row_blocked_sizes_match_the_row_product(self, batch, n_blocks, dtype, rtol):
        # At h=256, B=4 both the forward's [4H, H] and the backward's
        # [H, 4H] recurrent product split into two row blocks; at B=16,
        # above SMALL_GEMM_MAX_COLS, both stay one product.
        rng = np.random.default_rng(256)
        hidden, n_in, steps = 256, 16, 6
        assert len(nn._row_slices(4 * hidden, batch, hidden)) == n_blocks
        assert len(nn._row_slices(hidden, batch, 4 * hidden)) == n_blocks
        p = LstmParams.create(hidden, n_in, rng, dtype=dtype)
        x = rng.standard_normal((batch, steps, n_in)).astype(dtype)
        h0 = rng.standard_normal((batch, hidden)).astype(dtype)
        c0 = rng.standard_normal((batch, hidden)).astype(dtype)
        dh_seq = rng.standard_normal((batch, steps, hidden)).astype(dtype)
        _, _, cache = lstm_forward(p, x, h0, c0)
        ref = _reference_lstm_rows(p, x, h0, c0, product=lambda w, h: h @ w.T)
        rows = _three_copy_cache(cache)
        got = lstm_backward(p, cache, dh_seq)
        want = _reference_lstm_backward(p, rows, dh_seq)
        pairs = [(name, getattr(rows, name), ref[name]) for name in ("h", "c", "gates", "tanh_c")]
        pairs += zip(["dWx", "dWh", "db", "dx", "dh0", "dc0"], [*got[0], *got[1:]], [*want[0], *want[1:]])
        for name, g, w in pairs:
            assert g.shape == w.shape and g.dtype == w.dtype, name
            atol = rtol * float(np.abs(w).max())
            np.testing.assert_allclose(g, w, rtol=rtol, atol=atol, err_msg=name)

    @pytest.mark.parametrize(
        "rows, cols, inner, n_blocks",
        [
            (1024, 1, 256, 1),
            (4096, 1, 1024, 1),
            (1024, 2, 256, 1),
            (1024, 4, 256, 2),
            (256, 4, 1024, 2),
            (1024, 8, 256, 3),
            (4096, 4, 1024, 17),
            (4096, 8, 1024, 34),
            (1024, 8, 4096, 35),
            (1024, 16, 256, 1),
            (4096, 64, 1024, 1),
            (1024, 64, 4096, 1),
        ],
    )
    def test_row_slices_are_the_fewest_within_the_bound(self, rows, cols, inner, n_blocks):
        slices = nn._row_slices(rows, cols, inner)
        assert len(slices) == n_blocks
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) - min(sizes) <= 1
        assert [s.start for s in slices[1:]] == [s.stop for s in slices[:-1]]
        assert slices[0].start == 0 and slices[-1].stop == rows
        if 1 < cols <= nn.SMALL_GEMM_MAX_COLS:
            assert max(sizes) * cols * inner <= nn.SMALL_GEMM_MNK


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
        rows = _three_copy_cache(cached)
        for name in ("gates", "c", "tanh_c"):
            np.testing.assert_array_equal(getattr(rows, name), ref[name], err_msg=name)

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("hidden, n_in", [(32, 32), (8, 3), (1024, 1024)])
    def test_b1_equals_the_former_step_body_on_real_data(self, hidden, n_in, cache):
        # Non-dyadic float32 data as `generate` sees it: every rounding of
        # the former [B, 4H] step body must be repeated, not only exact sums.
        # At h=1024 a split of the matrix-vector product would show.
        rng = np.random.default_rng(hidden + n_in)
        p = LstmParams.create(hidden, n_in, rng)
        p.biases[...] = rng.standard_normal(4 * hidden)
        x = rng.standard_normal((1, 300, n_in)).astype(np.float32)
        h0 = rng.standard_normal((1, hidden)).astype(np.float32)
        c0 = rng.standard_normal((1, hidden)).astype(np.float32)
        want_h, (want_h_last, want_c_last) = _former_lstm_forward(p, x, h0, c0)
        h_seq, (h_last, c_last), _ = lstm_forward(p, x, h0, c0, cache=cache)
        np.testing.assert_array_equal(h_seq, want_h)
        np.testing.assert_array_equal(h_last, want_h_last)
        np.testing.assert_array_equal(c_last, want_c_last)

    @pytest.mark.parametrize("prescaled", [False, True])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [8, 32, 256])
    @pytest.mark.parametrize("batch", [1, 2, 4, 9])
    def test_equals_the_per_step_scaled_body_on_real_data(self, monkeypatch, batch, hidden, dtype, cache, prescaled):
        # Pre-scaled operands must round as the former per-step scaling
        # did, on non-dyadic data, and so must the merged cell update on
        # either path. B=4 at h=256 is row-blocked, and B=9 is above
        # nn.SMALL_GEMM_MAX_COLS.
        monkeypatch.setattr(nn, "PRESCALE_WEIGHTS_PER_STEP", 10**9 if prescaled else 0)
        rng = np.random.default_rng(100 * batch + hidden)
        n_in, steps = 5, 40
        p = LstmParams.create(hidden, n_in, rng, dtype=dtype)
        p.biases[...] = rng.standard_normal(4 * hidden)
        x = rng.standard_normal((batch, steps, n_in)).astype(dtype)
        h0 = rng.standard_normal((batch, hidden)).astype(dtype)
        c0 = rng.standard_normal((batch, hidden)).astype(dtype)
        want_h, (want_h_last, want_c_last), want_rows = _per_step_scaled_lstm_forward(p, x, h0, c0, cache)
        h_seq, (h_last, c_last), got = lstm_forward(p, x, h0, c0, cache=cache)
        np.testing.assert_array_equal(h_seq, want_h)
        np.testing.assert_array_equal(h_last, want_h_last)
        np.testing.assert_array_equal(c_last, want_c_last)
        assert (got is None) == (not cache)
        for name, want in (want_rows or {}).items():
            np.testing.assert_array_equal(getattr(_three_copy_cache(got), name), want, err_msg=name)

    def test_states_in_another_dtype_are_cast(self):
        rng = np.random.default_rng(6)
        p = LstmParams.create(8, 3, rng)
        x = rng.standard_normal((2, 5, 3)).astype(np.float32)
        h0, c0 = rng.standard_normal((2, 2, 8))
        h_seq, (h_last, c_last), _ = lstm_forward(p, x, h0, c0, cache=False)
        want, (want_h, want_c), _ = lstm_forward(p, x, h0.astype(np.float32), c0.astype(np.float32), cache=False)
        assert h_seq.dtype == c_last.dtype == np.float32
        np.testing.assert_array_equal(h_seq, want)
        np.testing.assert_array_equal(c_last, want_c)

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
        table = rng.standard_normal((256, 4)).astype(np.float32)
        levels = np.array([0, 255, 7])
        out = embed(table, levels)
        np.testing.assert_array_equal(out, table[[0, 255, 7]])

    def test_repeated_levels_accumulate(self):
        table = np.zeros((256, 3), dtype=np.float64)
        levels = np.array([5, 5, 9])
        dy = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]])
        dtable = embed_backward(table, levels, dy)
        np.testing.assert_array_equal(dtable[5], [3.0, 0, 0])
        np.testing.assert_array_equal(dtable[9], [0, 1.0, 0])

    def test_untouched_rows_zero(self):
        table = np.ones((256, 2))
        dtable = embed_backward(table, np.array([1, 2]), np.ones((2, 2)))
        untouched = np.delete(np.arange(256), [1, 2])
        assert not dtable[untouched].any()

    def test_out_of_range_level(self):
        table = np.zeros((256, 2))
        with pytest.raises(ValueError, match=r"^levels out of range \[0, 255\]$"):
            embed(table, np.array([256]))

    @pytest.mark.parametrize("rows", [1, 5, 300])
    def test_any_row_count_is_its_own_alphabet(self, rows):
        # The table's row count is the alphabet: the gather and the
        # scatter-add are exact, and a level past the last row is refused
        # with the table's own bound.
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 3))
        levels = rng.integers(0, rows, (2, 7))
        np.testing.assert_array_equal(embed(table, levels), np.stack([[table[v] for v in row] for row in levels]))
        dy = rng.integers(-8, 9, (2, 7, 3)).astype(np.float64)  # integer sums are exact in any order
        want = np.zeros_like(table)
        for v, d in zip(levels.reshape(-1), dy.reshape(-1, 3)):
            want[v] += d
        np.testing.assert_array_equal(embed_backward(table, levels, dy), want)
        for bad in (rows, -1):
            with pytest.raises(ValueError, match=rf"^levels out of range \[0, {rows - 1}\]$"):
                embed(table, np.array([0, bad]))


def _former_softmax_ce(logits, targets, mask):
    """The body `softmax_ce` ran with four [N, V] temporaries."""
    n_valid = int(mask.sum())
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_prob = shifted - np.log(denom)
    rows = np.arange(len(targets))
    losses = -log_prob[rows, targets] * mask
    loss = float(losses.sum() / n_valid)
    dlogits = exp / denom
    dlogits[rows, targets] -= 1.0
    dlogits *= (mask / n_valid)[:, None].astype(logits.dtype)
    return loss, dlogits


class TestSoftmaxCe:
    def test_equals_the_former_body_bit_for_bit(self):
        rng = np.random.default_rng(7)
        logits = (rng.standard_normal((512, 256)) * 4).astype(np.float32)
        targets = rng.integers(0, 256, 512)
        mask = rng.random(512) < 0.8
        loss, dlogits = softmax_ce(logits, targets, mask)
        want_loss, want_dlogits = _former_softmax_ce(logits, targets, mask)
        assert loss == want_loss
        assert dlogits.dtype == want_dlogits.dtype == np.float32
        np.testing.assert_array_equal(dlogits, want_dlogits)
        with pytest.warns(UserWarning):
            loss, dlogits = softmax_ce(logits, targets, np.zeros(512, bool))
        assert loss == 0.0 and dlogits.dtype == np.float32 and not dlogits.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_ce_gives_the_loss_of_the_former_body(self, dtype):
        rng = np.random.default_rng(8)
        logits = (rng.standard_normal((300, 256)) * 4).astype(dtype)
        targets = rng.integers(0, 256, 300)
        mask = rng.random(300) < 0.8
        loss, exp, denom = masked_ce(logits, targets, mask)
        assert loss == _former_softmax_ce(logits, targets, mask)[0]
        np.testing.assert_array_equal(exp, np.exp(logits - logits.max(axis=-1, keepdims=True)))
        np.testing.assert_array_equal(denom, exp.sum(axis=-1, keepdims=True))
        with pytest.warns(UserWarning):
            assert masked_ce(logits, targets, np.zeros(300, bool)) == (0.0, None, None)

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

    @staticmethod
    def former_update(state, params, grads):
        """Reference: the update as one expression per moment, with fresh temporaries."""
        state.step += 1
        t = state.step
        for name, theta in params.items():
            g = grads[name]
            m = state.m[name]
            v = state.v[name]
            m *= nn.ADAM_BETA1
            m += (1.0 - nn.ADAM_BETA1) * g
            v *= nn.ADAM_BETA2
            v += (1.0 - nn.ADAM_BETA2) * np.square(g)
            m_hat = m / (1.0 - nn.ADAM_BETA1**t)
            v_hat = v / (1.0 - nn.ADAM_BETA2**t)
            theta -= state.lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_former_update_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        shapes = {"b": (7,), "w": (5, 3), "fanout": (2, 3, 4)}
        params = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
        ref_params = {name: value.copy() for name, value in params.items()}
        state, ref_state = AdamState.create(params, lr=0.003), AdamState.create(ref_params, lr=0.003)
        for _ in range(3):
            grads = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
            adam_update(state, params, grads)
            self.former_update(ref_state, ref_params, grads)
            for name in shapes:
                for got, want in ((params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)):
                    assert got[name].dtype == dtype
                    assert got[name].tobytes() == want[name].tobytes(), name

    def test_peak_memory_below_three_of_the_largest_tensor(self):
        rng = np.random.default_rng(0)
        params = {
            "w": rng.standard_normal((512, 256)).astype(np.float32),
            "b": rng.standard_normal(512).astype(np.float32),
            "u": rng.standard_normal((64, 64)).astype(np.float32),
        }
        grads = {name: rng.standard_normal(value.shape).astype(np.float32) for name, value in params.items()}
        state = AdamState.create(params)
        adam_update(state, params, grads)
        tracemalloc.start()
        try:
            adam_update(state, params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * params["w"].nbytes

    def test_error_messages(self):
        params = {"w": np.ones((2, 3)), "b": np.ones(3)}
        state = AdamState.create(params)
        with pytest.raises(ValueError, match=r"^adam_update: grad shape \(3, 2\) != param shape \(2, 3\) for 'w'$"):
            adam_update(state, params, {"w": np.ones((3, 2)), "b": np.ones(3)})
        with pytest.raises(ValueError, match=r"^adam_update: non-finite gradient for 'b'$"):
            adam_update(state, params, {"w": np.ones((2, 3)), "b": np.array([1.0, np.inf, 0.0])})

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(norm, 5.0)
        np.testing.assert_allclose(grads["a"], [0.6])
        np.testing.assert_allclose(grads["b"], [0.8])
        grads2 = {"a": np.array([0.1])}
        clip_global_norm(grads2, 1.0)
        np.testing.assert_array_equal(grads2["a"], [0.1])

    def test_clip_global_norm_leaves_a_non_finite_norm_alone(self):
        grads = {"a": np.array([1.0, 2.0], np.float32), "b": np.array([np.inf, 3.0], np.float32)}
        before = {name: g.copy() for name, g in grads.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_global_norm(grads, 5.0)
        assert norm == np.inf
        for name, g in grads.items():
            assert g.tobytes() == before[name].tobytes()


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
