"""Minimal numpy neural toolkit: affine and LSTM layers, an embedding
table, masked softmax cross-entropy, Adam, and finite-difference gradient
checking.

Parameters live in plain numpy arrays grouped by small dataclasses; every
layer has an exact analytic backward. Training runs in float32; gradient
checks run the same code in float64.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings

import numpy as np


class ShapeError(ValueError):
    """Raised when an input shape does not match a layer's parameters."""


def _check_last_dim(name: str, x: np.ndarray, expected: int):
    if x.shape[-1] != expected:
        raise ShapeError(f"{name}: input has trailing dim {x.shape[-1]}, parameters expect {expected}")


def init_uniform(shape, fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    """uniform(-s, s) with s = 1/sqrt(fan_in)."""
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Affine layer
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class AffineParams:
    weight: np.ndarray  # [n_out, n_in]
    bias: np.ndarray    # [n_out]

    @classmethod
    def create(cls, n_out: int, n_in: int, rng: np.random.Generator, dtype=np.float32):
        return cls(init_uniform((n_out, n_in), n_in, rng, dtype), np.zeros(n_out, dtype=dtype))


def affine(p: AffineParams, x: np.ndarray) -> np.ndarray:
    """y = x W^T + b over the trailing axis."""
    _check_last_dim("affine", x, p.weight.shape[1])
    y = x @ p.weight.T
    y += p.bias  # in place: the same sum, one output-sized array fewer
    return y


def affine_backward(p: AffineParams, x: np.ndarray, dy: np.ndarray):
    """Returns ((dweight, dbias), dx)."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dweight = dy2.T @ x2
    dbias = dy2.sum(axis=0)
    dx = dy @ p.weight
    return (dweight, dbias), dx


# ---------------------------------------------------------------------------
# LSTM layer
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class LstmParams:
    """Standard forget-gate LSTM; gate order in the packed axis is
    (input, forget, cell, output). No peepholes, no layer norm."""

    input_weights: np.ndarray      # [4H, n_in]
    recurrent_weights: np.ndarray  # [4H, H]
    biases: np.ndarray             # [4H]

    @classmethod
    def create(cls, hidden: int, n_in: int, rng: np.random.Generator, dtype=np.float32):
        return cls(
            init_uniform((4 * hidden, n_in), n_in, rng, dtype),
            init_uniform((4 * hidden, hidden), hidden, rng, dtype),
            lstm_biases(hidden, dtype),
        )

    @property
    def hidden(self) -> int:
        return self.recurrent_weights.shape[1]


def lstm_biases(hidden: int, dtype=np.float32) -> np.ndarray:
    """Initial packed biases: zero except the forget gate's, which is 1
    for training stability."""
    biases = np.zeros(4 * hidden, dtype=dtype)
    biases[hidden : 2 * hidden] = 1.0
    return biases


def _split_gates(z, hidden):
    return z[..., :hidden], z[..., hidden : 2 * hidden], z[..., 2 * hidden : 3 * hidden], z[..., 3 * hidden :]


# OpenBLAS 0.3.31 (DYNAMIC_ARCH build, SkylakeX kernels) runs a GEMM of
# at most 10^6 multiply-adds (M·N·K) on its small-matrix kernel, which
# reads C-ordered operands in place. A larger GEMM, or one whose right
# operand is a transposed view of [B, H] rows, goes through the packed
# path, and at a few columns the packing costs more than the product.
# The recurrent product [4H, H] x [H, B], BLAS on 1 thread, 2-vCPU
# AVX-512 Xeon guest:
#
#   h     B   [B, H] rows, transposed   C-ordered [H, B]   C-ordered, row blocks
#   256   2   97 µs                     18 µs              -
#   256   4   98 µs                     104 µs             37 µs (2 blocks)
#   1024  4   2.65 ms                   2.68 ms            1.03 ms (17 blocks)
#   1024  64  9.2 ms                    8.8 ms             10.1 ms (274 blocks)
#
# At B = 1 every form is the same matrix-vector call (0.82 ms at h=1024).
# Row blocks won in both passes at B = 2 to 8. From B = 16 the result
# was mixed (within noise at h=256, a loss in the forward at h=1024 at
# B = 24 and 48), and at B = 64, where one packed GEMM is efficient, they
# lost; so only B <= SMALL_GEMM_MAX_COLS splits.
# These figures hold for this core type and BLAS build only. With the
# same library on its Haswell kernels (OPENBLAS_CORETYPE=Haswell), which
# have no small-matrix kernel, the forward's row blocks at B = 4 and 8
# were within 1% of the former product at h=256 and 10-21% faster at
# h=1024, but the backward's were 3-55% slower than `dz @ W` (two runs).
# Other CPUs and BLAS libraries are unmeasured.
SMALL_GEMM_MNK = 10**6
SMALL_GEMM_MAX_COLS = 8

# `lstm_forward` pre-scales its gate operands when the call has at least
# one step per PRESCALE_WEIGHTS_PER_STEP recurrent weights: 17 steps at
# h=32, 1049 at h=256 and 16778 at h=1024. Pre-scaling makes each step one
# call shorter, which saves a call's fixed cost whatever the batch, since
# the scaling's element work only moves from the steps to the input
# projection; it costs a copy of the [4H, H] weights per call. Uncached,
# alternating calls in one process on the host above, B=1: at h=32 it was
# 3% slower at T=8 and 2%, 7% and 9% faster at T=16, 128 and 512; at h=256
# it was 10% slower at T=128 and 4% slower at T=512.
PRESCALE_WEIGHTS_PER_STEP = 250


def _row_slices(rows: int, cols: int, inner: int) -> list:
    """Slices that split the rows of a product [rows, inner] x [inner, cols]
    into the fewest near-equal blocks of at most SMALL_GEMM_MNK
    multiply-adds each. At cols = 1 the product is one matrix-vector call,
    and above SMALL_GEMM_MAX_COLS one packed GEMM; both stay whole."""
    if cols == 1 or cols > SMALL_GEMM_MAX_COLS:
        return [slice(0, rows)]
    max_rows = max(1, SMALL_GEMM_MNK // (cols * inner))
    n_blocks = -(-rows // max_rows)
    edges = [i * rows // n_blocks for i in range(n_blocks + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


@dataclasses.dataclass
class LstmCache:
    x: np.ndarray        # [B, T, n_in]
    h0: np.ndarray       # [B, H]
    h: np.ndarray        # [B, T, H]
    # [B, T + 1, 5H]: row t is the forward's [c, i, f, g, o] buffer before
    # step t's cell update, so c_{t-1} and the post-activation gates. Row T
    # holds c_T; its gate slots are never read.
    cells: np.ndarray


def lstm_forward(p: LstmParams, x: np.ndarray, h0: np.ndarray, c0: np.ndarray, cache: bool = True):
    """Run the cell over the time axis of x [B, T, n_in].

    Returns (h_seq [B, T, H], (h_last, c_last), cache). A step allocates
    no buffer: it works in one reused gate-major buffer [5H, B] whose
    contiguous [H, B] blocks hold c and the i, f, g and o gates, in that
    order, and in an [H, B] buffer for tanh(c), and writes h into its
    C-ordered [H, B] slot of a step-major [T, H, B] buffer, the right
    operand of the next step's recurrent product. With its gate operands
    pre-scaled (below) a step is nine numpy calls: the recurrent product
    (one per row block), the input add, one tanh over the gates, their
    scale and shift, one product that forms c f and i g side by side,
    their sum, tanh(c) and the h product. Only with `cache` does it copy
    that buffer, c_{t-1} and the gates, into its row of `LstmCache.cells`
    for `lstm_backward`. Without it the cache is None.
    """
    _check_last_dim("lstm_forward", x, p.input_weights.shape[1])
    batch, steps, _ = x.shape
    hidden = p.hidden
    if h0.shape != (batch, hidden) or c0.shape != (batch, hidden):
        raise ShapeError(f"lstm_forward: states {h0.shape}/{c0.shape} do not match (batch, hidden) = {(batch, hidden)}")
    # The logistic is 1/2 + tanh(z/2)/2, so one tanh pass serves all four
    # packed gates once the i, f and o pre-activations are halved; after
    # the tanh a step scales the gates by the same factors (1/2 on the i, f
    # and o rows, 1 on the cell rows) and shifts them by 1 - factor. A call
    # long enough to pay for it (see PRESCALE_WEIGHTS_PER_STEP) halves the
    # operands once: the input projection, after its bias, and a copy of
    # the recurrent weights. Otherwise each step scales its pre-activation.
    # Every factor is a power of two, so each product and sum of scaled
    # operands is exactly the scaled product or sum, and both ways give the
    # same bits, unless one of those values, or a pre-activation, is
    # subnormal, where halving can drop a bit. The step's scale and shift
    # have the shape of the gates: at h=32, B=1 a same-shape operand
    # multiplies in about 60% of the time of a broadcast one.
    row_scale = np.full(4 * hidden, 0.5, dtype=x.dtype)
    row_scale[2 * hidden : 3 * hidden] = 1.0
    scale = np.repeat(row_scale[:, None], batch, axis=1)
    shift = 1.0 - scale
    x_proj = x @ p.input_weights.T  # hoisted: one big matmul
    x_proj += p.biases
    weights = p.recurrent_weights
    prescaled = steps * PRESCALE_WEIGHTS_PER_STEP >= weights.size
    if prescaled:
        x_proj *= row_scale
        weights = weights * row_scale[:, None]
    h_steps = np.empty((steps, hidden, batch), dtype=x.dtype)
    cell = np.empty((5 * hidden, batch), dtype=x.dtype)
    c, g, go = cell[:hidden], cell[hidden : 5 * hidden], cell[4 * hidden :]
    # One product forms c f in the c slot and i g in the i slot; their sum
    # is the new c.
    c_i, f_g, i_g = cell[: 2 * hidden], cell[2 * hidden : 4 * hidden], cell[hidden : 2 * hidden]
    c[...] = c0.T
    tc = np.empty_like(c)
    # Weight on the left and a C-ordered [H, B] hidden operand, split into
    # row blocks under SMALL_GEMM_MNK at B > 1; `dot` writes each block
    # straight into its rows of g, without the np.dot dispatcher or a
    # result array. A product of one block is one bound `dot` call.
    slices = _row_slices(4 * hidden, batch, hidden)
    if len(slices) == 1:
        recurrent = weights.dot
    else:
        blocks = [(weights[rows].dot, g[rows]) for rows in slices]

        def recurrent(h, out):  # out is g, whose row blocks `blocks` holds
            for dot, g_rows in blocks:
                dot(h, g_rows)
    # At h=32, B=1 a step is a few µs of small-array calls, so the loop
    # binds the ufuncs locally and passes `out` by position: each saves
    # about 0.1 µs a call against a module lookup, an in-place operator or
    # the `out=` keyword.
    add, tanh, multiply = np.add, np.tanh, np.multiply
    h_t = np.ascontiguousarray(h0.T, dtype=x.dtype)  # the product must come out in g's dtype
    # Per step, x_t is a [4H, B] view of x_proj, h_next the [H, B] slot of
    # the next hidden state and row the step's [5H, B] view of the cache.
    if cache:
        cells = np.empty((batch, steps + 1, 5 * hidden), dtype=x.dtype)
        rows = cells.transpose(1, 2, 0)
    else:
        rows = itertools.repeat(None, steps)
    for x_t, h_next, row in zip(x_proj.transpose(1, 2, 0), h_steps, rows):
        recurrent(h_t, g)
        add(g, x_t, g)
        if not prescaled:
            multiply(g, scale, g)
        tanh(g, g)  # saturates without overflow
        multiply(g, scale, g)
        add(g, shift, g)
        if cache:
            row[...] = cell  # before the product overwrites c and i
        multiply(c_i, f_g, c_i)
        add(c, i_g, c)
        tanh(c, tc)
        h_t = multiply(go, tc, h_next)
    h_seq = np.ascontiguousarray(h_steps.transpose(2, 0, 1))  # no copy at B = 1
    if cache:
        cells[:, steps, :hidden] = c.T
    lstm_cache = LstmCache(x, h0, h_seq, cells) if cache else None
    return h_seq, (h_seq[:, -1].copy(), c.T), lstm_cache


def lstm_backward(p: LstmParams, cache: LstmCache, dh_seq: np.ndarray):
    """Full BPTT through a cached forward pass.

    dh_seq holds the loss gradient w.r.t. every emitted hidden state.
    Returns (dparams: LstmParams-shaped tuple, dx, dh0, dc0).
    """
    batch, steps, hidden = cache.h.shape
    # Every gate derivative is (dc or dh) times a factor of the cached
    # forward alone, so the factors, and tanh(c_t) once more, are computed
    # for the whole sequence before the loop: dz_seq holds them, the loop
    # scales them.
    gi, gf, gg, go = _split_gates(cache.cells[:, :-1, hidden:], hidden)
    tc = np.tanh(cache.cells[:, 1:, :hidden])
    dz_seq = np.empty((batch, steps, 4 * hidden), dtype=tc.dtype)
    dzi, dzf, dzg, dzo = _split_gates(dz_seq, hidden)
    np.subtract(1.0, gi, out=dzi)  # gg gi (1 - gi)
    dzi *= gi
    dzi *= gg
    np.subtract(1.0, gf, out=dzf)  # c_prev gf (1 - gf)
    dzf *= gf
    dzf *= cache.cells[:, :-1, :hidden]
    np.multiply(gg, gg, out=dzg)  # gi (1 - gg^2)
    np.subtract(1.0, dzg, out=dzg)
    dzg *= gi
    np.subtract(1.0, go, out=dzo)  # tc go (1 - go)
    dzo *= go
    dzo *= tc
    dh_to_dc = np.multiply(tc, tc)  # go (1 - tc^2)
    np.subtract(1.0, dh_to_dc, out=dh_to_dc)
    dh_to_dc *= go
    dz_cell = dz_seq.reshape(batch, steps, 4, hidden)[:, :, :3]  # the i, f, g slots
    weights = p.recurrent_weights
    dh_next = np.zeros((batch, hidden), dtype=dh_seq.dtype)
    dc_next, dh, dc = np.zeros_like(dh_next), np.empty_like(dh_next), np.empty_like(dh_next)
    # One step body for every batch, allocating nothing: it scales the
    # factors into the gate-major [4H, B] buffer dz through [B, .] views of
    # it and copies dz back into dz_seq for the weight gradients. dh_next =
    # W^T dz: split into row blocks (see SMALL_GEMM_MNK) it reads dz and a
    # copy of W^T made once per call (0.3-0.4 ms at h=256, 46-55 ms at
    # h=1024); unsplit (B = 1 and B > SMALL_GEMM_MAX_COLS) it stays `dz @ W`
    # on the stored weights, whose bits the chrnn checkpoints in
    # tests/test_condition_track.py pin. Against two bodies, the unsplit one
    # scaling dz_seq in place (alternating in one process, BLAS on 1 thread),
    # an h=32, B=1 step took 0.76-0.82 of the time (7.6 against 10.1 µs at
    # T=120); at h=256, B = 1 to 4, and h=1024, B=1 neither won consistently.
    dz = np.empty((4 * hidden, batch), dtype=dh_seq.dtype)
    dz_gates = dz.reshape(4, hidden, batch)
    dz_cell_rows, dzo_rows, dz_rows = dz_gates[:3].transpose(2, 0, 1), dz_gates[3].T, dz.T
    dc_cols = dc[:, None]
    slices = _row_slices(hidden, batch, 4 * hidden)
    split = len(slices) > 1
    if split:
        weights_t = np.ascontiguousarray(weights.T)
        dh_cols = np.empty((hidden, batch), dtype=dh_seq.dtype)
        products = [(weights_t[rows], dh_cols[rows]) for rows in slices]
    add, multiply, matmul = np.add, np.multiply, np.matmul
    # Per step, walking back in time, the [B, .] rows of step t.
    step_rows = zip(*(rows.swapaxes(0, 1)[::-1] for rows in (dh_seq, dh_to_dc, dz_cell, dzo, dz_seq, gf)))
    for dh_t, dh_to_dc_t, dz_cell_t, dzo_t, dz_t, gf_t in step_rows:
        add(dh_t, dh_next, dh)
        multiply(dh, dh_to_dc_t, dc)
        dc += dc_next
        multiply(dz_cell_t, dc_cols, dz_cell_rows)
        multiply(dzo_t, dh, dzo_rows)
        dz_t[...] = dz_rows
        if split:
            for weight_rows, dh_rows in products:
                weight_rows.dot(dz, dh_rows)
            dh_next[...] = dh_cols.T
        else:
            matmul(dz_t, weights, dh_next)
        multiply(dc, gf_t, dc_next)
    dz2 = dz_seq.reshape(-1, 4 * hidden)
    d_input_w = dz2.T @ cache.x.reshape(-1, cache.x.shape[-1])
    h_prev_seq = np.concatenate([cache.h0[:, None], cache.h[:, :-1]], axis=1)
    d_recur_w = dz2.T @ h_prev_seq.reshape(-1, hidden)
    d_biases = dz2.sum(axis=0)
    dx = dz_seq @ p.input_weights
    return (d_input_w, d_recur_w, d_biases), dx, dh_next, dc_next


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

N_LEVELS = 256


@dataclasses.dataclass
class EmbeddingTable:
    table: np.ndarray  # [256, embed_dim]

    def __post_init__(self):
        if self.table.shape[0] != N_LEVELS:
            raise ValueError(f"embedding table must have {N_LEVELS} rows, got {self.table.shape[0]}")


def embed(table: EmbeddingTable, levels: np.ndarray) -> np.ndarray:
    """Row gather: levels [...] -> vectors [..., embed_dim]."""
    levels = np.asarray(levels)
    if levels.size and (levels.min() < 0 or levels.max() >= N_LEVELS):
        raise ValueError(f"levels out of range [0, {N_LEVELS - 1}]")
    return table.table[levels]


def embed_backward(table: EmbeddingTable, levels: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Scatter-add dy into the rows that were gathered, as one one-hot GEMM."""
    one_hot = np.eye(N_LEVELS, dtype=dy.dtype)[np.asarray(levels).reshape(-1)]
    return (one_hot.T @ dy.reshape(-1, dy.shape[-1])).astype(table.table.dtype, copy=False)


# ---------------------------------------------------------------------------
# Masked softmax cross-entropy
# ---------------------------------------------------------------------------

def masked_ce(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean masked cross-entropy, with the terms its gradient reuses.

    logits [N, V], targets [N] ints, mask [N] bools. Returns (loss, exp,
    denom): exp holds exp(logits - row max) [N, V] and denom its row sums
    [N, 1]. Masked positions contribute exactly zero loss. An all-masked
    batch is defined as loss 0 (flagged via a warning), with exp and denom
    None.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise ValueError("targets out of range for the logit alphabet")
    n_valid = int(mask.sum())
    if n_valid == 0:
        warnings.warn("masked_ce: all positions masked; loss defined as 0", stacklevel=2)
        return 0.0, None, None
    # One [N, V] temporary: the shifted logits, read at the targets and
    # then exponentiated in place. The log-probability is formed only at
    # the targets.
    exp = logits - logits.max(axis=-1, keepdims=True)
    rows = np.arange(len(targets))
    target_shifted = exp[rows, targets]
    np.exp(exp, out=exp)
    denom = exp.sum(axis=-1, keepdims=True)
    losses = -(target_shifted - np.log(denom)[:, 0]) * mask
    return float(losses.sum() / n_valid), exp, denom


def softmax_ce(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean masked cross-entropy and its gradient w.r.t. the logits.

    Takes the arguments of `masked_ce`. Masked positions contribute exactly
    zero loss and zero gradient; an all-masked batch has zero gradients.
    The gradient is the softmax, divided in place from `masked_ce`'s exp,
    minus one at the targets, scaled by mask / n_valid.
    """
    targets = np.asarray(targets).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    loss, dlogits, denom = masked_ce(logits, targets, mask)
    if dlogits is None:
        return loss, np.zeros_like(logits)
    dlogits /= denom
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dlogits *= (mask / mask.sum())[:, None].astype(dlogits.dtype)
    return loss, dlogits


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma and Ba's defaults

@dataclasses.dataclass
class AdamState:
    lr: float = 0.001
    step: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def create(cls, params: dict, lr: float = 0.001):
        state = cls(lr=lr)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_update(state: AdamState, params: dict, grads: dict):
    """Bias-corrected Adam step, updating params in place.

    Every intermediate is written into two scratch arrays, allocated once
    per call in the parameter dtype and sized for the largest tensor, in
    the order of the textbook expression, so the update is bit-identical
    to evaluating it with fresh temporaries.
    """
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    scratch = {}  # dtype -> two flat buffers
    largest = max((theta.size for theta in params.values()), default=0)
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeError(f"adam_update: grad shape {g.shape} != param shape {theta.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_update: non-finite gradient for {name!r}")
        if theta.dtype not in scratch:
            scratch[theta.dtype] = np.empty((2, largest), dtype=theta.dtype)
        a, b = (buf[: theta.size].reshape(theta.shape) for buf in scratch[theta.dtype])
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.square(g, out=a), 1.0 - ADAM_BETA2, out=a)
        np.multiply(np.divide(m, c1, out=a), state.lr, out=a)  # lr * m_hat
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPSILON, out=b)  # sqrt(v_hat) + eps
        theta -= np.divide(a, b, out=a)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm,
    and return the norm before scaling. A norm that is not finite leaves
    every gradient as it is: there is no scale that would bound it."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and 0.0 < norm < np.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    per_param: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    loss_and_grads,
    params: dict,
    tolerance: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_coords_per_param: int | None = None,
) -> GradCheckReport:
    """Central finite differences against analytic gradients.

    `loss_and_grads(params) -> (loss, grads_dict)` must be deterministic.
    Params should be float64 for the comparison to be meaningful. When
    `max_coords_per_param` is set, a random subset of coordinates per
    tensor is probed instead of every coordinate.
    """
    _, analytic = loss_and_grads(params)
    per_param = {}
    worst = ("", 0.0)
    for name, theta in params.items():
        flat = theta.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        worst_here = 0.0
        grad_flat = analytic[name].reshape(-1)
        for i in coords:
            original = flat[i]
            h = 1e-5 * abs(original) + 1e-6
            flat[i] = original + h
            loss_plus, _ = loss_and_grads(params)
            flat[i] = original - h
            loss_minus, _ = loss_and_grads(params)
            flat[i] = original
            fd = (loss_plus - loss_minus) / (2.0 * h)
            a = grad_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst_here = max(worst_here, rel)
        per_param[name] = worst_here
        if worst_here > worst[1]:
            worst = (name, worst_here)
    return GradCheckReport(worst[1], worst[0], per_param, tolerance)
