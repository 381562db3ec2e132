"""Minimal numpy neural toolkit: affine and LSTM layers, an embedding
table, masked softmax cross-entropy, Adam, and finite-difference gradient
checking.

Parameters live in plain numpy arrays grouped by small dataclasses; every
layer has an exact analytic backward. Training runs in float32; gradient
checks run the same code in float64.
"""

from __future__ import annotations

import dataclasses
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
    return x @ p.weight.T + p.bias


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


@dataclasses.dataclass
class LstmCache:
    x: np.ndarray        # [B, T, n_in]
    h0: np.ndarray       # [B, H]
    c0: np.ndarray       # [B, H]
    h: np.ndarray        # [B, T, H]
    c: np.ndarray        # [B, T, H]
    gates: np.ndarray    # [B, T, 4H] post-activation (i, f, g, o)
    tanh_c: np.ndarray   # [B, T, H]


def lstm_forward(p: LstmParams, x: np.ndarray, h0: np.ndarray, c0: np.ndarray, cache: bool = True):
    """Run the cell over the time axis of x [B, T, n_in].

    Returns (h_seq [B, T, H], (h_last, c_last), cache). Each step works
    in one reused gate buffer and one cell buffer; only with `cache` does
    it copy the gates, c and tanh(c) into the [B, T, .] rows that
    `lstm_backward` reads. Without it the cache is None.
    """
    _check_last_dim("lstm_forward", x, p.input_weights.shape[1])
    batch, steps, _ = x.shape
    hidden = p.hidden
    if h0.shape != (batch, hidden) or c0.shape != (batch, hidden):
        raise ShapeError(f"lstm_forward: states {h0.shape}/{c0.shape} do not match (batch, hidden) = {(batch, hidden)}")
    x_proj = x @ p.input_weights.T + p.biases  # hoisted: one big matmul
    # Step-major, so every h row the recurrent product reads is contiguous:
    # on strided rows np.dot summed in another order than @ (float64, B > 1).
    h_steps = np.empty((steps, batch, hidden), dtype=x.dtype)
    g = np.empty((batch, 4 * hidden), dtype=x.dtype)
    gi, gf, gg, go = _split_gates(g, hidden)
    # The logistic is 1/2 + tanh(z/2)/2, so one tanh pass serves all four
    # packed gates: the i, f and o slots are scaled by 1/2 on the way in
    # and out and shifted by 1/2, the cell slot by 1 and 0. Both factors
    # are powers of two, hence exact. They are [B, 4H] like the gates: at
    # h=32, B=1 a same-shape operand multiplies in about 60% of the time
    # of a broadcast [4H] one.
    scale = np.full_like(g, 0.5)
    scale[:, 2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    c = np.array(c0, dtype=x.dtype)
    tc = np.empty_like(c)
    if cache:
        gates = np.empty((batch, steps, 4 * hidden), dtype=x.dtype)
        c_seq = np.empty((batch, steps, hidden), dtype=x.dtype)
        tanh_c = np.empty_like(c_seq)
    weights = p.recurrent_weights
    h = h0
    for t, (x_t, h_t) in enumerate(zip(x_proj.swapaxes(0, 1), h_steps)):
        # Weight on the left: OpenBLAS runs this product 2-3x faster than
        # h @ W.T at 2 <= B <= 8, and identically at B = 1. np.dot calls
        # it with less overhead than @ at B = 1.
        np.add(np.dot(weights, h.T).T, x_t, out=g)
        g *= scale
        np.tanh(g, out=g)  # saturates without overflow
        g *= scale
        g += shift
        c *= gf
        c += np.multiply(gi, gg, out=tc)
        np.tanh(c, out=tc)
        h = np.multiply(go, tc, out=h_t)
        if cache:
            gates[:, t] = g
            c_seq[:, t] = c
            tanh_c[:, t] = tc
    h_seq = np.ascontiguousarray(h_steps.swapaxes(0, 1))  # no copy at B = 1
    lstm_cache = LstmCache(x, h0, c0, h_seq, c_seq, gates, tanh_c) if cache else None
    return h_seq, (h_seq[:, -1].copy(), c), lstm_cache


def lstm_backward(p: LstmParams, cache: LstmCache, dh_seq: np.ndarray):
    """Full BPTT through a cached forward pass.

    dh_seq holds the loss gradient w.r.t. every emitted hidden state.
    Returns (dparams: LstmParams-shaped tuple, dx, dh0, dc0).
    """
    batch, steps, hidden = cache.h.shape
    # Every gate derivative is (dc or dh) times a factor of the cached
    # forward alone, so the factors are computed for the whole sequence
    # before the loop: dz_seq holds them, the loop scales them in place.
    gi, gf, gg, go = _split_gates(cache.gates, hidden)
    tc = cache.tanh_c
    dz_seq = np.empty_like(cache.gates)
    dzi, dzf, dzg, dzo = _split_gates(dz_seq, hidden)
    np.subtract(1.0, gi, out=dzi)  # gg gi (1 - gi)
    dzi *= gi
    dzi *= gg
    np.subtract(1.0, gf, out=dzf)  # c_prev gf (1 - gf)
    dzf *= gf
    dzf[:, 0] *= cache.c0
    dzf[:, 1:] *= cache.c[:, :-1]
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
    dc_next = np.zeros_like(dh_next)
    for t in range(steps - 1, -1, -1):
        dh = dh_seq[:, t] + dh_next
        dc = dh * dh_to_dc[:, t]
        dc += dc_next
        dz_cell[:, t] *= dc[:, None]
        dzo[:, t] *= dh
        dh_next = dz_seq[:, t] @ weights
        dc_next = dc * gf[:, t]
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

    @classmethod
    def create(cls, embed_dim: int, rng: np.random.Generator, dtype=np.float32):
        return cls(init_uniform((N_LEVELS, embed_dim), embed_dim, rng, dtype))


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

def softmax_ce(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean masked cross-entropy and its gradient w.r.t. the logits.

    logits [N, V], targets [N] ints, mask [N] bools. Masked positions
    contribute exactly zero loss and zero gradient. An all-masked batch is
    defined as loss 0 with zero gradients (flagged via a warning).
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets).reshape(-1)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise ValueError("targets out of range for the logit alphabet")
    n_valid = int(mask.sum())
    if n_valid == 0:
        warnings.warn("softmax_ce: all positions masked; loss defined as 0", stacklevel=2)
        return 0.0, np.zeros_like(logits)
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


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def create(cls, params: dict, lr: float = 0.001, **kwargs):
        state = cls(lr=lr, **kwargs)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_update(state: AdamState, params: dict, grads: dict):
    """Bias-corrected Adam step, updating params in place."""
    state.step += 1
    t = state.step
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeError(f"adam_update: grad shape {g.shape} != param shape {theta.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"adam_update: non-finite gradient for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
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
