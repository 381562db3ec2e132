"""Layer micro-benchmark: `nn.lstm_forward` with and without its cache,
and `nn.lstm_backward`, time per step, single-threaded.

    PYTHONPATH=src python3 -m pytest benchmarks/test_lstm_kernels.py \
        --benchmark-json=lstm.json

Tier-1 does not collect this file (`testpaths` is `tests` and `bench`).
The cases are (hidden, batch, steps): a paper-scale tier at B=1, a
mid-scale training batch, a long mid-scale sequence at B=2, a long
desk-scale sequence, and the two desk-scale calls `generate` makes per
2048-sample chunk, 512 steps of the intermediate tier and 128 of the top
tier, where the per-call set-up counts. `test_lstm_forward_inference`
runs the uncached forward that `generate` and `validate` use. Each benchmark's `extra_info`
holds the time per step of its fastest round and the tracemalloc peak of
one untimed call.

`test_recurrent_product` times one step's recurrent products in their
former forms and in the forms `lstm_forward` and `lstm_backward` use,
alternately in one process, so drift on a shared host falls on both.
Forward, [4H, H] x [H, B]: a transposed view of [B, H] rows against a
C-ordered [H, B] operand, row-blocked under `nn.SMALL_GEMM_MNK` for
B <= `nn.SMALL_GEMM_MAX_COLS`. Backward, `dz @ W` against row blocks of
a C-ordered copy of W^T where the product splits; the copy, made once
per `lstm_backward` call, is timed apart. `extra_info` holds the medians
and the former-over-new ratios.
"""

import os
import sys

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    raise ImportError("numpy is already loaded; set OPENBLAS_NUM_THREADS=1 before running the LSTM benchmark")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bwex import nn  # noqa: E402

CASES = [(1024, 1, 300), (256, 4, 120), (256, 2, 1200), (32, 1, 4000), (32, 1, 512), (32, 1, 128)]
PRODUCT_CASES = [(256, 2), (256, 4), (256, 64), (1024, 4), (1024, 8), (1024, 64)]


def _case(hidden, batch, steps):
    rng = np.random.default_rng(0)
    p = nn.LstmParams.create(hidden, hidden, rng)
    x = rng.standard_normal((batch, steps, hidden)).astype(np.float32)
    h0 = np.zeros((batch, hidden), np.float32)
    dh_seq = rng.standard_normal((batch, steps, hidden)).astype(np.float32)
    return p, x, h0, dh_seq


def _tracemalloc_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _run(benchmark, fn, steps):
    benchmark.extra_info["tracemalloc_peak_mb"] = round(_tracemalloc_peak_mb(fn), 3)
    benchmark.pedantic(fn, rounds=5, iterations=1, warmup_rounds=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_step"] = round(benchmark.stats.stats.min / steps * 1e6, 2)


@pytest.mark.parametrize("hidden, batch, steps", CASES)
def test_lstm_forward(benchmark, hidden, batch, steps):
    p, x, h0, _ = _case(hidden, batch, steps)
    _run(benchmark, lambda: nn.lstm_forward(p, x, h0, h0), steps)


@pytest.mark.parametrize("hidden, batch, steps", CASES)
def test_lstm_forward_inference(benchmark, hidden, batch, steps):
    p, x, h0, _ = _case(hidden, batch, steps)
    _run(benchmark, lambda: nn.lstm_forward(p, x, h0, h0, cache=False), steps)


@pytest.mark.parametrize("hidden, batch, steps", CASES)
def test_lstm_backward(benchmark, hidden, batch, steps):
    p, x, h0, dh_seq = _case(hidden, batch, steps)
    _, _, cache = nn.lstm_forward(p, x, h0, h0)
    _run(benchmark, lambda: nn.lstm_backward(p, cache, dh_seq), steps)


def _seconds_per_call(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


@pytest.mark.parametrize("hidden, batch", PRODUCT_CASES)
def test_recurrent_product(benchmark, hidden, batch):
    rng = np.random.default_rng(0)
    weights = nn.LstmParams.create(hidden, hidden, rng).recurrent_weights
    h_rows = rng.standard_normal((batch, hidden)).astype(np.float32)
    h_cols = np.ascontiguousarray(h_rows.T)
    dz_rows = rng.standard_normal((batch, 4 * hidden)).astype(np.float32)
    dz_cols = np.ascontiguousarray(dz_rows.T)
    former_g = np.empty((4 * hidden, batch), np.float32)
    g = np.empty_like(former_g)
    former_dh = np.empty((batch, hidden), np.float32)
    dh_cols = np.empty((hidden, batch), np.float32)
    forward_blocks = [(weights[rows], g[rows]) for rows in nn._row_slices(4 * hidden, batch, hidden)]
    backward_slices = nn._row_slices(hidden, batch, 4 * hidden)
    split = len(backward_slices) > 1
    weights_t = np.ascontiguousarray(weights.T)
    backward_blocks = [(weights_t[rows], dh_cols[rows]) for rows in backward_slices]

    def former_forward():
        weights.dot(h_rows.T, former_g)

    def forward():
        for weight_rows, g_rows in forward_blocks:
            weight_rows.dot(h_cols, g_rows)

    def former_backward():
        np.matmul(dz_rows, weights, former_dh)

    def blocked_backward():
        for weight_rows, dh_rows in backward_blocks:
            weight_rows.dot(dz_cols, dh_rows)

    # lstm_backward keeps `dz @ W` while its product is one block.
    backward = blocked_backward if split else former_backward
    for fn in (former_forward, forward, former_backward, blocked_backward):
        fn()
    np.testing.assert_allclose(g, former_g, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(dh_cols.T, former_dh, rtol=1e-5, atol=1e-4)
    calls = max(1, int(2e8 // (8 * hidden * hidden * batch)))  # about 0.1 s per round at 2 GFLOP/s
    timed = {
        "former_forward": former_forward,
        "forward": forward,
        "former_backward": former_backward,
        "backward": backward,
    }
    seconds = {name: [] for name in timed}
    for _ in range(7):
        for name, fn in timed.items():
            seconds[name].append(_seconds_per_call(fn, calls))
    us = {name: statistics.median(values) * 1e6 for name, values in seconds.items()}
    copy_us = statistics.median(_seconds_per_call(lambda: np.ascontiguousarray(weights.T), 1) for _ in range(3))
    copy_us = copy_us * 1e6 if split else 0.0
    benchmark.extra_info.update(
        forward_blocks=len(forward_blocks),
        backward_blocks=len(backward_slices),
        **{f"{name}_us": round(value, 2) for name, value in us.items()},
        forward_ratio=round(us["former_forward"] / us["forward"], 2),
        backward_ratio=round(us["former_backward"] / us["backward"], 2),
        transposed_copy_us=round(copy_us, 1),
    )
    copy_note = f" + W^T copy {copy_us:.0f} us per call" if split else ""
    print(
        f"\nh={hidden} B={batch}: forward former {us['former_forward']:.1f} us, "
        f"{len(forward_blocks)} blocks {us['forward']:.1f} us; backward former {us['former_backward']:.1f} us, "
        f"{len(backward_slices)} blocks {us['backward']:.1f} us{copy_note}"
    )
    benchmark.pedantic(lambda: (forward(), backward()), rounds=5, iterations=calls, warmup_rounds=1)
