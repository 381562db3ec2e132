"""Layer micro-benchmark: `nn.lstm_forward` with and without its cache,
and `nn.lstm_backward`, time per step, single-threaded.

    PYTHONPATH=src python3 -m pytest benchmarks/test_lstm_kernels.py \
        --benchmark-json=lstm.json

Tier-1 does not collect this file (`testpaths` is `tests` and `bench`).
The cases are (hidden, batch, steps): a paper-scale tier at B=1, a
mid-scale training batch, a long mid-scale sequence at B=2 and a long
desk-scale sequence. `test_lstm_forward_inference` runs the uncached
forward that `generate` and `validate` use. Each benchmark's `extra_info`
holds the time per step of its fastest round and the tracemalloc peak of
one untimed call.
"""

import os
import sys

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    raise ImportError("numpy is already loaded; set OPENBLAS_NUM_THREADS=1 before running the LSTM benchmark")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bwex import nn  # noqa: E402

CASES = [(1024, 1, 300), (256, 4, 120), (256, 2, 1200), (32, 1, 4000)]


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
