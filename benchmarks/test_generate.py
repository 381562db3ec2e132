"""Layer micro-benchmark: `models.generate`, time per second of audio and
tracemalloc peak, single-threaded, HRNN beside SRNN.

    PYTHONPATH=src python3 -m pytest benchmarks/test_generate.py \
        --benchmark-json=generate.json

Tier-1 does not collect this file (`testpaths` is `tests` and `bench`).
The cases are (architecture, hidden, seconds of 16 kHz input) on
random-init models with the benchmark workloads' widths (embed 16/64/256
at hidden 32/256/1024): HRNN at desk scale on 4 s, mid scale on 1 s and
paper scale on 0.35 s, and SRNN at desk and mid scale on 1 s. Each
benchmark's `extra_info` holds the wall seconds per second of audio of its
fastest round and the tracemalloc peak of one untimed call. SRNN over HRNN
time per second of audio at the same hidden width is the paper's speed
comparison.
"""

import os
import sys

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    raise ImportError("numpy is already loaded; set OPENBLAS_NUM_THREADS=1 before running the generate benchmark")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bwex.dsp import QuantizedWaveform  # noqa: E402
from bwex.models import HrnnConfig, SrnnConfig, build_model, generate  # noqa: E402

RATE = 16000
EMBED = {32: 16, 256: 64, 1024: 256}
CASES = [("hrnn", 32, 4.0), ("hrnn", 256, 1.0), ("hrnn", 1024, 0.35), ("srnn", 32, 1.0), ("srnn", 256, 1.0)]


def _case(arch, hidden, seconds):
    config = HrnnConfig if arch == "hrnn" else SrnnConfig
    model = build_model(config(hidden=hidden, embed_dim=EMBED[hidden]), rng=np.random.default_rng(0))
    levels = np.random.default_rng(1).integers(0, 256, int(seconds * RATE))
    return model, QuantizedWaveform(levels, RATE)


def _tracemalloc_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch, hidden, seconds", CASES)
def test_generate(benchmark, arch, hidden, seconds):
    model, q = _case(arch, hidden, seconds)
    fn = lambda: generate(model, q)  # noqa: E731
    benchmark.extra_info["tracemalloc_peak_mb"] = round(_tracemalloc_peak_mb(fn), 3)
    benchmark.pedantic(fn, rounds=5, iterations=1, warmup_rounds=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["s_per_audio_s"] = round(benchmark.stats.stats.min / seconds, 4)
