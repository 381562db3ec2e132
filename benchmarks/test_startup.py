"""Layer micro-benchmark: start-up of a one-shot `bwex` process, that is
the seconds and peak memory of the imports of a real `bwex extend` and
`bwex eval` run, each round in a fresh single-threaded interpreter.

    PYTHONPATH=src python3 -m pytest benchmarks/test_startup.py \
        --benchmark-json=startup.json

Tier-1 does not collect this file (`testpaths` is `tests` and `bench`).
The child process imports bwex from the directory this process imported
it from, so pointing PYTHONPATH at another checkout's `src` measures that
checkout. Each round runs `bwex.cli.main` under `python -X importtime`:
`extend` on a random-init h=8 HRNN checkpoint and a 0.5 s input, `eval`
on two 0.5 s ref/deg pairs, so that its report forms a ci95 as a real
eval of a corpus does. The imports timed are the ones the command makes,
whatever they are. The benchmark's own time is one whole child process,
interpreter start and the command's small amount of work included. Each
benchmark's `extra_info` holds the median over its rounds of the seconds
spent in `import bwex.cli` (`cli_s`), in the imports made while the
command ran (`command_s`), their sum (`import_s`), the child's
`ru_maxrss` in MB, and whether any round loaded any scipy module
(`scipy_loaded`) and `scipy.stats` (`scipy_stats_loaded`).
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwex
from bwex.config import build_run_config
from bwex.data import save_wav
from bwex.dsp import Waveform
from bwex.models import build_model
from bwex.train import Checkpoint, save_checkpoint

_CHILD = """\
import contextlib, io, json, resource, sys
import bwex.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bwex.cli.main({argv!r})
print(json.dumps({{
    "code": code,
    "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
    "scipy_stats": "scipy.stats" in sys.modules,
}}))
"""


@pytest.fixture(scope="module")
def commands(tmp_path_factory) -> dict:
    """argv of one `extend` run and one `eval` run on small files."""
    root = tmp_path_factory.mktemp("startup")
    text = "model.kind = hrnn\nmodel.hidden = 8\nmodel.embed_dim = 4\n"
    ckpt = root / "tiny.bweh"
    save_checkpoint(ckpt, Checkpoint(config_text=text, params=build_model(build_run_config(text).model_cfg, rng=0).params))
    save_wav(root / "nb.wav", Waveform(0.3 * np.sin(np.arange(4000) * 0.05), 8000))
    for side in ("ref", "deg"):
        (root / side).mkdir()
        for utt, step in (("u", 0.05), ("v", 0.06)):  # two pairs, so the report forms its ci95
            save_wav(root / side / f"{utt}.wav", Waveform(0.3 * np.sin(np.arange(8000) * step), 16000))
    return {
        "extend": ["extend", "--model", str(ckpt), "--in", str(root / "nb.wav"), "--out", str(root / "out.wav")],
        "eval": ["eval", "--ref", str(root / "ref"), "--deg", str(root / "deg"), "--report", str(root / "r.csv")],
    }


def _child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(bwex.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def _import_seconds(importtime: str) -> dict:
    """Split the top-level imports of an `-X importtime` log at `bwex.cli`."""
    top = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative_us, field = line.split("|")
        if field.startswith("  "):  # imported by another import
            continue
        top.append((field.strip(), int(cumulative_us) / 1e6))
    cli = [name for name, _ in top].index("bwex.cli")
    cli_s = top[cli][1]
    command_s = sum(s for _, s in top[cli + 1 :])
    return {"cli_s": cli_s, "command_s": command_s, "import_s": cli_s + command_s}


@pytest.mark.parametrize("command", ["eval", "extend"])
def test_startup_imports(benchmark, commands, command):
    script = _CHILD.format(argv=commands[command])
    env = _child_env()
    samples = []

    def run():
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(result.stdout)
        assert sample["code"] == 0, result.stderr[-2000:]
        samples.append({**sample, **_import_seconds(result.stderr)})

    benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    timed = samples[1:] or samples  # the warm-up round is not one; --benchmark-disable runs once
    for key in ("cli_s", "command_s", "import_s", "ru_maxrss_mb"):
        benchmark.extra_info[key] = round(statistics.median(s[key] for s in timed), 4)
    benchmark.extra_info["scipy_loaded"] = any(s["scipy"] for s in timed)
    benchmark.extra_info["scipy_stats_loaded"] = any(s["scipy_stats"] for s in timed)
