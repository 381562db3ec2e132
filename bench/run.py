#!/usr/bin/env python3
"""The bwex benchmark: three seeded workloads driven from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload extend_paper --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn. Each workload runs in fresh
worker processes with single-threaded BLAS. With `--trace 0` the run
prints the end-to-end metrics; with `--trace 1` it runs the workload once
untraced and once traced on the same inputs and prints per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every correctness gate passed.

README.md in this directory records why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, here and in every worker (they inherit it);
# bwex's own --threads flag takes effect too late to do this.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import wave  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYER_NAMES  # noqa: E402
from workloads import WIDEBAND_RATE, WORKLOADS, make_inputs, read_pcm  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0  # every worker is killed before a run can pass 180 s
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured
# An extend output fails when fewer of its int16 samples than this equal the
# float64 reference. One argmax flip between float32 and float64 changes
# about 100 output samples (the length of the HF highpass), so a few rare
# near-ties still pass while any systematic error fails.
MATCH_GATE_PCT = 95.0

END_TO_END = (
    ("setup_s", "s"),
    ("rtf_p50_ref", "ref/audio_s"),
    ("audio_s_per_ref", "audio_s/ref"),
    ("peak_rss_mb", "MB"),
)

# Layers each kind of workload must call; a traced run that records zero
# calls for one of them fails. Extend workloads must not call the layers
# that only training uses.
MUST_CALL = {
    "extend": (
        "cli.main", "train.load_checkpoint", "config.model_from_checkpoint", "data.load_wav",
        "dsp.upsample2", "dsp.mulaw_encode", "models.generate", "models.Hrnn.forward",
        "models.conditioning_fanout", "nn.lstm_forward", "nn.affine", "nn.embed",
        "metrics.reconstruct_wideband", "data.save_wav",
    ),
    "train": (
        "data.load_wav", "data.build_pair", "dsp.upsample2", "dsp.mulaw_encode", "train.train",
        "train.validate", "data.make_batch", "data.tbptt_chunks", "models.Hrnn.forward",
        "models.Hrnn.backward", "models.conditioning_fanout", "nn.lstm_forward", "nn.lstm_backward",
        "nn.affine", "nn.affine_backward", "nn.embed", "nn.embed_backward", "nn.softmax_ce",
        "nn.clip_global_norm", "nn.adam_update",
    ),
}
TRAINING_ONLY = tuple(name for name in MUST_CALL["train"] if name not in MUST_CALL["extend"])

# Self times go into the JSON only for layers every workload calls, so no
# reported time is zero by construction; counts cover every layer.
_TIMED_LAYERS = (
    "models.conditioning_fanout", "nn.lstm_forward", "nn.affine", "nn.embed",
    "models.Hrnn.forward", "dsp.upsample2", "dsp.mulaw_encode", "data.load_wav",
)
_QUANTITIES = (
    ("models.conditioning_fanout.gflop", "GFLOP_computed"),
    ("nn.lstm_forward.gflop", "GFLOP_computed"),
    ("nn.affine.gflop", "GFLOP_computed"),
    ("nn.lstm_forward.steps", "count"),
    ("nn.lstm_backward.steps", "count"),
    ("dsp.upsample2.samples", "count"),
    ("cli.main.failed", "count"),
)

PER_LAYER = (
    tuple((f"{layer}.calls", "count") for layer in LAYER_NAMES)
    + tuple((f"{layer}.self_s", "s") for layer in _TIMED_LAYERS)
    + _QUANTITIES
    + (("trace_overhead_pct", "%"),)
)


class BenchError(RuntimeError):
    """A worker crashed or ran out of time; the run has no result."""


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def _worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def make_job(spec: dict, inputs: dict, workdir: Path, tag: str, seconds: float, trace=False,
             setup_only=False, max_ops=None) -> dict:
    return {
        "kind": spec["kind"],
        "inputs": inputs,
        "workdir": str(workdir),
        "tag": tag,
        "seconds": seconds,
        "trace": trace,
        "setup_only": setup_only,
        "max_ops": max_ops,
        "kernel": {
            "hidden": spec["model"]["hidden"],
            "batch": spec.get("batch_size", 1),
            "steps": spec["kernel_steps"],
        },
        "result": str(workdir / f"result_{tag}.json"),
    }


def spawn(job: dict, deadline: float) -> dict:
    """Run one job in a fresh worker process and return its result."""
    workdir = Path(job["workdir"])
    job_path = workdir / f"job_{job['tag']}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start worker {job['tag']}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, env=_worker_env(workdir), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {job['tag']} killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {job['tag']} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

def reference_pcm(inputs: dict, utt_indices, workdir: Path) -> dict:
    """int16 output of a float64 run of the extend path, per utterance index.

    Mirrors `bwex extend`: same checkpoint weights, same DSP, but the
    model runs in float64.
    """
    config, data, dsp, metrics, models, train = (
        importlib.import_module(f"bwex.{m}") for m in ("config", "data", "dsp", "metrics", "models", "train")
    )
    ckpt = train.load_checkpoint(inputs["checkpoint"])
    model_cfg = config.build_run_config(ckpt.config_text).model_cfg
    model = models.build_model(model_cfg, rng=0, dtype=np.float64)
    model.load_params(ckpt.params)
    del ckpt
    refs = {}
    for u in sorted(set(utt_indices)):
        narrowband = data.load_wav(inputs["utterances"][u]["path"])
        generated = models.generate(model, dsp.mulaw_encode(dsp.upsample2(narrowband)))
        wideband = metrics.reconstruct_wideband(
            narrowband, generated, strategy=model_cfg.strategy, hf_gain=model_cfg.hf_gain
        )
        path = workdir / f"ref_{u:03d}.wav"
        data.save_wav(path, wideband)
        refs[u] = read_pcm(path)[1]
    return refs


def check_extend(ops: list, inputs: dict, refs: dict) -> tuple[int, int]:
    """Mark each op's problems; returns (matched, compared) int16 samples."""
    matched = compared = 0
    for op in ops:
        op["problems"] = []
        if op["error"] is not None or op["exit"] != 0:
            op["problems"].append(op["error"] or f"exit code {op['exit']}")
            continue
        try:
            rate, pcm = read_pcm(op["out"])
        except (OSError, EOFError, ValueError, wave.Error) as exc:
            op["problems"].append(f"unreadable output: {exc}")
            continue
        want = 2 * inputs["utterances"][op["utt"]]["samples"]
        if rate != WIDEBAND_RATE or len(pcm) != want:
            op["problems"].append(f"output is {len(pcm)} samples at {rate} Hz, want {want} at {WIDEBAND_RATE}")
            continue
        match = int(np.sum(pcm == refs[op["utt"]]))
        matched += match
        compared += len(pcm)
        if 100.0 * match < MATCH_GATE_PCT * len(pcm):
            op["problems"].append(f"ref_match {100.0 * match / len(pcm):.2f}% < {MATCH_GATE_PCT}%")
    return matched, compared


def check_train(ops: list, epochs: int):
    for op in ops:
        op["problems"] = []
        if op["error"] is not None:
            op["problems"].append(op["error"])
            continue
        ces = op["train_ce"] + op["valid_ce"]
        if len(op["train_ce"]) != epochs:
            op["problems"].append(f"{len(op['train_ce'])} epochs ran, want {epochs}")
        if not all(math.isfinite(ce) for ce in ces):
            op["problems"].append(f"non-finite CE: {ces}")
        elif not op["train_ce"][-1] < op["train_ce"][0]:
            op["problems"].append(f"train CE did not fall: {op['train_ce']}")
        if not op["round_trip"]:
            op["problems"].append("checkpoint did not round-trip bit-exact")


def check_layers(kind: str, layers: dict) -> list:
    problems = [f"{name}: zero calls" for name in MUST_CALL[kind] if layers[name]["calls"] == 0]
    if kind == "extend":
        problems += [f"{name}: called on an extend workload" for name in TRAINING_ONLY if layers[name]["calls"]]
    return problems


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else math.nan


def _samples(spec: dict, inputs: dict, run: dict) -> list:
    """(wall s, reference-kernel s, audio s) per timed sample: an extend
    call, or one training epoch (train-set audio)."""
    if spec["kind"] == "extend":
        utts = inputs["utterances"]
        return [(op["wall_s"], op["kernel_s"], utts[op["utt"]]["duration_s"]) for op in run["ops"]]
    audio_s = run["train_samples"] / 16000.0
    return [
        (wall, kernel, audio_s)
        for op in run["ops"] if op["error"] is None
        for wall, kernel in zip(op["epoch_s"], op["kernel_s"])
    ]


def _timing(spec: dict, inputs: dict, run: dict) -> dict:
    samples = _samples(spec, inputs, run)
    n = len(samples)
    what = " extend calls" if spec["kind"] == "extend" else " epochs"
    ref_cost = sum(w / k for w, k, _ in samples)
    return {
        "rtf_p50_ref": (_median([w / k / a for w, k, a in samples]), "ref/audio_s", n, what),
        "audio_s_per_ref": (sum(a for _, _, a in samples) / ref_cost if n else math.nan, "audio_s/ref", n, what),
        "rtf_p50": (_median([w / a for w, _, a in samples]), "s/s", n, what + " (wall clock)"),
        "audio_s_per_s": (sum(a for _, _, a in samples) / sum(w for w, _, _ in samples) if n else math.nan,
                          "audio_s/s", n, what + " (wall clock)"),
        "ref_kernel_ms": (1000.0 * _median([k for _, k, _ in samples]), "ms", n, what),
    }


def _row(name, value, unit, n, note=""):
    return f"{name:<34} {value:>14.6g} {unit:<15} n={n}{note}"


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (report lines, JSON result object)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    lines = [f"# bwex benchmark workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             f"# env {json.dumps(env)}"]
    inputs = make_inputs(spec, seed, workdir)

    main = spawn(make_job(spec, inputs, workdir, "main", seconds), deadline)
    runs = [main]
    if trace:
        traced = spawn(make_job(spec, inputs, workdir, "traced", seconds, trace=True, max_ops=len(main["ops"])), deadline)
        runs.append(traced)
    else:
        setups = [main["setup_s"]] + [
            spawn(make_job(spec, inputs, workdir, f"setup{i}", seconds, setup_only=True), deadline)["setup_s"]
            for i in range(1, SETUP_SAMPLES)
        ]
    ops = [op for run in runs for op in run["ops"]]

    report = {}  # name -> (value, unit, n, note)
    if spec["kind"] == "extend":
        refs = reference_pcm(inputs, [op["utt"] for op in ops], workdir)
        matched, compared = check_extend(ops, inputs, refs)
        report["ref_match_pct"] = (100.0 * matched / max(compared, 1), "%", len(ops), f" extend calls, {compared} samples")
    else:
        check_train(ops, spec["epochs"])
        good = [op for op in main["ops"] if not op["problems"]]
        report["train_samples_per_s"] = (
            main["train_samples"] * spec["epochs"] * len(good) / max(sum(op["wall_s"] for op in good), 1e-9),
            "samples/s", len(good), " train() calls",
        )
        report["train_ce_final"] = (_median([op["train_ce"][-1] for op in good]), "nats", len(good), " train() calls")
    timing = _timing(spec, inputs, main)
    report.update(timing)
    failed = sum(1 for op in ops if op["problems"])
    report["failed_pct"] = (100.0 * failed / len(ops), "%", len(ops), " operations")
    problems = [f"op {i}: {p}" for i, op in enumerate(ops) for p in op["problems"]]

    if trace:
        layers = traced["layers"]
        problems += check_layers(spec["kind"], layers)
        # Same operations on both sides; reference-kernel units cancel host drift.
        cost = [sum(w / k for w, k, _ in _samples(spec, inputs, run)) for run in (main, traced)]
        overhead = 100.0 * (cost[1] / cost[0] - 1.0)
        lines.append(f"# traced {len(traced['ops'])} operations again: tracing overhead {overhead:+.2f}%")
        lines += _layer_table(layers)
        metrics = {}
        for metric, unit in PER_LAYER:
            if metric == "trace_overhead_pct":
                value = overhead
            else:
                layer, _, quantity = metric.rpartition(".")
                value = layers[layer].get(quantity, 0)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        report["setup_s"] = (_median(setups), "s", len(setups), " fresh processes")
        report["peak_rss_mb"] = (main["peak_rss_mb"], "MB", 1, " worker process")
        metrics = {m: {"value": report[m][0], "unit": unit} for m, unit in END_TO_END}
    lines += [_row(key, *row) for key, row in report.items()]
    lines += [f"# FAILED {p}" for p in problems]

    for path in workdir.iterdir():
        if path.suffix in (".wav", ".ckpt"):
            path.unlink()
    outcome = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": None if _nan(v["value"]) else v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"env": env, "outcome": outcome, "runs": runs}), encoding="utf-8")
    return lines, outcome


def _nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _layer_table(layers: dict) -> list:
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    out = [f"{'layer':<32} {'calls':>7} {'self_s':>10} {'share':>7}  computed/counted"]
    for name, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        extra = " ".join(f"{k}={v:.6g}" for k, v in row.items() if k not in ("calls", "self_s", "total_s"))
        out.append(f"{name:<32} {row['calls']:>7} {row['self_s']:>10.4f} {100 * row['self_s'] / total:>6.1f}%  {extra}")
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    if not (SRC / "bwex" / "__init__.py").is_file():
        print(f"error: no bwex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        try:
            lines, outcomes[name] = run_workload(
                name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), WORK / name
            )
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
