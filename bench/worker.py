"""One workload in one fresh process: set-up, then the timed closed loop.

Usage: python3 bench/worker.py JOB.json. The job file names the workload
spec, its generated inputs, the run length and whether to trace; the
result (set-up time, per-operation records, peak RSS, layer summary) is
written to the job's `result` path. run.py starts this process with the
BLAS thread variables already pinned, so they hold before numpy loads.

Around every operation the worker times a reference kernel: a fixed
numpy LSTM loop owned by the benchmark, at the workload's width and batch.
Other tenants of the host slow every process on it by tens of percent
for tens of seconds at a time; an operation's time divided by the kernel
time taken just before and just after it cancels most of that drift.
No bwex code runs in the kernel, so a change to bwex shows in full.

`run_job` is importable so the benchmark's tests can run a workload in
their own process with a wrapped function.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import resource
import sys
import time
from pathlib import Path


def make_ref_kernel(hidden: int, batch: int, steps: int, tracer=None):
    """Returns a function that runs the reference kernel and returns its seconds.

    Under tracing the kernel gets a span of its own, so the layer it runs
    inside (`train.train`, through the epoch log callback) is not charged
    for it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    w_in = (rng.standard_normal((4 * hidden, hidden)) / np.sqrt(hidden)).astype(np.float32)
    w_rec = (rng.standard_normal((4 * hidden, hidden)) / np.sqrt(hidden)).astype(np.float32)
    x = rng.standard_normal((batch, steps, hidden)).astype(np.float32)

    def run() -> float:
        start = time.perf_counter()
        x_proj = x @ w_in.T
        h = np.zeros((batch, hidden), dtype=np.float32)
        c = np.zeros_like(h)
        for t in range(steps):
            z = x_proj[:, t] + h @ w_rec.T
            gates = 1.0 / (1.0 + np.exp(-z))
            c = gates[:, hidden : 2 * hidden] * c + gates[:, :hidden] * np.tanh(z[:, 2 * hidden : 3 * hidden])
            h = gates[:, 3 * hidden :] * np.tanh(c)
        return time.perf_counter() - start

    run()  # first touch of its arrays happens outside every measurement
    return run if tracer is None else tracer.wrap(run, "bench.ref_kernel")


def _extend_argv(ckpt: str, wav: str, out: str) -> list:
    return ["extend", "--model", ckpt, "--in", wav, "--out", out]


def _keep_going(start: float, done: int, per_pass: int, job: dict) -> bool:
    """Whole passes over the workload's inputs until `seconds` have passed,
    so every run times the same set of inputs; or exactly `max_ops`."""
    if job["max_ops"] is not None:
        return done < job["max_ops"]
    return done == 0 or done % per_pass != 0 or time.perf_counter() - start < job["seconds"]


def _run_extend(job: dict, t0: float, tracer) -> dict:
    cli = importlib.import_module("bwex.cli")
    inputs = job["inputs"]
    workdir = Path(job["workdir"])
    ckpt = inputs["checkpoint"]
    if tracer is not None:
        tracer.request = "warmup"
    code = cli.main(_extend_argv(ckpt, inputs["warmup"]["path"], str(workdir / "warmup_out.wav")))
    if code != 0:
        raise RuntimeError(f"warm-up extend exited with {code}")
    result = {"setup_s": time.perf_counter() - t0, "ops": []}
    if job["setup_only"]:
        return result
    utterances = inputs["utterances"]
    kernel = make_ref_kernel(**job["kernel"], tracer=tracer)
    kernel_before = kernel()
    start = time.perf_counter()
    while _keep_going(start, len(result["ops"]), len(utterances), job):
        i = len(result["ops"])
        utt = i % len(utterances)
        out = str(workdir / f"out_{job['tag']}_{i:03d}.wav")
        if tracer is not None:
            tracer.request = i
        began = time.perf_counter()
        error = None
        try:
            code = cli.main(_extend_argv(ckpt, utterances[utt]["path"], out))
        except Exception as exc:  # one failed operation must not end the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - began
        kernel_after = kernel()
        result["ops"].append(
            {"utt": utt, "out": out, "wall_s": wall, "kernel_s": 0.5 * (kernel_before + kernel_after),
             "exit": code, "error": error}
        )
        kernel_before = kernel_after
    return result


def _checkpoint_round_trips(train_mod, ckpt, path) -> bool:
    train_mod.save_checkpoint(path, ckpt)
    loaded = train_mod.load_checkpoint(path)
    return (
        loaded.config_text == ckpt.config_text.strip("\n")
        and loaded.params.keys() == ckpt.params.keys()
        and all(
            loaded.params[k].dtype == v.dtype and loaded.params[k].tobytes() == v.tobytes()
            for k, v in ckpt.params.items()
        )
    )


def _run_train(job: dict, t0: float, tracer) -> dict:
    config = importlib.import_module("bwex.config")
    data = importlib.import_module("bwex.data")
    train_mod = importlib.import_module("bwex.train")
    workdir = Path(job["workdir"])
    run_cfg = config.build_run_config(Path(job["inputs"]["config"]).read_text(encoding="utf-8"))
    if tracer is not None:
        tracer.request = "setup"
    train_pairs = data.load_pairs(data.load_manifest(run_cfg.train_manifest, split="train"), run_cfg.model_cfg)
    valid_pairs = data.load_pairs(data.load_manifest(run_cfg.valid_manifest, split="valid"), run_cfg.model_cfg)
    result = {"setup_s": time.perf_counter() - t0, "ops": []}
    if job["setup_only"]:
        return result
    result["train_samples"] = sum(len(p.target_levels) for p in train_pairs)
    kernel = make_ref_kernel(**job["kernel"], tracer=tracer)
    start = time.perf_counter()
    while _keep_going(start, len(result["ops"]), 1, job):
        k = len(result["ops"])
        cfg = dataclasses.replace(run_cfg.train_cfg, seed=run_cfg.train_cfg.seed + k)
        op = {"error": None, "epoch_s": [], "kernel_s": []}
        # The kernel runs between epochs, from the log callback; its time is
        # kept out of the epoch and call times.
        clock = {"resume": 0.0, "kernel": kernel(), "paused": 0.0}

        def log(message, k=k, op=op, clock=clock):
            if not message.startswith("epoch"):
                return
            mark = time.perf_counter()
            kernel_s = kernel()
            op["epoch_s"].append(mark - clock["resume"])
            op["kernel_s"].append(0.5 * (clock["kernel"] + kernel_s))
            clock["kernel"] = kernel_s
            clock["resume"] = time.perf_counter()
            clock["paused"] += clock["resume"] - mark
            if tracer is not None:
                tracer.request = f"{k}:{len(op['epoch_s']) + 1}"

        if tracer is not None:
            tracer.request = f"{k}:1"
        began = clock["resume"] = time.perf_counter()
        try:
            trained = train_mod.train(cfg, train_pairs, valid_pairs, config_text=config.serialize_config(cfg), log=log)
        except Exception as exc:  # one failed operation must not end the run
            op["error"] = f"{type(exc).__name__}: {exc}"
        op["wall_s"] = time.perf_counter() - began - clock["paused"]
        if op["error"] is None:
            op["train_ce"] = [h.train_ce for h in trained.history]
            op["valid_ce"] = [h.valid_ce for h in trained.history]
            if tracer is not None:
                tracer.active = False
            op["round_trip"] = _checkpoint_round_trips(train_mod, trained.checkpoint, workdir / f"trained_{job['tag']}.ckpt")
            if tracer is not None:
                tracer.active = True
        result["ops"].append(op)
    return result


def run_job(job: dict) -> dict:
    t0 = time.perf_counter()
    importlib.import_module("bwex.cli")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        run = _run_train if job["kind"] == "train" else _run_extend
        result = run(job, t0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(Path(job["workdir"]) / f"spans_{job['tag']}.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = run_job(job)
    Path(job["result"]).write_text(json.dumps(result, allow_nan=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
