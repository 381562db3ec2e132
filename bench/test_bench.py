"""The benchmark's own tests: tiny-scale smoke runs of every workload, a
negative test for the reference gate, and the bare-checkout failure.

Run from the repository root: python3 -m pytest bench -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> dict:
    """The workload at a scale that runs in seconds."""
    spec = dict(workloads.WORKLOADS[name], kernel_steps=10)
    spec["model"] = dict(spec["model"], hidden=8, embed_dim=4)
    if spec["kind"] == "extend":
        spec.update(lengths_s=[0.1, 0.05], warmup_s=0.02)
    else:
        spec.update(train_lengths_s=[0.06, 0.05, 0.04, 0.03], valid_lengths_s=[0.05], epochs=3)
    return spec


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path):
    lines, outcome = run.run_workload(name, tiny(name), seed=3, seconds=0.0, trace=trace, workdir=tmp_path)
    assert outcome["correct"], lines
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in outcome["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in outcome["metrics"].values())
    if not trace:
        for metric, unit in declared.items():
            assert any(line.split()[:1] == [metric] and f" {unit} " in line and " n=" in line for line in lines), metric


def test_perturbed_levels_trip_the_reference_gate(tmp_path, monkeypatch):
    spec = tiny("extend_desk_long")
    inputs = workloads.make_inputs(spec, 5, tmp_path)
    models = importlib.import_module("bwex.models")
    generate = models.generate

    def perturbed(model, x, conditions=None):
        out = generate(model, x, conditions)
        return type(out)((out.levels + 7) % 256, out.sample_rate_hz)

    monkeypatch.setattr(models, "generate", perturbed)
    result = worker.run_job(run.make_job(spec, inputs, tmp_path, "perturbed", seconds=0.0))
    monkeypatch.undo()
    refs = run.reference_pcm(inputs, [op["utt"] for op in result["ops"]], tmp_path)
    matched, compared = run.check_extend(result["ops"], inputs, refs)
    assert 100.0 * matched / compared < run.MATCH_GATE_PCT
    assert result["ops"] and all(op["problems"] for op in result["ops"])  # failed_pct is 100


def test_zero_calls_fail_the_traced_run():
    from tracer import LAYER_NAMES

    silent = {name: {"calls": 0} for name in LAYER_NAMES}
    assert len(run.check_layers("train", silent)) == len(run.MUST_CALL["train"])
    busy = {name: {"calls": 1} for name in LAYER_NAMES}
    assert run.check_layers("extend", busy) == [f"{n}: called on an extend workload" for n in run.TRAINING_ONLY]


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "extend_paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
