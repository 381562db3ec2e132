"""The CLI exit-code contract under random, short, empty and garbled
inputs: every run ends in 0, 1, 2 or 3, never in an uncaught exception."""

import io
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bwex.cli import main  # noqa: E402
from bwex.config import build_run_config  # noqa: E402
from bwex.models import build_model  # noqa: E402
from bwex.train import Checkpoint, save_checkpoint  # noqa: E402

CONTRACT = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpts")
    paths = {}
    for kind in ("hrnn", "chrnn", "srnn"):
        text = f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\n"
        model = build_model(build_run_config(text).model_cfg, rng=0)
        paths[kind] = root / f"{kind}.bweh"
        save_checkpoint(paths[kind], Checkpoint(config_text=text, params=model.params))
    return paths


def wav_bytes(samples, rate: int, n_channels: int = 1, sample_width: int = 2) -> bytes:
    buffer = io.BytesIO()
    with wave.open(buffer, "wb") as writer:
        writer.setnchannels(n_channels)
        writer.setsampwidth(sample_width)
        writer.setframerate(rate)
        pcm = (np.asarray(samples) * 32767).astype("<i2").tobytes()
        frame = n_channels * sample_width
        writer.writeframes(pcm[: len(pcm) // frame * frame])
    return buffer.getvalue()


@st.composite
def input_files(draw):
    """Valid WAVs of any length and a few rates, plus garbled variants."""
    n = draw(st.integers(0, 1200))
    rate = draw(st.sampled_from([8000, 16000, 11025]))
    amplitude = draw(st.floats(0.0, 1.0))
    samples = amplitude * np.sin(np.arange(n) * draw(st.floats(0.01, 3.0)))
    layout = draw(st.sampled_from([(1, 2), (1, 2), (1, 2), (2, 2), (1, 1)]))
    raw = wav_bytes(samples, rate, *layout)
    damage = draw(st.sampled_from(["none", "none", "truncate", "flip", "random"]))
    if damage == "truncate":
        raw = raw[: draw(st.integers(0, len(raw)))]
    elif damage == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    elif damage == "random":
        raw = draw(st.binary(max_size=200))
    return raw


@settings(max_examples=60, deadline=None)
@given(first=input_files(), second=input_files(), kind=st.sampled_from(["hrnn", "chrnn", "srnn"]))
def test_every_command_honours_the_exit_contract(checkpoints, first, second, kind):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ref").mkdir()
        (tmp / "deg").mkdir()
        (tmp / "ref" / "u.wav").write_bytes(first)
        (tmp / "deg" / "u.wav").write_bytes(second)
        wav = str(tmp / "ref" / "u.wav")
        extend = ["extend", "--model", str(checkpoints[kind]), "--in", wav, "--out", str(tmp / "o.wav")]
        runs = [
            extend,
            ["features", "--in", wav, "--out", str(tmp / "f.bwef")],
            extend + ["--features", str(tmp / "f.bwef")],
            ["eval", "--ref", str(tmp / "ref"), "--deg", str(tmp / "deg"), "--report", str(tmp / "r.csv")],
        ]
        for argv in runs:
            assert main(argv) in CONTRACT, argv
