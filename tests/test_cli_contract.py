"""The CLI exit-code contract under random, short, empty and garbled
inputs: every run ends in 0, 1, 2 or 3, never in an uncaught exception.
The three error classes behind those codes are declared once, in the
package root."""

import ast
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import bwex  # noqa: E402
from bwex.cli import main  # noqa: E402
from bwex.config import _CONVERTERS, build_run_config  # noqa: E402
from bwex.data import save_features  # noqa: E402
from bwex.dsp import ConditionTrack  # noqa: E402
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
def input_files(draw, lengths=st.integers(0, 1200), rates=(8000, 16000, 11025)):
    """Valid WAVs of the drawn lengths and rates, plus garbled variants."""
    n = draw(lengths)
    rate = draw(st.sampled_from(rates))
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


# Lengths 0 and 1, odd and even, and shorter than one MFCC window.
TRAIN_LENGTHS = st.sampled_from([0, 1, 2, 3, 301, 302]) | st.integers(4, 2400)


@st.composite
def clean_wideband(draw):
    n = draw(TRAIN_LENGTHS)
    return wav_bytes(0.5 * np.sin(np.arange(n) * draw(st.floats(0.01, 3.0))), 16000)


# A feature file: (n_frames, dim) of zeros at a 160-sample shift, where
# 39 dims fit a chrnn's default tier, or raw bytes.
FEATURE_FILES = st.tuples(st.integers(0, 8), st.sampled_from([39, 5])) | st.binary(max_size=64)


@settings(max_examples=100, deadline=None)
@given(
    utterances=st.lists(
        st.tuples(
            clean_wideband() | clean_wideband() | input_files(TRAIN_LENGTHS, rates=(16000, 8000)),
            st.none() | FEATURE_FILES,
        ),
        min_size=1,
        max_size=3,
    ),
    kind=st.sampled_from(["hrnn", "srnn", "chrnn mfcc", "chrnn file"]),
)
def test_train_honours_the_exit_contract(utterances, kind):
    kind, _, source = kind.partition(" ")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = []
        for i, (wav, features) in enumerate(utterances):
            (tmp / f"u{i}.wav").write_bytes(wav)
            line = f"u{i}\t{tmp / f'u{i}.wav'}"
            if features is not None:
                path = tmp / f"u{i}.bwef"
                if isinstance(features, bytes):
                    path.write_bytes(features)
                else:
                    save_features(path, ConditionTrack(np.zeros(features), 160))
                line += f"\t{path}"
            lines.append(line + "\n")
        (tmp / "corpus.tsv").write_text("".join(lines))
        text = f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\n"
        if source:
            text += f"model.cond_source = {source}\n"
        text += "train.max_epochs = 1\ntrain.patience = 1\ntrain.batch_size = 2\n"
        text += f"data.train_manifest = {tmp / 'corpus.tsv'}\ndata.valid_manifest = {tmp / 'corpus.tsv'}\n"
        (tmp / "c.cfg").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(tmp / "c.cfg"), "--out", str(tmp / "m.bweh")])
        assert code in CONTRACT
        assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1


# Config values by converter: small ints, ints up to 10^400 (too long for
# a float), the bounds of u32, int64 and uint64, comma lists of those,
# non-finite floats, the enum words, and junk.
CONFIG_INTS = (
    st.integers(-2, 20) | st.integers(0, 10**400) | st.sampled_from([2**32 - 1, 2**32, 2**63, 2**64, 10**400])
)
CONFIG_VALUES = {
    "int": CONFIG_INTS.map(str),
    "_ints": st.lists(CONFIG_INTS, min_size=1, max_size=4).map(lambda ints: ",".join(map(str, ints))),
    "float": st.sampled_from(["inf", "-inf", "nan", "1e400", "0.5", "2"]),
    "str": st.sampled_from(["srnn", "hrnn", "chrnn", "wb", "hf", "mfcc", "file"]),
    "Path": st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8),
}
# A line holds a value for its key's converter, or any value.
CONFIG_LINES = st.sampled_from(
    [(f"{section}.{key}", convert.__name__) for section, keys in _CONVERTERS.items() for key, convert in keys.items()]
).flatmap(lambda line: st.tuples(st.just(line[0]), CONFIG_VALUES[line[1]] | st.one_of(*CONFIG_VALUES.values())))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=8, unique_by=lambda line: line[0]))
@example(lines=[("model.frame_sizes", f"{10**400},4")])
@example(lines=[("model.concat", f"2,2,{10**400}")])
def test_latency_honours_the_exit_contract_on_any_config_text(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["latency", "--config", str(path)])
    assert code in (0, 1)
    assert err.getvalue().count("\n") <= 1


def test_the_package_root_declares_the_exit_classes():
    """The only exception classes are the root's three, one per exit code,
    and `models.FieldError`, which a config reader turns into ConfigError."""
    declared = set()
    for path in sorted(Path(bwex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases
            ):
                declared.add(f"{path.stem}.{node.name}")
    assert declared == {"__init__.ConfigError", "__init__.DataError", "__init__.NumericError", "models.FieldError"}


def test_the_exit_classes_import_without_numpy():
    script = "import sys\nfrom bwex import ConfigError, DataError, NumericError\nassert 'numpy' not in sys.modules\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
