"""Where the conditional tier's input comes from, and what the pipeline
writes around it, bit for bit.

The sha256 pins were taken before `data.condition_track` became the one
place that sources a condition track and before the HRNN tier cache
dropped its unread entries, with numpy 2.4 and its bundled OpenBLAS; another BLAS may round the products differently. All the
recordings here have an even number of samples, whose pairs did not
change when odd-length recordings started to lose their last sample.
"""

import hashlib

import numpy as np
import pytest

from bwex import nn
from bwex.cli import main
from bwex.config import build_run_config, serialize_config
from bwex.data import (
    MFCC_TRACK,
    DataError,
    build_pair,
    condition_track,
    load_manifest,
    load_pairs,
    narrowband_mfcc,
    save_features,
    save_wav,
)
from bwex.dsp import ConditionTrack, Waveform
from bwex.models import HrnnConfig, SrnnConfig, build_model
from bwex.train import Checkpoint, save_checkpoint


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def noisy(n: int, rate: int, seed: int = 0) -> Waveform:
    """A windowed two-tone signal plus white noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = 0.3 * np.sin(2 * np.pi * 440 * t + rng.uniform(0, 2 * np.pi)) + 0.1 * np.sin(2 * np.pi * 2900 * t)
    return Waveform(x * np.hanning(n) + 0.03 * rng.standard_normal(n), rate)


def random_track(n_frames: int, seed: int = 1) -> ConditionTrack:
    rng = np.random.default_rng(seed)
    return ConditionTrack(rng.standard_normal((n_frames, 39)), 160)


def write_checkpoint(path, text: str):
    model = build_model(build_run_config(text).model_cfg, rng=0)
    save_checkpoint(path, Checkpoint(config_text=text, params=model.params))
    return path


CHRNN = "model.kind = chrnn\nmodel.cond_source = {}\nmodel.hidden = 8\nmodel.embed_dim = 4\n"


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------

FEATURES_GOLDEN = {
    200: "fec7a262b088132a7fc48f1bcd309cc225ef965b9777baa081727df812ab8e98",
    1001: "0ea09e8e544e364bf931951b3af7c3c5080b441cfd60ab436644321cd2cdc9de",
    4000: "2f211d2e164726f4036e25e3fda12287068af745920755480535639878d2a1e5",
    8000: "d8a25b606b542327cc1fdb1bf8c608fcb14c8d98d77ffddb1f00b0fd268cbb52",
}


def features_bytes(tmp_path, n: int) -> bytes:
    save_wav(tmp_path / "nb.wav", noisy(n, 8000, seed=n))
    assert main(["features", "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "f.bwef")]) == 0
    return (tmp_path / "f.bwef").read_bytes()


@pytest.mark.parametrize("n", sorted(FEATURES_GOLDEN))
def test_features_output_is_pinned(tmp_path, n):
    assert sha256(features_bytes(tmp_path, n)) == FEATURES_GOLDEN[n]


PAIR_GOLDEN = {
    ("hf", 2): "14a9a1d56419714c0141b2fd276f6346a95937dd3881e973d03edc0f2e37d049",
    ("hf", 400): "d3065cfc9c1b13aafee17c75c67cf70320dfb405fdca443871de1bd716528280",
    ("hf", 3202): "2d53241bc51d0ffe2c7f2da0f82026d4d61295d1fe15cc4cd038832cd69a8034",
    ("hf", 16000): "765cb35f9c17ae17e65792049e50c8d845b2a050de003392c5c83fe37185f37a",
    ("wb", 1600): "2d07599e21590f169b110a3adce8b21d5ab76cfa3987f97b718463108ef5bd3b",
}


def pair_bytes(strategy: str, n: int) -> bytes:
    pair = build_pair(noisy(n, 16000, seed=n), strategy=strategy, utt_id="u")
    return b"".join(
        (
            pair.input_levels.levels.astype("<i4").tobytes(),
            pair.target_levels.levels.astype("<i4").tobytes(),
            pair.narrowband.samples.astype("<f8").tobytes(),
        )
    )


@pytest.mark.parametrize("strategy, n", sorted(PAIR_GOLDEN))
def test_even_length_pairs_are_pinned(strategy, n):
    assert sha256(pair_bytes(strategy, n)) == PAIR_GOLDEN[strategy, n]


EXTEND_GOLDEN = {
    ("mfcc", False): "ea36d0530ce0878583ae0a8de06687b76cc2f050f48ed9559be11deac9c83039",
    ("mfcc", True): "6834c6fa470e5b30185508fea1b8428adee917a2f27321c93449a28a6d9bb753",
    ("file", True): "6834c6fa470e5b30185508fea1b8428adee917a2f27321c93449a28a6d9bb753",
}


def extend_bytes(tmp_path, source: str, with_features: bool) -> bytes:
    ckpt = write_checkpoint(tmp_path / "m.bweh", CHRNN.format(source))
    save_wav(tmp_path / "nb.wav", noisy(4000, 8000))  # 0.5 s: 50 condition frames
    argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "o.wav")]
    if with_features:
        save_features(tmp_path / "f.bwef", random_track(50))
        argv += ["--features", str(tmp_path / "f.bwef")]
    assert main(argv) == 0
    return (tmp_path / "o.wav").read_bytes()


@pytest.mark.parametrize("source, with_features", sorted(EXTEND_GOLDEN))
def test_chrnn_extend_output_is_pinned(tmp_path, source, with_features):
    assert sha256(extend_bytes(tmp_path, source, with_features)) == EXTEND_GOLDEN[source, with_features]


TRAIN_GOLDEN = {
    "mfcc": "bf04609dd3de41f129561e42f0394351685bb85f3c535cc436fa52e2244db9bc",
    "file": "7e34acb8fb55bc5973f0ad10236746efa74e88909e3aa98f8b0fddaa5bd425df",
}


def train_bytes(tmp_path, monkeypatch, source: str) -> bytes:
    # Relative manifest paths keep the config text, which the checkpoint
    # embeds, the same in every directory.
    monkeypatch.chdir(tmp_path)
    lines = []
    for i, n in enumerate((3200, 2400)):
        save_wav(tmp_path / f"u{i}.wav", noisy(n, 16000, seed=i))
        line = f"u{i}\tu{i}.wav"
        if source == "file":
            save_features(tmp_path / f"u{i}.bwef", random_track(n // 160, seed=i))
            line += f"\tu{i}.bwef"
        lines.append(line + "\n")
    (tmp_path / "corpus.tsv").write_text("".join(lines))
    text = CHRNN.format(source) + (
        "train.batch_size = 1\ntrain.max_epochs = 2\ntrain.patience = 2\ntrain.seed = 3\n"
        "data.train_manifest = corpus.tsv\ndata.valid_manifest = corpus.tsv\n"
    )
    (tmp_path / "c.cfg").write_text(text)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test; `--threads` sets them
    assert main(["--threads", "1", "train", "--config", "c.cfg", "--out", "m.bweh"]) == 0
    return (tmp_path / "m.bweh").read_bytes()


@pytest.mark.parametrize("source", sorted(TRAIN_GOLDEN))
def test_chrnn_train_checkpoint_is_pinned(tmp_path, monkeypatch, source):
    assert sha256(train_bytes(tmp_path, monkeypatch, source)) == TRAIN_GOLDEN[source]


GRADS_GOLDEN = "ff7afb75d7b659a4f3d0c0ee227a1c638e46f933cca7b88144f3a180b641d2d5"


def grads_bytes() -> bytes:
    """Every gradient of a small conditional HRNN, in name order."""
    cfg = HrnnConfig(hidden=8, embed_dim=4, cond_frame_shift=32, cond_dim=3)
    model = build_model(cfg, rng=5)
    rng = np.random.default_rng(6)
    n_steps = 96
    levels = rng.integers(0, 256, (2, n_steps + cfg.lookahead))
    logits, cache, _ = model.forward(levels, rng.standard_normal((2, n_steps // 32, 3)))
    targets = rng.integers(0, 256, 2 * n_steps)
    _, dlogits = nn.softmax_ce(logits.reshape(-1, 256), targets, np.ones(2 * n_steps, dtype=bool))
    grads = model.backward(cache, dlogits.reshape(logits.shape))
    return b"".join(name.encode() + grads[name].tobytes() for name in sorted(grads))


def test_hrnn_gradients_are_pinned():
    assert sha256(grads_bytes()) == GRADS_GOLDEN


def test_tier_cache_keeps_the_frame_inputs_and_the_lstm_cache():
    cfg = HrnnConfig(hidden=8, embed_dim=4, cond_frame_shift=32, cond_dim=3)
    levels = np.full((1, 64 + cfg.lookahead), 128)
    _, cache, _ = build_model(cfg, rng=0).forward(levels, np.zeros((1, 2, 3)))
    for k in range(1, len(cfg.tiers)):
        assert cache["tiers"][k].keys() == {"x", "lstm"}


# ---------------------------------------------------------------------------
# The track a conditional tier reads
# ---------------------------------------------------------------------------

def chrnn_cfg(source: str | None) -> HrnnConfig:
    """A tiny chrnn on the MFCC track; a source of None takes the default."""
    return HrnnConfig(hidden=8, embed_dim=4, cond_source=source, **MFCC_TRACK)


@pytest.mark.parametrize("cfg", [HrnnConfig(hidden=8, embed_dim=4), SrnnConfig(hidden=8, embed_dim=4)])
def test_a_model_without_a_conditional_tier_reads_no_track(tmp_path, cfg):
    garbled = tmp_path / "f.bwef"
    garbled.write_bytes(b"not a feature file")
    assert condition_track(cfg, noisy(800, 8000), garbled, "u") is None
    assert condition_track(cfg, noisy(800, 8000), None, "u") is None


def test_a_feature_file_beats_mfcc(tmp_path):
    save_features(tmp_path / "f.bwef", random_track(7))
    for source in ("mfcc", "file", None):
        track = condition_track(chrnn_cfg(source), noisy(800, 8000), tmp_path / "f.bwef", "u")
        np.testing.assert_array_equal(track.frames, random_track(7).frames)


def test_mfcc_source_computes_the_narrowband_track():
    narrowband = noisy(800, 8000)
    track = condition_track(chrnn_cfg("mfcc"), narrowband, None, "u")
    np.testing.assert_array_equal(track.frames, narrowband_mfcc(narrowband).frames)


@pytest.mark.parametrize(
    "source, n, frames, match",
    [
        ("file", 800, None, "u: the conditional tier needs a feature file"),
        (None, 800, None, "u: the conditional tier needs a feature file"),
        ("mfcc", 199, None, "u: condition track has no frames"),
        ("mfcc", 800, np.zeros((4, 10)), "u: condition track has 10-dim frames"),
    ],
)
def test_a_track_the_tier_cannot_read_is_a_data_error(tmp_path, source, n, frames, match):
    path = None
    if frames is not None:
        path = tmp_path / "f.bwef"
        save_features(path, ConditionTrack(frames, 160))
    with pytest.raises(DataError, match=match):
        condition_track(chrnn_cfg(source), noisy(n, 8000), path, "u")


@pytest.mark.parametrize("kind", ["hrnn", "srnn"])
def test_unconditional_models_ignore_manifest_features(tmp_path, kind):
    save_wav(tmp_path / "u.wav", noisy(800, 16000))
    (tmp_path / "u.bwef").write_bytes(b"garbled")
    (tmp_path / "m.tsv").write_text("u\tu.wav\tu.bwef\n")
    cfg = build_run_config(f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\n").model_cfg
    (pair,) = load_pairs(load_manifest(tmp_path / "m.tsv"), cfg)
    assert pair.conditions is None


@pytest.mark.parametrize("kind, code", [("hrnn", 0), ("srnn", 0), ("chrnn", 2)])
def test_only_a_conditional_tier_needs_the_manifest_feature_file(tmp_path, capsys, kind, code):
    save_wav(tmp_path / "u.wav", noisy(800, 16000))
    (tmp_path / "m.tsv").write_text("u\tu.wav\tgone.bwef\n")
    (tmp_path / "c.cfg").write_text(
        f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\ntrain.max_epochs = 1\ntrain.patience = 1\n"
        f"data.train_manifest = {tmp_path / 'm.tsv'}\ndata.valid_manifest = {tmp_path / 'm.tsv'}\n"
    )
    assert main(["train", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "m.bweh")]) == code
    missing = f"data error: u: missing feature file {tmp_path / 'gone.bwef'}\n"
    assert capsys.readouterr().err == (missing if code else "")


@pytest.mark.parametrize("kind", ["hrnn", "srnn"])
def test_unconditional_extend_ignores_features(tmp_path, kind):
    ckpt = write_checkpoint(tmp_path / "m.bweh", f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\n")
    save_wav(tmp_path / "nb.wav", noisy(800, 8000))
    (tmp_path / "f.bwef").write_bytes(b"garbled")
    argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav")]
    assert main(argv + ["--out", str(tmp_path / "a.wav")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b.wav"), "--features", str(tmp_path / "f.bwef")]) == 0
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_a_serialized_file_fed_chrnn_on_the_mfcc_track_still_needs_its_feature_file(tmp_path, capsys):
    # Its features have the MFCC track's shape, so the text the serializer
    # writes must still say `file`: extend may not fall back to MFCCs.
    text = CHRNN.format("file") + "model.cond_dim = 39\nmodel.cond_frame_shift = 160\nmodel.cond_window_ms = 25\n"
    ckpt = write_checkpoint(tmp_path / "m.bweh", serialize_config(build_run_config(text).train_cfg))
    save_wav(tmp_path / "nb.wav", noisy(4000, 8000))
    argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "o.wav")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "needs a feature file" in err and err.count("\n") == 1
    assert not (tmp_path / "o.wav").exists()
    save_features(tmp_path / "f.bwef", random_track(50))
    assert main(argv + ["--features", str(tmp_path / "f.bwef")]) == 0


# ---------------------------------------------------------------------------
# Pair lengths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 301, 16001])
@pytest.mark.parametrize("strategy", ["hf", "wb"])
def test_an_odd_length_recording_loses_its_last_sample(n, strategy):
    wideband = noisy(n, 16000)
    pair = build_pair(wideband, strategy=strategy, utt_id="u")
    assert len(pair.input_levels) == len(pair.target_levels) == 2 * len(pair.narrowband) == n - 1
    trimmed = build_pair(Waveform(wideband.samples[:-1], 16000), strategy=strategy, utt_id="u")
    np.testing.assert_array_equal(pair.input_levels.levels, trimmed.input_levels.levels)
    np.testing.assert_array_equal(pair.target_levels.levels, trimmed.target_levels.levels)
    np.testing.assert_array_equal(pair.narrowband.samples, trimmed.narrowband.samples)


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_samples_is_a_data_error(n):
    with pytest.raises(DataError, match="^u7: .*at least 2"):
        build_pair(Waveform(np.zeros(n), 16000), utt_id="u7")
