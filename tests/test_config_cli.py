"""Config-text parsing/serialization and the command-line contract
(subcommands, exit codes, deterministic outputs)."""

import csv
import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwex
import bwex.train
from bwex import dsp
from bwex.cli import main
from bwex.config import ConfigError, build_run_config, parse_config_text, serialize_config
from bwex.data import load_features, load_wav, narrowband_mfcc, save_features, save_wav
from bwex.dsp import Waveform
from bwex.models import FieldError, HrnnConfig, SrnnConfig, max_latency_ms
from bwex.train import TrainConfig


TOY_CONFIG = """\
# toy system
model.kind = hrnn
model.frame_sizes = 16,4
model.concat = 2,2,4
model.hidden = 8
model.embed_dim = 4
model.strategy = wb
train.lr = 0.003
train.batch_size = 1
train.max_epochs = 2
train.patience = 2
train.seed = 3
"""


def assert_round_trips(text: str):
    """The text's config survives serialize -> parse; equality covers the
    condition source, a field of the model config."""
    train_cfg = build_run_config(text).train_cfg
    assert build_run_config(serialize_config(train_cfg)).train_cfg == train_cfg


def synth_narrowband(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 8000.0
    x = 0.4 * np.sin(2 * np.pi * 440 * t + rng.uniform(0, 2 * np.pi))
    return Waveform(x * np.hanning(n), 8000)


def synth_wideband(n=2000, seed=0):
    t = np.arange(n) / 16000.0
    x = 0.4 * np.sin(2 * np.pi * 500 * t) + 0.1 * np.sin(2 * np.pi * 5500 * t)
    return Waveform(x * np.hanning(n), 16000)


class TestConfigText:
    def test_parse_happy_path(self):
        values = parse_config_text(TOY_CONFIG)
        assert values[("model", "hidden")] == "8"
        assert values[("train", "seed")] == "3"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model.nonsense"):
            parse_config_text("model.nonsense = 1")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("bogus.key = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key model.hidden"):
            parse_config_text("model.hidden = 8\nmodel.hidden = 9")

    def test_a_hash_inside_a_value_is_not_a_comment(self):
        train_cfg = TrainConfig(model=HrnnConfig.build(hidden=8, embed_dim=4))
        train, valid = Path("/data/run#3/train.tsv"), Path("/data/run#3/valid#b.tsv")
        back = build_run_config(serialize_config(train_cfg, train, valid))
        assert (back.train_manifest, back.valid_manifest) == (train, valid)
        assert back.train_cfg == train_cfg

    def test_a_hash_at_line_start_or_after_whitespace_starts_a_comment(self):
        text = "# header\n  # indented\nmodel.hidden = 8 # space\nmodel.embed_dim = 4\t# tab\nmodel.strategy = wb#x\n"
        assert parse_config_text(text) == {
            ("model", "hidden"): "8", ("model", "embed_dim"): "4", ("model", "strategy"): "wb#x"
        }

    def test_meta_lines_are_refused(self):
        # Only a checkpoint carries metadata, and `load_checkpoint` splits
        # its `meta.*` lines off before any config text is parsed.
        with pytest.raises(ConfigError, match=r"^line 2: unknown section 'meta'$"):
            parse_config_text("model.hidden = 8\nmeta.epoch = 3")

    def test_build_defaults_reference_system(self):
        cfg = build_run_config("model.kind = hrnn")
        assert isinstance(cfg.model_cfg, HrnnConfig)
        assert [t.frame_size for t in cfg.model_cfg.tiers] == [1, 4, 16]
        assert cfg.train_cfg.lr == 0.001
        assert cfg.train_cfg.batch_size == 8

    @pytest.mark.parametrize("kind", ["srnn", "hrnn", "chrnn"])
    def test_unset_keys_take_the_dataclass_defaults(self, kind):
        cfg = build_run_config(f"model.kind = {kind}")
        expected = {
            "srnn": SrnnConfig(),
            "hrnn": HrnnConfig.build(),
            "chrnn": HrnnConfig.build(cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0, cond_source="mfcc"),
        }[kind]
        assert cfg.model_cfg == expected
        assert cfg.train_cfg == TrainConfig(model=cfg.model_cfg)
        assert_round_trips(f"model.kind = {kind}")

    def test_build_srnn(self):
        cfg = build_run_config("model.kind = srnn\nmodel.hidden = 16\nmodel.embed_dim = 8")
        assert isinstance(cfg.model_cfg, SrnnConfig)
        with pytest.raises(ConfigError, match="srnn"):
            build_run_config("model.kind = srnn\nmodel.frame_sizes = 16,4")

    def test_build_chrnn_defaults(self):
        cfg = build_run_config("model.kind = chrnn\nmodel.hidden = 8\nmodel.embed_dim = 4")
        assert cfg.model_cfg.conditional
        assert cfg.model_cfg.cond_dim == 39
        assert cfg.model_cfg.tiers[-1].frame_size == 160
        assert cfg.model_cfg.cond_window_ms == 25.0
        assert cfg.model_cfg.cond_source == "mfcc"
        assert_round_trips("model.kind = chrnn\nmodel.hidden = 8\nmodel.embed_dim = 4")

    def test_cond_keys_require_chrnn(self):
        with pytest.raises(ConfigError, match="chrnn"):
            build_run_config("model.kind = hrnn\nmodel.cond_dim = 10")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="train.lr"):
            build_run_config("train.lr = fast")

    def test_serialize_roundtrip(self):
        train_cfg = non_default_train_config(HrnnConfig.build(hidden=8, embed_dim=4, strategy="wb", hf_gain=2.0))
        text = serialize_config(train_cfg)
        back = build_run_config(text)
        assert back.model_cfg == train_cfg.model
        assert back.train_cfg == train_cfg

    def test_serialize_roundtrip_conditional(self):
        model = HrnnConfig.build(
            hidden=8, embed_dim=4, cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0, cond_source="mfcc"
        )
        train_cfg = non_default_train_config(model)
        back = build_run_config(serialize_config(train_cfg))
        assert back.model_cfg == model
        assert back.train_cfg == train_cfg
        assert back.model_cfg.cond_source == "mfcc"
        # The same track fed from files is another model.
        assert back.train_cfg != non_default_train_config(dataclasses.replace(model, cond_source="file"))

    @pytest.mark.parametrize(
        "line, message",
        [("model.cond_dim = 10", "model.cond_dim must be 39 with model.cond_source = mfcc, got 10"),
         ("model.cond_frame_shift = 320", "model.cond_frame_shift must be 160 with model.cond_source = mfcc, got 320"),
         ("model.cond_window_ms = 5", "model.cond_window_ms must be 25.0 with model.cond_source = mfcc, got 5.0")],
        ids=["dim", "shift", "window"],
    )
    def test_mfcc_conditions_fix_dim_and_shift(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"model.kind = chrnn\n{line}\n")
        assert main(["latency", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        cfg.write_text(f"model.kind = chrnn\nmodel.cond_source = file\n{line}\n")
        assert main(["latency", "--config", str(cfg)]) == 0
        assert_round_trips(cfg.read_text())

    @pytest.mark.parametrize("kind, latency", [("hrnn", "1.9375 ms"), ("srnn", "0 ms")])
    def test_unconditional_models_ignore_a_cond_window(self, tmp_path, capsys, kind, latency):
        # Accepted, so that checkpoints whose config text sets it still load.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"model.kind = {kind}\nmodel.cond_window_ms = 5\n")
        assert main(["latency", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == f"{latency}\n"

    @pytest.mark.parametrize(
        "cond, source",
        [({"cond_dim": 10, "cond_frame_shift": 160, "cond_window_ms": 25.0}, "file"),
         ({"cond_dim": 39, "cond_frame_shift": 320, "cond_window_ms": 25.0}, "file"),
         ({"cond_dim": 39, "cond_frame_shift": 160}, "file"),
         ({"cond_dim": 39, "cond_frame_shift": 160, "cond_window_ms": 25.0}, "mfcc"),
         ({"cond_dim": 39, "cond_frame_shift": 160, "cond_window_ms": 25.0}, "file")],
        ids=["dim", "shift", "no-window", "mfcc-track", "mfcc-track-from-files"],
    )
    def test_serialize_without_source_writes_the_one_that_parses_back(self, cond, source):
        # The serializer writes the model's own source, whatever the
        # track's shape.
        model = HrnnConfig(hidden=8, embed_dim=4, cond_source=source, **cond)
        back = build_run_config(serialize_config(TrainConfig(model=model)))
        assert back.model_cfg.tiers == model.tiers
        assert back.model_cfg == model
        assert back.model_cfg.cond_source == source

    def test_an_mfcc_config_built_in_code_off_the_track_is_rejected(self):
        # So serialize_config cannot write mfcc text that the parser rejects.
        with pytest.raises(FieldError) as caught:
            HrnnConfig(cond_frame_shift=160, cond_dim=10, cond_source="mfcc")
        assert caught.value.field == "cond_dim"

    def test_an_mfcc_config_built_in_code_takes_the_track_window(self):
        model = HrnnConfig(cond_frame_shift=160, cond_dim=39, cond_source="mfcc")
        assert model.cond_window_ms == 25.0
        assert max_latency_ms(model, 16000) == 25.0
        back = build_run_config(serialize_config(TrainConfig(model=model))).model_cfg
        assert back == model
        assert max_latency_ms(back, 16000) == 25.0

    def test_mfcc_default_is_the_track_narrowband_mfcc_makes(self):
        model = build_run_config("model.kind = chrnn").model_cfg
        track = narrowband_mfcc(synth_narrowband(800))
        assert (track.dim, track.frame_shift_samples) == (model.cond_dim, model.cond_frame_shift)
        assert model.cond_window_ms == dsp.MFCC_WINDOW_MS  # the window narrowband_mfcc reads
        assert (model.cond_dim, model.cond_frame_shift, model.cond_window_ms) == (39, 160, 25.0)


# Config text as the serializer wrote it before `HrnnConfig` stored frame
# sizes and concat, for each benchmark workload's model and for the chrnn
# default, with the tier stack (frame_size, n_concat, kind) bottom up that
# each must still parse to.
_REFERENCE_STACK = ((1, 4, "sample"), (4, 2, "intermediate"), (16, 2, "top"))
_TRAIN_LINES = "train.lr = 0.001\ntrain.batch_size = {}\ntrain.max_epochs = {}\ntrain.patience = {}\ntrain.seed = 0\n" \
    "train.clip_norm = 5.0\ntrain.chunk_len = 480\n"
GOLDEN_CONFIGS = {
    "extend_paper": (
        "model.kind = hrnn\nmodel.frame_sizes = 16,4\nmodel.concat = 2,2,4\nmodel.hidden = 1024\n"
        "model.embed_dim = 256\nmodel.strategy = hf\nmodel.hf_gain = 4.0\n" + _TRAIN_LINES.format(8, 1, 1),
        _REFERENCE_STACK,
    ),
    "extend_desk_long": (
        "model.kind = hrnn\nmodel.frame_sizes = 16,4\nmodel.concat = 2,2,4\nmodel.hidden = 32\n"
        "model.embed_dim = 16\nmodel.strategy = hf\nmodel.hf_gain = 4.0\n" + _TRAIN_LINES.format(8, 1, 1),
        _REFERENCE_STACK,
    ),
    "train_mid": (
        "model.kind = hrnn\nmodel.frame_sizes = 16,4\nmodel.concat = 2,2,4\nmodel.hidden = 256\n"
        "model.embed_dim = 64\nmodel.strategy = hf\nmodel.hf_gain = 4.0\n" + _TRAIN_LINES.format(4, 6, 6),
        _REFERENCE_STACK,
    ),
    "chrnn_default": (
        "model.kind = chrnn\nmodel.frame_sizes = 16,4\nmodel.concat = 2,2,4\nmodel.cond_source = mfcc\n"
        "model.cond_dim = 39\nmodel.cond_frame_shift = 160\nmodel.cond_window_ms = 25.0\nmodel.hidden = 1024\n"
        "model.embed_dim = 256\nmodel.strategy = hf\nmodel.hf_gain = 4.0\n" + _TRAIN_LINES.format(8, 50, 5),
        ((1, 4, "sample"), (4, 2, "intermediate"), (16, 2, "intermediate"), (160, 1, "conditional")),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_config_text_parses_to_its_tier_stack_and_back(name):
    text, stack = GOLDEN_CONFIGS[name]
    run_cfg = build_run_config(text)
    assert run_cfg.model_cfg.tiers == stack
    assert serialize_config(run_cfg.train_cfg) == text


def non_default_train_config(model):
    """A TrainConfig whose every field differs from its default."""
    cfg = TrainConfig(
        model=model, lr=0.003, batch_size=2, max_epochs=4, patience=3, seed=9, clip_norm=2.5, chunk_len=160
    )
    for field in dataclasses.fields(TrainConfig):
        assert getattr(cfg, field.name) != field.default, field.name
    return cfg


@pytest.fixture()
def toy_corpus(tmp_path):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    for i in range(2):
        save_wav(wav_dir / f"u{i}.wav", synth_wideband(seed=i))
    manifest = tmp_path / "corpus.tsv"
    manifest.write_text("u0\twavs/u0.wav\nu1\twavs/u1.wav\n")
    config = tmp_path / "toy.cfg"
    config.write_text(
        TOY_CONFIG + f"data.train_manifest = {manifest}\ndata.valid_manifest = {manifest}\n"
    )
    return tmp_path, config, manifest


class TestCliTrain:
    def test_toy_train_writes_loadable_checkpoint(self, toy_corpus, capsys):
        tmp_path, config, _ = toy_corpus
        ckpt_path = tmp_path / "toy.bweh"
        assert main(["train", "--config", str(config), "--out", str(ckpt_path)]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out and "valid_acc" in out
        from bwex.config import model_from_checkpoint
        from bwex.train import load_checkpoint

        ckpt = load_checkpoint(ckpt_path)
        model, run_cfg = model_from_checkpoint(ckpt)
        assert run_cfg.train_cfg.seed == 3
        assert "epoch" in ckpt.metadata

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(TOY_CONFIG + "data.train_manifest = nope.tsv\ndata.valid_manifest = nope.tsv\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "x.bweh")]) == 2

    def test_empty_manifest_is_a_data_error(self, toy_corpus, capsys):
        tmp_path, config, manifest = toy_corpus
        manifest.write_text("# no utterances yet\n")
        out = tmp_path / "x.bweh"
        err = assert_data_error(capsys, ["train", "--config", str(config), "--out", str(out)])
        assert err == f"data error: {manifest}: no utterances\n"
        assert not out.exists()

    def test_missing_out_directory_is_a_data_error_before_training(self, toy_corpus, capsys, monkeypatch):
        tmp_path, config, _ = toy_corpus

        def no_training(*args, **kwargs):
            raise AssertionError("train() ran")

        monkeypatch.setattr(bwex.train, "train", no_training)
        out = tmp_path / "missing" / "m.bweh"
        err = assert_data_error(capsys, ["train", "--config", str(config), "--out", str(out)])
        assert err == f"data error: --out {out}: no directory {out.parent}\n"
        assert not out.parent.exists()

    def test_a_directory_out_is_a_data_error_before_training(self, toy_corpus, capsys, monkeypatch):
        tmp_path, config, _ = toy_corpus

        def no_training(*args, **kwargs):
            raise AssertionError("train() ran")

        monkeypatch.setattr(bwex.train, "train", no_training)
        err = assert_data_error(capsys, ["train", "--config", str(config), "--out", str(tmp_path)])
        assert err == f"data error: --out {tmp_path}: is a directory\n"

    @pytest.mark.parametrize("command", ["train", "latency"])
    def test_a_meta_line_exits_1_before_any_work(self, toy_corpus, capsys, command):
        tmp_path, config, _ = toy_corpus
        text = config.read_text() + "meta.note = hello\n"
        config.write_text(text)
        out = tmp_path / "x.bweh"
        argv = ["train", "--config", str(config), "--out", str(out)] if command == "train" else ["latency", "--config", str(config)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: line {len(text.splitlines())}: unknown section 'meta'\n"
        assert "epoch" not in captured.out
        assert not out.exists()

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "dup.cfg"
        config.write_text("model.hidden = 8\nmodel.hidden = 9\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "x.bweh")]) == 1
        assert "model.hidden" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            "model.hidden = -1",
            "model.hidden = 0",
            "model.embed_dim = 0",
            "model.strategy = hf\nmodel.hf_gain = 0.5",
            "model.kind = chrnn\nmodel.cond_dim = 0",
            "model.kind = chrnn\nmodel.cond_frame_shift = 0",
            f"model.hidden = {10**20}",
            f"model.embed_dim = {10**20}",
            f"model.frame_sizes = {10**20},4",
            f"model.concat = 2,2,{10**20}",
        ],
    )
    def test_bad_model_size_exits_1(self, toy_corpus, capsys, lines):
        tmp_path, config, _ = toy_corpus
        text = config.read_text()
        for line in lines.splitlines():
            key = line.split("=")[0].strip()
            kept = [old for old in text.splitlines() if old.split("=")[0].strip() != key]
            text = "\n".join(kept + [line]) + "\n"
        config.write_text(text)
        out = tmp_path / "x.bweh"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()


class TestCliExtendAndEval:
    @pytest.fixture()
    def trained(self, toy_corpus):
        tmp_path, config, manifest = toy_corpus
        ckpt = tmp_path / "m.bweh"
        assert main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
        return tmp_path, ckpt

    def test_extend_duration_and_determinism(self, trained):
        tmp_path, ckpt = trained
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, synth_narrowband(1000))
        out_a = tmp_path / "a.wav"
        out_b = tmp_path / "b.wav"
        assert main(["extend", "--model", str(ckpt), "--in", str(nb_path), "--out", str(out_a)]) == 0
        assert main(["extend", "--model", str(ckpt), "--in", str(nb_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        wideband = load_wav(out_a)
        assert wideband.sample_rate_hz == 16000
        assert len(wideband) == 2000

    def test_extend_low_band_matches_input(self, trained):
        tmp_path, ckpt = trained
        nb_path = tmp_path / "nb.wav"
        nb = synth_narrowband(2000)
        save_wav(nb_path, nb)
        out = tmp_path / "wb.wav"
        assert main(["extend", "--model", str(ckpt), "--in", str(nb_path), "--out", str(out)]) == 0
        wideband = load_wav(out)
        base = dsp.upsample2(load_wav(nb_path))
        diff = Waveform(wideband.samples - base.samples, 16000)
        spec_d = dsp.stft(diff, 512, 256)
        spec_b = dsp.stft(base, 512, 256)
        freqs = np.fft.rfftfreq(512, 1 / 16000)
        ratio = np.sum(np.abs(spec_d[:, freqs < 3500]) ** 2) / np.sum(
            np.abs(spec_b[:, freqs < 3500]) ** 2
        )
        assert 10 * np.log10(ratio + 1e-300) <= -35.0

    def test_extend_wrong_rate_exits_2(self, trained):
        tmp_path, ckpt = trained
        bad = tmp_path / "wb_in.wav"
        save_wav(bad, synth_wideband(500))
        assert main(["extend", "--model", str(ckpt), "--in", str(bad), "--out", str(tmp_path / "o.wav")]) == 2

    def test_eval_identical_dirs(self, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for i in range(2):
            save_wav(ref_dir / f"u{i}.wav", synth_wideband(9000, seed=i))
        report = tmp_path / "report.csv"
        assert main(["eval", "--ref", str(ref_dir), "--deg", str(ref_dir), "--report", str(report)]) == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "id,acc,snr,snr_v,snr_u,lsd,lsd_v,lsd_u"
        assert len(lines) == 4  # header + 2 utterances + mean
        first = lines[1].split(",")
        assert float(first[1]) == 100.0  # accuracy
        assert float(first[2]) == 120.0  # snr capped
        assert float(first[5]) == 0.0  # lsd

    def test_eval_quotes_an_id_holding_a_comma(self, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for name in ("a,b", "c"):
            save_wav(ref_dir / f"{name}.wav", synth_wideband(9000))
        report = tmp_path / "r.csv"
        assert main(["eval", "--ref", str(ref_dir), "--deg", str(ref_dir), "--report", str(report)]) == 0
        with open(report, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [8, 8, 8, 8]
        assert [row[0] for row in rows] == ["id", "a,b", "c", "mean"]

    def test_eval_utterance_id_mean_is_a_data_error(self, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for name in ("mean", "u"):
            save_wav(ref_dir / f"{name}.wav", synth_wideband(9000))
        report = tmp_path / "r.csv"
        err = assert_data_error(capsys, ["eval", "--ref", str(ref_dir), "--deg", str(ref_dir), "--report", str(report)])
        assert "'mean' is reserved" in err
        assert not report.exists()

    def test_eval_id_mismatch_listed(self, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        deg_dir = tmp_path / "deg"
        ref_dir.mkdir()
        deg_dir.mkdir()
        save_wav(ref_dir / "a.wav", synth_wideband(8192))
        save_wav(deg_dir / "b.wav", synth_wideband(8192))
        report = tmp_path / "r.csv"
        assert main(["eval", "--ref", str(ref_dir), "--deg", str(deg_dir), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert "a" in err and "b" in err


def tiny_checkpoint(path, kind="hrnn", hidden=8, embed_dim=4):
    """A random-init checkpoint for a tiny model of the given kind."""
    from bwex.models import build_model
    from bwex.train import Checkpoint, save_checkpoint

    text = f"model.kind = {kind}\nmodel.hidden = {hidden}\nmodel.embed_dim = {embed_dim}\n"
    model = build_model(build_run_config(text).model_cfg, rng=0)
    save_checkpoint(path, Checkpoint(config_text=text, params=model.params))
    return path


def noisy_narrowband(n=4000, seed=0):
    """A tone with white noise: non-dyadic samples, as real input has."""
    nb = synth_narrowband(n, seed)
    noise = 0.05 * np.random.default_rng(seed).standard_normal(n)
    return Waveform(nb.samples + noise, nb.sample_rate_hz)


class TestCliExtendOutput:
    """What `bwex extend` writes, bit for bit."""

    def test_extend_upsamples_once_and_writes_the_former_bytes(self, tmp_path, monkeypatch):
        from bwex.config import model_from_checkpoint
        from bwex.metrics import reconstruct_wideband
        from bwex.models import generate
        from bwex.train import load_checkpoint

        ckpt = tiny_checkpoint(tmp_path / "m.bweh")
        nb_path, out = tmp_path / "nb.wav", tmp_path / "out.wav"
        save_wav(nb_path, noisy_narrowband(3000))
        upsample2 = dsp.upsample2
        calls = []
        monkeypatch.setattr(dsp, "upsample2", lambda w: calls.append(len(w)) or upsample2(w))
        assert main(["extend", "--model", str(ckpt), "--in", str(nb_path), "--out", str(out)]) == 0
        assert calls == [3000]
        monkeypatch.undo()
        # The former path: reconstruct_wideband upsamples the input again.
        model, run_cfg = model_from_checkpoint(load_checkpoint(ckpt))
        narrowband = load_wav(nb_path)
        generated = generate(model, dsp.mulaw_encode(dsp.upsample2(narrowband)))
        cfg = run_cfg.model_cfg
        save_wav(tmp_path / "want.wav", reconstruct_wideband(narrowband, generated, cfg.strategy, cfg.hf_gain))
        assert out.read_bytes() == (tmp_path / "want.wav").read_bytes()

    # sha256 of the generated levels (int32) and of the written WAV, taken
    # before the LSTM step kept its gates gate-major, when it summed into a
    # [B, 4H] buffer through np.dot. Measured with numpy 2.4 and its bundled
    # OpenBLAS; another BLAS may round the products differently.
    GOLDEN = {
        32: (
            "f258b37247293670bfaa79086e0b0d7d942c85bf94b00e0fa59db0eb62b7ceaa",
            "1c336a7658d9b61011fa5260c634eafe17ac4c99b7b961bfa33e8af7dd997991",
        ),
        256: (
            "0be4b1fbeb0b50a2170060efa0052e2a2a1911109a5351e4022baacfd8ec6814",
            "8bcfd34b813d45ec1402a45eb8a1bd41b7237e9cf56c10acc1bdc593f48961d4",
        ),
    }

    @pytest.mark.parametrize("hidden, embed_dim", [(32, 16), (256, 64)])
    def test_extend_output_is_pinned(self, tmp_path, hidden, embed_dim):
        import hashlib

        from bwex.config import model_from_checkpoint
        from bwex.models import generate
        from bwex.train import load_checkpoint

        ckpt = tiny_checkpoint(tmp_path / "m.bweh", hidden=hidden, embed_dim=embed_dim)
        nb_path, out = tmp_path / "nb.wav", tmp_path / "out.wav"
        save_wav(nb_path, noisy_narrowband(4000, seed=hidden))  # 0.5 s: four generate chunks
        assert main(["extend", "--model", str(ckpt), "--in", str(nb_path), "--out", str(out)]) == 0
        model, _ = model_from_checkpoint(load_checkpoint(ckpt))
        levels = generate(model, dsp.mulaw_encode(dsp.upsample2(load_wav(nb_path)))).levels
        got = (
            hashlib.sha256(levels.astype("<i4").tobytes()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(),
        )
        assert got == self.GOLDEN[hidden]


def assert_data_error(capsys, argv):
    """Exit 2 with a one-line `data error:` message, which it returns, and
    no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestCliDataErrors:
    def test_extend_empty_wav(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.bweh")
        save_wav(tmp_path / "empty.wav", Waveform(np.zeros(0), 8000))
        out = tmp_path / "o.wav"
        assert_data_error(capsys, ["extend", "--model", str(ckpt), "--in", str(tmp_path / "empty.wav"), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("wav", ["empty", "16 kHz"])
    @pytest.mark.parametrize("command", ["extend", "features"])
    def test_extend_and_features_read_narrowband_by_one_rule(self, tmp_path, capsys, command, wav):
        path = tmp_path / "in.wav"
        save_wav(path, Waveform(np.zeros(0), 8000) if wav == "empty" else synth_wideband(1000))
        out = tmp_path / "o"
        if command == "extend":
            argv = ["extend", "--model", str(tiny_checkpoint(tmp_path / "m.bweh")), "--in", str(path), "--out", str(out)]
        else:
            argv = ["features", "--in", str(path), "--out", str(out)]
        reason = "no samples" if wav == "empty" else "expected 8000 Hz narrowband input, got 16000"
        assert assert_data_error(capsys, argv) == f"data error: {path}: {reason}\n"
        assert not out.exists()

    def test_extend_conditional_input_shorter_than_one_window(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.bweh", kind="chrnn")
        save_wav(tmp_path / "short.wav", synth_narrowband(100))
        argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "short.wav"), "--out", str(tmp_path / "o.wav")]
        assert_data_error(capsys, argv)

    @pytest.mark.parametrize("dim, shift", [(10, 160), (39, 320)], ids=["dim", "shift"])
    def test_extend_features_must_fit_the_conditional_tier(self, tmp_path, capsys, dim, shift):
        ckpt = tiny_checkpoint(tmp_path / "m.bweh", kind="chrnn")  # 39-dim frames at 160
        save_wav(tmp_path / "nb.wav", synth_narrowband(4000))
        save_features(tmp_path / "f.bwef", dsp.ConditionTrack(np.zeros((60, dim)), shift))
        out = tmp_path / "o.wav"
        argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav"), "--out", str(out)]
        assert_data_error(capsys, argv + ["--features", str(tmp_path / "f.bwef")])
        assert not out.exists()

    @pytest.mark.parametrize("n_ref, n_deg", [(3000, 4000), (300, 300)])
    def test_eval_length_mismatch_or_shorter_than_one_frame(self, tmp_path, capsys, n_ref, n_deg):
        ref_dir, deg_dir = tmp_path / "ref", tmp_path / "deg"
        ref_dir.mkdir()
        deg_dir.mkdir()
        save_wav(ref_dir / "a.wav", synth_wideband(n_ref))
        save_wav(deg_dir / "a.wav", synth_wideband(n_deg))
        report = tmp_path / "r.csv"
        assert_data_error(capsys, ["eval", "--ref", str(ref_dir), "--deg", str(deg_dir), "--report", str(report)])
        assert not report.exists()

    def test_features_shorter_than_one_frame(self, tmp_path, capsys):
        save_wav(tmp_path / "short.wav", synth_narrowband(100))  # 12.5 ms < one 25 ms frame
        out = tmp_path / "f.bwef"
        assert_data_error(capsys, ["features", "--in", str(tmp_path / "short.wav"), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["extend", "eval", "features"])
    def test_an_output_path_that_cannot_take_a_file_is_named(self, tmp_path, capsys, command, target):
        save_wav(tmp_path / "nb.wav", synth_narrowband(4000))
        out = tmp_path / "taken" if target == "directory" else tmp_path / "missing" / "o"
        (tmp_path / "taken").mkdir()
        if command == "extend":
            ckpt = tiny_checkpoint(tmp_path / "m.bweh")
            argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav"), "--out", str(out)]
        elif command == "eval":
            for side in ("ref", "deg"):
                (tmp_path / side).mkdir()
                save_wav(tmp_path / side / "a.wav", synth_wideband(2000))
            argv = ["eval", "--ref", str(tmp_path / "ref"), "--deg", str(tmp_path / "deg"), "--report", str(out)]
        else:
            argv = ["features", "--in", str(tmp_path / "nb.wav"), "--out", str(out)]
        err = assert_data_error(capsys, argv)
        reason = "is a directory" if target == "directory" else f"no directory {out.parent}"
        assert err == f"data error: {out}: {reason}\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unreadable_path(self, tmp_path, capsys):
        save_wav(tmp_path / "nb.wav", synth_narrowband(400))
        argv = ["extend", "--model", str(tmp_path), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "o.wav")]
        assert_data_error(capsys, argv)  # a directory where a file belongs

    @pytest.mark.parametrize("command", ["extend", "features", "eval", "train"])
    def test_wav_header_giving_zero_hz(self, tmp_path, capsys, command):
        # The stdlib writer refuses a 0 Hz rate, so the header is packed here.
        pcm = np.zeros(400, "<i2").tobytes()
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 0, 0, 2, 16)  # PCM, mono, 0 Hz, 16-bit
        body = b"WAVE" + fmt + struct.pack("<4sI", b"data", len(pcm)) + pcm
        wav = tmp_path / "u.wav"
        wav.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body)
        if command == "extend":
            ckpt = tiny_checkpoint(tmp_path / "m.bweh")
            argv = ["extend", "--model", str(ckpt), "--in", str(wav), "--out", str(tmp_path / "o.wav")]
        elif command == "features":
            argv = ["features", "--in", str(wav), "--out", str(tmp_path / "f.bwef")]
        elif command == "eval":
            for side in ("ref", "deg"):
                (tmp_path / side).mkdir()
                (tmp_path / side / "u.wav").write_bytes(wav.read_bytes())
            argv = ["eval", "--ref", str(tmp_path / "ref"), "--deg", str(tmp_path / "deg"), "--report", str(tmp_path / "r.csv")]
        else:
            (tmp_path / "corpus.tsv").write_text(f"u\t{wav}\n")
            manifests = f"data.train_manifest = {tmp_path / 'corpus.tsv'}\ndata.valid_manifest = {tmp_path / 'corpus.tsv'}\n"
            (tmp_path / "toy.cfg").write_text(TOY_CONFIG + manifests)
            argv = ["train", "--config", str(tmp_path / "toy.cfg"), "--out", str(tmp_path / "x.bweh")]
        assert "u.wav: header gives a sample rate of 0 Hz" in assert_data_error(capsys, argv)

    def test_checkpoint_tensors_not_matching_config(self, tmp_path, capsys):
        from bwex.train import load_checkpoint, save_checkpoint

        ckpt_path = tiny_checkpoint(tmp_path / "m.bweh")
        ckpt = load_checkpoint(ckpt_path)
        del ckpt.params["tier1.ff2.b"]
        save_checkpoint(ckpt_path, ckpt)
        save_wav(tmp_path / "nb.wav", synth_narrowband(400))
        argv = ["extend", "--model", str(ckpt_path), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "o.wav")]
        assert_data_error(capsys, argv)


class TestCliFeatures:
    def test_one_second_gives_98x39(self, tmp_path, capsys):
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, synth_narrowband(8000))
        out = tmp_path / "f.bwef"
        assert main(["features", "--in", str(nb_path), "--out", str(out)]) == 0
        track = load_features(out)
        assert track.n_frames == 98
        assert track.dim == 39
        assert track.frame_shift_samples == 160

    def test_deterministic_bytes(self, tmp_path):
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, synth_narrowband(4000))
        a = tmp_path / "a.bwef"
        b = tmp_path / "b.bwef"
        assert main(["features", "--in", str(nb_path), "--out", str(a)]) == 0
        assert main(["features", "--in", str(nb_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wideband_input_rejected(self, tmp_path):
        wav = tmp_path / "wb.wav"
        save_wav(wav, synth_wideband(1000))
        assert main(["features", "--in", str(wav), "--out", str(tmp_path / "f.bwef")]) == 2

    def test_type_is_an_unknown_option(self, tmp_path, capsys):
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, synth_narrowband(1000))
        out = tmp_path / "f"
        assert main(["features", "--in", str(nb_path), "--out", str(out), "--type", "mfcc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "unrecognized arguments: --type mfcc" in err
        assert not out.exists()


class TestCliLatency:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "m.cfg"
        path.write_text(text)
        return str(path)

    def test_reference_hrnn(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "model.kind = hrnn\n")
        assert main(["latency", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "1.9375 ms"

    def test_srnn(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "model.kind = srnn\n")
        assert main(["latency", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "0 ms"

    def test_chrnn_window(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "model.kind = chrnn\n")
        assert main(["latency", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "25 ms"

    def test_config_error_exit_1(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "model.kind = vocoder\n")
        assert main(["latency", "--config", cfg]) == 1


def test_threads_pinned_before_numpy_loads(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("model.kind = hrnn\n")
    script = (
        "import os, sys\n"
        "import bwex.cli\n"
        "assert 'numpy' not in sys.modules, 'import bwex.cli loaded numpy'\n"
        f"assert bwex.cli.main(['--threads', '1', 'latency', '--config', {str(cfg)!r}]) == 0\n"
        "assert 'numpy' in sys.modules and os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("how", ["flag"])
@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_is_a_config_error(tmp_path, how, value):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("model.kind = hrnn\n")
    argv = ["--threads", value]
    script = (
        "import contextlib, io, os, sys\n"
        "import bwex.cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = bwex.cli.main({argv + ['latency', '--config', str(cfg)]!r})\n"
        "assert code == 1, code\n"
        "assert err.getvalue().startswith('config error: ') and err.getvalue().count('\\n') == 1, err.getvalue()\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["extend", "--in", "x.wav"], "the following arguments are required: --model, --out"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["latency", "--config", "m.cfg", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["missing-options", "unknown-subcommand", "unknown-option"],
)
def test_usage_error_is_a_one_line_config_error(argv, expected):
    script = (
        "import contextlib, io, sys\n"
        "import bwex.cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = bwex.cli.main({argv!r})\n"
        "assert code == 1, code\n"
        "assert err.getvalue().startswith('config error: ') and err.getvalue().count('\\n') == 1, err.getvalue()\n"
        f"assert {expected!r} in err.getvalue(), err.getvalue()\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", [["--help"], ["extend", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: bwex" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, message",
    [
        ("model.hidden = 0", "model.hidden must be >= 1, got 0"),
        ("model.embed_dim = 0", "model.embed_dim must be >= 1, got 0"),
        ("model.hf_gain = 0.5", "model.hf_gain must be >= 1, got 0.5"),
        ("model.frame_sizes = 16,0", "model.frame_sizes must all be >= 1, got (16, 0)"),
        ("model.concat = 2,0,4", "model.concat must all be >= 1, got (2, 0, 4)"),
        ("model.kind = chrnn\nmodel.cond_frame_shift = 0", "model.cond_frame_shift must be >= 1, got 0"),
        ("model.kind = chrnn\nmodel.cond_source = wav", "model.cond_source must be mfcc or file, got 'wav'"),
        ("train.seed = -1", "train.seed must be >= 0, got -1"),
        ("model.hf_gain = inf", "model.hf_gain must be finite, got inf"),
        ("model.hf_gain = nan", "model.hf_gain must be finite, got nan"),
        ("model.kind = chrnn\nmodel.cond_source = file\nmodel.cond_window_ms = nan", "model.cond_window_ms must be finite, got nan"),
        ("model.kind = chrnn\nmodel.cond_source = file\nmodel.cond_window_ms = -40", "model.cond_window_ms must be >= 0, got -40.0"),
        ("train.lr = nan", "train.lr must be finite and >= 0, got nan"),
        ("train.lr = inf", "train.lr must be finite and >= 0, got inf"),
        ("train.clip_norm = nan", "train.clip_norm must be positive, got nan"),
        # Every size is capped at the checkpoint's u32 dim limit.
        (f"model.hidden = {10**20}", f"model.hidden must be <= 4294967295, got {10**20}"),
        (f"model.embed_dim = {10**20}", f"model.embed_dim must be <= 4294967295, got {10**20}"),
        (f"model.frame_sizes = {10**20},4", f"model.frame_sizes must all be <= 4294967295, got ({10**20}, 4)"),
        (f"model.concat = 2,2,{10**20}", f"model.concat must all be <= 4294967295, got (2, 2, {10**20})"),
        (f"model.frame_sizes = {10**400},4", f"model.frame_sizes must all be <= 4294967295, got ({10**400}, 4)"),
        (f"model.concat = {10**400},2,4", f"model.concat must all be <= 4294967295, got ({10**400}, 2, 4)"),
        (
            "model.kind = chrnn\nmodel.cond_source = file\nmodel.cond_dim = 4294967296",
            "model.cond_dim must be <= 4294967295, got 4294967296",
        ),
        (
            "model.kind = chrnn\nmodel.cond_source = file\nmodel.cond_frame_shift = 4294967296",
            "model.cond_frame_shift must be <= 4294967295, got 4294967296",
        ),
    ],
    ids=[
        "hidden", "embed_dim", "hf_gain", "frame_sizes", "concat", "cond_frame_shift", "cond_source",
        "seed", "hf_gain_inf", "hf_gain_nan", "cond_window_ms_nan", "cond_window_ms_negative", "lr_nan", "lr_inf",
        "clip_norm_nan", "hidden_u32", "embed_dim_u32", "frame_sizes_u32", "concat_u32", "frame_sizes_long",
        "concat_long", "cond_dim_u32", "cond_frame_shift_u32",
    ],
)
def test_out_of_range_value_names_its_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text + "\n")
    assert main(["latency", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_an_infinite_clip_norm_parses():
    assert build_run_config("train.clip_norm = inf\n").train_cfg.clip_norm == float("inf")


@pytest.mark.parametrize(
    "command, bad_file, code",
    [("train", "config", 1), ("train", "manifest", 2), ("latency", "config", 1), ("eval", "manifest", 2)],
)
def test_a_file_that_is_not_utf8_is_named_in_one_line(toy_corpus, capsys, command, bad_file, code):
    tmp_path, config, manifest = toy_corpus
    bad = {"config": config, "manifest": manifest}[bad_file]
    bad.write_bytes(bad.read_bytes() + b"# \xff\n")
    argv = {
        "train": ["train", "--config", str(config), "--out", str(tmp_path / "x.bweh")],
        "latency": ["latency", "--config", str(config)],
        "eval": ["eval", "--ref", str(manifest), "--deg", str(tmp_path / "wavs"), "--report", str(tmp_path / "r.csv")],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    kind = "config" if code == 1 else "data"
    assert err.startswith(f"{kind} error: {bad}: not UTF-8 text (invalid start byte at byte ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_nul_byte_in_a_manifest_path_is_a_data_error(toy_corpus, capsys):
    tmp_path, config, manifest = toy_corpus
    bad = f"{tmp_path}/a\x00b"
    config.write_text(config.read_text().replace(f"data.train_manifest = {manifest}", f"data.train_manifest = {bad}"))
    err = assert_data_error(capsys, ["train", "--config", str(config), "--out", str(tmp_path / "x.bweh")])
    assert err == f"data error: {bad!r}: not a readable path\n"
