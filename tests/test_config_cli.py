"""Config-text parsing/serialization and the command-line contract
(subcommands, exit codes, deterministic outputs)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwex
from bwex import dsp
from bwex.cli import main
from bwex.config import ConfigError, build_run_config, parse_config_text, serialize_config
from bwex.data import load_features, load_wav, save_wav
from bwex.dsp import Waveform
from bwex.models import HrnnConfig, SrnnConfig
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

    def test_meta_lines_allowed(self):
        assert parse_config_text("meta.epoch = 3") == {}

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
            "chrnn": HrnnConfig.build(cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0),
        }[kind]
        assert cfg.model_cfg == expected
        assert cfg.train_cfg == TrainConfig(model=cfg.model_cfg)

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
        assert cfg.cond_source == "mfcc"

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
            hidden=8, embed_dim=4, cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0
        )
        train_cfg = non_default_train_config(model)
        back = build_run_config(serialize_config(train_cfg, cond_source="mfcc"))
        assert back.model_cfg == model
        assert back.train_cfg == train_cfg
        assert back.cond_source == "mfcc"


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


def tiny_checkpoint(path, kind="hrnn"):
    """A random-init checkpoint for a tiny model of the given kind."""
    from bwex.models import build_model
    from bwex.train import Checkpoint, save_checkpoint

    text = f"model.kind = {kind}\nmodel.hidden = 8\nmodel.embed_dim = 4\n"
    model = build_model(build_run_config(text).model_cfg, rng=0)
    save_checkpoint(path, Checkpoint(config_text=text, params=model.params))
    return path


def assert_data_error(capsys, argv):
    """Exit 2 with a one-line `data error:` message and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestCliDataErrors:
    def test_extend_empty_wav(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.bweh")
        save_wav(tmp_path / "empty.wav", Waveform(np.zeros(0), 8000))
        out = tmp_path / "o.wav"
        assert_data_error(capsys, ["extend", "--model", str(ckpt), "--in", str(tmp_path / "empty.wav"), "--out", str(out)])
        assert not out.exists()

    def test_extend_conditional_input_shorter_than_one_window(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path / "m.bweh", kind="chrnn")
        save_wav(tmp_path / "short.wav", synth_narrowband(100))
        argv = ["extend", "--model", str(ckpt), "--in", str(tmp_path / "short.wav"), "--out", str(tmp_path / "o.wav")]
        assert_data_error(capsys, argv)

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

    def test_unreadable_path(self, tmp_path, capsys):
        save_wav(tmp_path / "nb.wav", synth_narrowband(400))
        argv = ["extend", "--model", str(tmp_path), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "o.wav")]
        assert_data_error(capsys, argv)  # a directory where a file belongs

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

    def test_unknown_type_exits_1(self, tmp_path):
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, synth_narrowband(1000))
        assert main(["features", "--in", str(nb_path), "--out", str(tmp_path / "f"), "--type", "plp"]) == 1


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


@pytest.mark.parametrize("how", ["flag", "env"])
@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_is_a_config_error(tmp_path, how, value):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("model.kind = hrnn\n")
    argv = ["--threads", value] if how == "flag" else []
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
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS") and k != "BWE_THREADS"}
    if how == "env":
        env["BWE_THREADS"] = value
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_package_root_resolves_names_and_train_is_the_submodule():
    import bwex.train

    assert bwex.train is sys.modules["bwex.train"]
    assert bwex.Hrnn is sys.modules["bwex.models"].Hrnn
    with pytest.raises(AttributeError):
        bwex.no_such_name
