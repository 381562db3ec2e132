"""Trainer tests: convergence sanity, determinism, early stopping,
validation purity, and the checkpoint file format."""

import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from bwex import data, dsp, nn
from bwex.cli import main
from bwex.config import model_from_checkpoint, serialize_config
from bwex.data import load_wav, save_wav
from bwex.data import build_pair, make_batch
from bwex.dsp import Waveform
from bwex.metrics import reconstruct_wideband
from bwex.models import HrnnConfig, SrnnConfig, build_model, generate
from bwex.train import (
    Checkpoint,
    CheckpointError,
    NumericError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    validate,
)


def toy_pairs(n_utts=2, n_samples=320, strategy="wb"):
    pairs = []
    for i in range(n_utts):
        rng = np.random.default_rng(100 + i)
        t = np.arange(n_samples) / 16000.0
        x = 0.4 * np.sin(2 * np.pi * (300 + 40 * i) * t + rng.uniform(0, 2 * np.pi))
        x += 0.1 * np.sin(2 * np.pi * (5000 + 100 * i) * t)
        pairs.append(build_pair(Waveform(x * np.hanning(n_samples), 16000), strategy=strategy, utt_id=f"t{i}"))
    return pairs


def toy_cfg(**kw):
    model = HrnnConfig.build(hidden=kw.pop("hidden", 8), embed_dim=kw.pop("embed_dim", 4))
    kw.setdefault("batch_size", 2)
    kw.setdefault("max_epochs", 5)
    kw.setdefault("patience", min(5, kw["max_epochs"]))
    kw.setdefault("seed", 1)
    return TrainConfig(model=model, **kw)


def params_digest(params):
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(model=HrnnConfig.build(), lr=-1)
        with pytest.raises(ValueError):
            TrainConfig(model=HrnnConfig.build(), batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(model=HrnnConfig.build(), patience=10, max_epochs=5)


class TestTrain:
    def test_loss_decreases_and_history_recorded(self):
        pairs = toy_pairs()
        result = train(toy_cfg(max_epochs=8), pairs, pairs)
        assert len(result.history) == 8
        assert result.history[-1].train_ce < result.history[0].train_ce
        assert result.checkpoint.metadata["epoch"] == result.best_epoch

    def test_same_seed_identical_curves(self):
        pairs = toy_pairs()
        a = train(toy_cfg(max_epochs=3), pairs, pairs)
        b = train(toy_cfg(max_epochs=3), pairs, pairs)
        for ea, eb in zip(a.history, b.history):
            assert ea.train_ce == eb.train_ce
            assert ea.valid_ce == eb.valid_ce
        assert params_digest(a.checkpoint.params) == params_digest(b.checkpoint.params)

    def test_zero_lr_leaves_params_at_init(self):
        pairs = toy_pairs()
        cfg = toy_cfg(lr=0.0, max_epochs=1, patience=1)
        result = train(cfg, pairs, pairs)
        fresh = build_model(cfg.model, rng=np.random.default_rng(cfg.seed))
        assert params_digest(result.checkpoint.params) == params_digest(fresh.params)

    def test_zero_lr_early_stops_after_patience(self):
        pairs = toy_pairs()
        cfg = toy_cfg(lr=0.0, max_epochs=20, patience=3)
        result = train(cfg, pairs, pairs)
        # Epoch 1 sets the best; 3 non-improving epochs then stop.
        assert len(result.history) == 4

    def test_best_checkpoint_is_min_validation(self):
        pairs = toy_pairs()
        result = train(toy_cfg(max_epochs=6), pairs, pairs)
        assert result.best_valid_ce == min(e.valid_ce for e in result.history)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            train(toy_cfg(), [], toy_pairs())

    def test_numeric_abort_names_location(self, monkeypatch):
        pairs = toy_pairs()
        real = nn.softmax_ce

        def poisoned(logits, targets, mask):
            loss, dlogits = real(logits, targets, mask)
            return float("nan"), dlogits

        import bwex.nn

        monkeypatch.setattr(bwex.nn, "softmax_ce", poisoned)
        with pytest.raises(NumericError, match="epoch 1"):
            train(toy_cfg(max_epochs=1), pairs, pairs)

    def test_fixed_batch_loss_strictly_decreases_seed_averaged(self):
        # 10 Adam steps on one frozen batch, averaged over 5 seeds.
        pairs = toy_pairs()
        curves = []
        for seed in range(5):
            cfg = toy_cfg(seed=seed)
            model = build_model(cfg.model, rng=np.random.default_rng(seed))
            adam = nn.AdamState.create(model.params, lr=1e-3)
            batch = make_batch(pairs, cfg.model)
            losses = []
            for _ in range(10):
                logits, cache, _ = model.forward(batch.inputs)
                loss, dflat = nn.softmax_ce(
                    logits.reshape(-1, 256), batch.targets.reshape(-1), batch.mask.reshape(-1)
                )
                grads = model.backward(cache, dflat.reshape(logits.shape))
                nn.clip_global_norm(grads, 5.0)
                nn.adam_update(adam, model.params, grads)
                losses.append(loss)
            curves.append(losses)
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) < 0)


class TestValidate:
    def test_does_not_mutate_params(self):
        pairs = toy_pairs()
        cfg = toy_cfg()
        model = build_model(cfg.model, rng=np.random.default_rng(0))
        before = params_digest(model.params)
        validate(model, pairs)
        assert params_digest(model.params) == before

    def test_untrained_model_near_chance(self):
        pairs = toy_pairs(n_utts=4, n_samples=1000)
        cfg = toy_cfg()
        model = build_model(cfg.model, rng=np.random.default_rng(3))
        _, acc = validate(model, pairs)
        assert acc <= 5.0  # ~1/256 up to prediction clustering

    @staticmethod
    def one_pass(model, pairs, batch_size):
        """Reference: CE and accuracy from one forward per whole batch."""
        total_ce, hits, count = 0.0, 0, 0
        for start in range(0, len(pairs), batch_size):
            batch = make_batch(pairs[start : start + batch_size], model.cfg)
            logits, _, _ = model.forward(batch.inputs, conditions=batch.conditions, cache=False)
            flat = logits.reshape(-1, 256)
            targets, mask = batch.targets.reshape(-1), batch.mask.reshape(-1)
            loss, _ = nn.softmax_ce(flat, targets, mask)
            total_ce += loss * mask.sum()
            hits += int(np.sum((np.argmax(flat, axis=-1) == targets) & mask))
            count += int(mask.sum())
        return total_ce / count, 100.0 * hits / count

    @pytest.mark.parametrize("kind", ["hrnn", "srnn", "chrnn"])
    def test_chunked_equals_one_pass(self, kind):
        # 5000 and 1100 samples: several chunks, and a final chunk where
        # only the longer utterance is still valid.
        pairs = toy_pairs(n_utts=3, n_samples=5000) + toy_pairs(n_utts=1, n_samples=1100)
        if kind == "chrnn":
            pairs = [dataclasses.replace(p, conditions=data.narrowband_mfcc(p.narrowband)) for p in pairs]
        model_cfg = {
            "hrnn": HrnnConfig(hidden=16, embed_dim=8),
            "srnn": SrnnConfig(hidden=16, embed_dim=8),
            "chrnn": HrnnConfig(hidden=16, embed_dim=8, cond_frame_shift=160, cond_dim=39),
        }[kind]
        model = build_model(model_cfg, rng=np.random.default_rng(5))
        ce, acc = validate(model, pairs, batch_size=2)
        ref_ce, ref_acc = self.one_pass(model, pairs, batch_size=2)
        assert acc == ref_acc
        np.testing.assert_allclose(ce, ref_ce, rtol=1e-6)

    def test_peak_memory_is_flat_in_utterance_length(self):
        model = build_model(HrnnConfig(hidden=32, embed_dim=16), rng=np.random.default_rng(0))
        peaks = {}
        for seconds in (1, 4):
            pairs = toy_pairs(n_utts=2, n_samples=16000 * seconds)
            tracemalloc.start()
            try:
                validate(model, pairs, batch_size=2)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.25 * peaks[1]
        assert peaks[4] < 48 * 2**20


class TestCheckpointIo:
    def make_checkpoint(self):
        cfg = toy_cfg()
        model = build_model(cfg.model, rng=np.random.default_rng(5))
        return (
            Checkpoint(
                config_text="model.kind = hrnn\nmodel.hf_gain = 4.0",
                params={k: v.copy() for k, v in model.params.items()},
                metadata={"epoch": 3, "best_valid_ce": 1.25},
            ),
            model,
        )

    def test_roundtrip_bit_identical_forward(self, tmp_path):
        ckpt, model = self.make_checkpoint()
        path = tmp_path / "m.bweh"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.config_text == ckpt.config_text
        assert loaded.metadata["epoch"] == "3"
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        other = build_model(model.cfg, rng=np.random.default_rng(99))
        other.load_params(loaded.params)
        levels = np.arange(80)[None] % 256
        a, _, _ = model.forward(levels)
        b, _, _ = other.forward(levels)
        np.testing.assert_array_equal(a, b)

    def test_corrupt_magic_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "c.bweh"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "t.bweh"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "v.bweh"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_file_format_is_pinned(self, tmp_path):
        # Built byte by byte from the format description, not by save_checkpoint.
        a = np.arange(6, dtype="<f4").reshape(2, 3) - 2.5
        b = np.array([1.5], dtype="<f4")
        blob = b"model.kind = srnn\nmeta.epoch = 2"
        raw = b"BWEH" + struct.pack("<II", 1, len(blob)) + blob + struct.pack("<I", 2)
        raw += struct.pack("<I", 2) + b"ab" + struct.pack("<BII", 2, 2, 3) + a.tobytes()
        raw += struct.pack("<I", 1) + b"b" + struct.pack("<BI", 1, 1) + b.tobytes()
        path = tmp_path / "golden.bweh"
        path.write_bytes(raw)
        loaded = load_checkpoint(path)
        assert loaded.config_text == "model.kind = srnn"
        assert loaded.metadata == {"epoch": "2"}
        assert list(loaded.params) == ["ab", "b"]
        assert loaded.params["ab"].tobytes() == a.tobytes() and loaded.params["ab"].shape == (2, 3)
        assert loaded.params["b"].tobytes() == b.tobytes()
        save_checkpoint(tmp_path / "again.bweh", loaded)
        assert (tmp_path / "again.bweh").read_bytes() == raw

    @staticmethod
    def field_boundaries(raw: bytes):
        """Offsets where each header field, name, dims and tensor ends,
        plus one cut inside every tensor's data."""
        cuts = [4, 8, 12]
        pos = 12 + struct.unpack_from("<I", raw, 8)[0]
        cuts += [pos, pos + 4]
        n_tensors = struct.unpack_from("<I", raw, pos)[0]
        pos += 4
        records = []
        for _ in range(n_tensors):
            start = pos
            name_len = struct.unpack_from("<I", raw, pos)[0]
            pos += 4
            cuts.append(pos)
            pos += name_len
            cuts.append(pos)
            rank = raw[pos]
            pos += 1
            cuts.append(pos)
            n_values = int(np.prod(struct.unpack_from(f"<{rank}I", raw, pos)))
            pos += 4 * rank
            cuts.append(pos)
            cuts.append(pos + 2 * n_values)  # mid-tensor, off a float boundary when odd
            pos += 4 * n_values
            cuts.append(pos)
            records.append((start, pos))
        assert pos == len(raw)
        return sorted(set(cuts) - {len(raw)}), records

    def test_every_truncation_rejected_and_cli_exits_2(self, tmp_path, capsys):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "t.bweh"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        cuts, _ = self.field_boundaries(raw)
        nb = tmp_path / "nb.wav"
        save_wav(nb, Waveform(np.zeros(160), 8000))
        for cut in [0, 2, *cuts, len(raw) - 1]:
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)
            assert main(["extend", "--model", str(path), "--in", str(nb), "--out", str(tmp_path / "o.wav")]) == 2
            assert capsys.readouterr().err.startswith("data error:")

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "x.bweh"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(CheckpointError, match="3 trailing bytes"):
            load_checkpoint(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "d.bweh"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        _, records = self.field_boundaries(raw)
        start, end = records[-1]
        count_at = 12 + struct.unpack_from("<I", raw, 8)[0]
        count = struct.unpack_from("<I", raw, count_at)[0]
        doubled = raw[:count_at] + struct.pack("<I", count + 1) + raw[count_at + 4 :] + raw[start:end]
        path.write_bytes(doubled)
        with pytest.raises(CheckpointError, match="duplicate tensor name"):
            load_checkpoint(path)

    def test_loaded_arrays_are_aligned_owned_float32(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "a.bweh"
        save_checkpoint(path, ckpt)
        for value in load_checkpoint(path).params.values():
            assert value.dtype == np.float32
            assert value.flags.aligned and value.flags.c_contiguous
            assert value.flags.writeable and value.flags.owndata

    @pytest.mark.parametrize("model_cfg", [HrnnConfig.build(hidden=8, embed_dim=4), SrnnConfig(embed_dim=3, hidden=5)])
    def test_model_from_checkpoint_adopts_arrays_without_random_draw(self, tmp_path, monkeypatch, model_cfg):
        model = build_model(model_cfg, rng=np.random.default_rng(4))
        path = tmp_path / "m.bweh"
        save_checkpoint(path, Checkpoint(serialize_config(TrainConfig(model=model_cfg)), model.params))
        ckpt = load_checkpoint(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("model_from_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(nn, "init_uniform", no_draw)
        rebuilt, _ = model_from_checkpoint(ckpt)
        assert type(rebuilt) is type(model)
        assert rebuilt.params.keys() == ckpt.params.keys()
        for name, value in ckpt.params.items():
            assert rebuilt.params[name] is value

    def test_extend_round_trip_matches_load_params_model(self, tmp_path):
        cfg = HrnnConfig.build(hidden=8, embed_dim=4)
        source = build_model(cfg, rng=np.random.default_rng(6))
        ckpt_path = tmp_path / "m.bweh"
        save_checkpoint(ckpt_path, Checkpoint(serialize_config(TrainConfig(model=cfg)), source.params))
        nb_path = tmp_path / "nb.wav"
        rng = np.random.default_rng(7)
        save_wav(nb_path, Waveform(0.3 * np.sin(np.arange(900) * 0.2) + 0.05 * rng.standard_normal(900), 8000))
        out = tmp_path / "out.wav"
        assert main(["extend", "--model", str(ckpt_path), "--in", str(nb_path), "--out", str(out)]) == 0

        filled = build_model(cfg, rng=np.random.default_rng(8))
        filled.load_params(source.params)
        narrowband = load_wav(nb_path)
        generated = generate(filled, dsp.mulaw_encode(dsp.upsample2(narrowband)))
        expected = tmp_path / "expected.wav"
        save_wav(expected, reconstruct_wideband(narrowband, generated, strategy=cfg.strategy, hf_gain=cfg.hf_gain))
        assert out.read_bytes() == expected.read_bytes()

    def test_unknown_tensor_name_rejected_on_load_params(self):
        ckpt, model = self.make_checkpoint()
        ckpt.params["rogue.tensor"] = np.zeros(3, np.float32)
        with pytest.raises(ValueError, match="rogue"):
            model.load_params(ckpt.params)
