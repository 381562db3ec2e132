"""Data-path tests: WAV and feature file formats, manifests, pair
construction, batching, and TBPTT chunk/state-carry correctness."""

import ast
import dataclasses
import os
import re
import stat
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

import bwex
from bwex import nn
from bwex.dsp import ConditionTrack, QuantizedWaveform, Waveform, decode_levels
from bwex.models import Hrnn, HrnnConfig, SrnnConfig, tbptt_chunks
from bwex.data import (
    DataError,
    PaddedBatch,
    batch_iter,
    build_pair,
    condition_track,
    load_features,
    load_manifest,
    load_pairs,
    load_wav,
    make_batch,
    narrowband_mfcc,
    save_features,
    save_wav,
)
from bwex.train import Checkpoint, save_checkpoint


def synth_wideband(n=600, seed=0, rate=16000):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = sum(
        a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        for f, a in ((800, 0.3), (2500, 0.2), (5500, 0.1))
    )
    return Waveform(x * np.hanning(n), rate)


def tiny_cfg(**kw):
    kw.setdefault("hidden", 8)
    kw.setdefault("embed_dim", 4)
    return HrnnConfig.build(**kw)


class TestWavIo:
    def test_roundtrip_random_pcm(self, tmp_path):
        rng = np.random.default_rng(0)
        pcm = rng.integers(-32768, 32768, 1000)
        w = Waveform(pcm / 32768.0, 16000)
        path = tmp_path / "a.wav"
        save_wav(path, w)
        back = load_wav(path)
        assert back.sample_rate_hz == 16000
        np.testing.assert_array_equal(back.samples, w.samples)

    def test_full_scale_positive_clamps(self, tmp_path):
        path = tmp_path / "clip.wav"
        save_wav(path, Waveform(np.array([1.0, -1.0]), 8000))
        back = load_wav(path)
        np.testing.assert_array_equal(back.samples, [32767 / 32768.0, -1.0])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as writer:
            writer.setnchannels(2)
            writer.setsampwidth(2)
            writer.setframerate(16000)
            writer.writeframes(b"\x00" * 400)
        with pytest.raises(DataError, match="mono"):
            load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as writer:
            writer.setnchannels(1)
            writer.setsampwidth(1)
            writer.setframerate(16000)
            writer.writeframes(b"\x00" * 100)
        with pytest.raises(DataError, match="16-bit"):
            load_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(DataError):
            load_wav(path)


class TestFeatureIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        track = ConditionTrack(rng.standard_normal((100, 39)).astype(np.float32), 160)
        path = tmp_path / "x.bwef"
        save_features(path, track)
        back = load_features(path)
        assert back.frame_shift_samples == 160
        assert back.dim == 39 and back.n_frames == 100
        np.testing.assert_array_equal(back.frames, track.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bwef"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_features(path)

    def test_truncated(self, tmp_path):
        track = ConditionTrack(np.ones((10, 4), np.float32), 80)
        path = tmp_path / "t.bwef"
        save_features(path, track)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DataError, match="bytes"):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.bwef"
        save_features(path, ConditionTrack(np.ones((2, 3), np.float32), 80))
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(DataError, match="3 trailing bytes"):
            load_features(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.bwef"
        path.write_bytes(b"BWEF" + struct.pack("<IIII", 9, 1, 1, 0))
        with pytest.raises(DataError, match="version"):
            load_features(path)


class TestManifest:
    def test_parse_with_comments_and_relative_paths(self, tmp_path):
        save_wav(tmp_path / "u1.wav", synth_wideband(300))
        save_wav(tmp_path / "u2.wav", synth_wideband(400))
        man = tmp_path / "corpus.tsv"
        man.write_text("# corpus\nu1\tu1.wav\nu2\tu2.wav\n", encoding="utf-8")
        manifest = load_manifest(man, split="valid")
        assert manifest.split == "valid"
        assert [e.utt_id for e in manifest.entries] == ["u1", "u2"]
        assert manifest.entries[0].wav_path.exists()

    def test_duplicate_id_rejected(self, tmp_path):
        save_wav(tmp_path / "x.wav", synth_wideband(300))
        save_wav(tmp_path / "y.wav", synth_wideband(300))
        man = tmp_path / "m.tsv"
        man.write_text("a\tx.wav\na\ty.wav\n")
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(man)

    def test_missing_path_rejected(self, tmp_path):
        man = tmp_path / "m.tsv"
        man.write_text("a\tnothere.wav\n")
        with pytest.raises(DataError, match="missing"):
            load_manifest(man)

    def test_bad_field_count(self, tmp_path):
        man = tmp_path / "m.tsv"
        man.write_text("justoneid\n")
        with pytest.raises(DataError, match="fields"):
            load_manifest(man)


class TestBuildPair:
    def test_lengths_match_wideband(self):
        w = synth_wideband(602)
        pair = build_pair(w, strategy="wb")
        assert len(pair.input_levels) == 602
        assert len(pair.target_levels) == 602
        assert pair.input_levels.sample_rate_hz == 16000

    def test_wb_target_is_mulaw_of_wideband(self):
        from bwex.dsp import encode_levels

        w = synth_wideband(500)
        pair = build_pair(w, strategy="wb")
        np.testing.assert_array_equal(pair.target_levels.levels, encode_levels(w.samples))

    def test_hf_target_of_low_tone_is_near_constant_128(self):
        t = np.arange(16000) / 16000.0
        w = Waveform(0.45 * np.sin(2 * np.pi * 1000 * t) * np.hanning(16000), 16000)
        pair = build_pair(w, strategy="hf", hf_gain=4.0)
        assert np.all(np.abs(pair.target_levels.levels - 128) <= 4)

    def test_wrong_rate_rejected(self):
        with pytest.raises(DataError, match="16000"):
            build_pair(Waveform(np.zeros(100), 8000))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DataError, match="strategy"):
            build_pair(synth_wideband(), strategy="xx")

    def test_mfcc_conditions_attached(self):
        pair = build_pair(synth_wideband(3200))
        track = condition_track(tiny_cfg(cond_frame_shift=160, cond_dim=39, cond_source="mfcc"), pair.narrowband, None, "u")
        pair = dataclasses.replace(pair, conditions=track)
        assert pair.conditions.dim == 39
        assert pair.conditions.frame_shift_samples == 160

    def test_input_target_alignment_at_lag_zero(self):
        # Impulse-train oracle: group-delay compensation keeps sample i of
        # the input aligned with sample i of the target.
        x = np.zeros(1600)
        x[200::400] = 0.8
        pair = build_pair(Waveform(x, 16000), strategy="wb")
        a = decode_levels(pair.input_levels.levels)
        b = decode_levels(pair.target_levels.levels)
        xcorr = np.correlate(a - a.mean(), b - b.mean(), mode="full")
        assert abs(int(np.argmax(xcorr)) - (len(a) - 1)) == 0

    def test_deterministic(self):
        w = synth_wideband(500)
        a = build_pair(w, strategy="hf")
        b = build_pair(w, strategy="hf")
        np.testing.assert_array_equal(a.input_levels.levels, b.input_levels.levels)
        np.testing.assert_array_equal(a.target_levels.levels, b.target_levels.levels)


class TestBatching:
    def make_pairs(self, lengths, conditions=None):
        return [
            dataclasses.replace(build_pair(synth_wideband(n, seed=i), utt_id=f"u{i}"), conditions=conditions)
            for i, n in enumerate(lengths)
        ]

    def test_batch_sizes(self):
        pairs = self.make_pairs([300] * 10)
        batches = list(batch_iter(pairs, 4, seed=0, model_cfg=tiny_cfg()))
        assert [b.inputs.shape[0] for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self):
        pairs = self.make_pairs([300] * 6)
        rows_a = [b.inputs.tolist() for b in batch_iter(pairs, 2, seed=7, model_cfg=tiny_cfg())]
        rows_b = [b.inputs.tolist() for b in batch_iter(pairs, 2, seed=7, model_cfg=tiny_cfg())]
        rows_c = [b.inputs.tolist() for b in batch_iter(pairs, 2, seed=8, model_cfg=tiny_cfg())]
        assert rows_a == rows_b
        assert rows_a != rows_c

    def test_mask_counts_original_lengths(self):
        pairs = self.make_pairs([300, 450, 500])
        batch = make_batch(pairs, tiny_cfg())
        assert batch.mask.sum() == 300 + 450 + 500
        for row, n in zip(batch.mask, [300, 450, 500]):
            assert row[:n].all() and not row[n:].any()

    def test_batch_alignment_and_lookahead(self):
        cfg = tiny_cfg()
        batch = make_batch(self.make_pairs([300]), cfg)
        assert batch.n_steps % cfg.time_multiple == 0
        assert batch.inputs.shape[1] == batch.n_steps + cfg.lookahead

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            make_batch([], tiny_cfg())
        with pytest.raises(DataError):
            list(batch_iter([], 4, seed=0, model_cfg=tiny_cfg()))

    def test_a_pair_without_samples_is_rejected(self):
        # build_pair never makes one; padding raises rather than adding an all-masked row.
        empty = QuantizedWaveform(np.zeros(0, dtype=np.int32), 16000)
        pairs = self.make_pairs([300, 400])
        pairs[1] = dataclasses.replace(pairs[1], input_levels=empty, target_levels=empty)
        with pytest.raises(ValueError, match="empty"):
            make_batch(pairs, tiny_cfg())

    def test_conditional_batch_carries_frames(self):
        cfg = tiny_cfg(cond_frame_shift=160, cond_dim=39)
        pairs = [dataclasses.replace(p, conditions=narrowband_mfcc(p.narrowband)) for p in self.make_pairs([400, 700])]
        batch = make_batch(pairs, cfg)
        assert batch.conditions is not None
        assert batch.conditions.shape == (2, batch.n_steps // 160, 39)

    def test_conditional_batch_requires_conditions(self):
        cfg = tiny_cfg(cond_frame_shift=160, cond_dim=39)
        with pytest.raises(DataError, match="conditions"):
            make_batch(self.make_pairs([400]), cfg)

    @pytest.mark.parametrize(
        "frames, shift, match",
        [((3, 10), 160, "10-dim frames at a 160-sample shift"), ((3, 39), 320, "39-dim frames at a 320-sample shift"),
         ((0, 39), 160, "no frames")],
        ids=["dim", "shift", "empty"],
    )
    def test_condition_track_must_fit_the_conditional_tier(self, frames, shift, match):
        cfg = tiny_cfg(cond_frame_shift=160, cond_dim=39)
        pairs = self.make_pairs([400], conditions=ConditionTrack(np.zeros(frames), shift))
        with pytest.raises(DataError, match=match):
            make_batch(pairs, cfg)


class TestTbptt:
    def test_chunks_are_padded_batches_of_the_batch(self):
        cfg = tiny_cfg()
        pairs = [build_pair(synth_wideband(n, seed=n), utt_id=f"u{n}") for n in (1000, 300, 520)]
        batch = make_batch(pairs, cfg)
        np.testing.assert_array_equal(batch.mask.sum(axis=1), [1000, 300, 520])
        chunks = tbptt_chunks(batch, 480, cfg)
        assert all(isinstance(chunk, PaddedBatch) for chunk in chunks)
        starts = np.cumsum([0] + [c.n_steps for c in chunks[:-1]])
        assert all(np.array_equal(c.inputs, batch.inputs[:, s : s + c.inputs.shape[1]]) for c, s in zip(chunks, starts))
        np.testing.assert_array_equal([c.mask.sum(axis=1) for c in chunks], [[480, 300, 480], [480, 0, 40], [40, 0, 0]])
        np.testing.assert_array_equal(sum(c.mask.sum(axis=1) for c in chunks), batch.mask.sum(axis=1))

    def test_chunk_lengths_and_flags(self):
        pairs = [build_pair(synth_wideband(1000), utt_id="u")]
        cfg = tiny_cfg()
        batch = make_batch(pairs, cfg)  # padded to 1008
        chunks = tbptt_chunks(batch, 480, cfg)
        assert [c.targets.shape[1] for c in chunks] == [480, 480, 48]
        for start, chunk in zip([0, 480, 960], chunks):
            stop = start + chunk.targets.shape[1]
            np.testing.assert_array_equal(chunk.targets, batch.targets[:, start:stop])
            np.testing.assert_array_equal(chunk.inputs, batch.inputs[:, start : stop + cfg.lookahead])

    def test_chunk_len_rounded_up_to_frame_multiple(self):
        pairs = [build_pair(synth_wideband(200), utt_id="u")]
        cfg = tiny_cfg()
        batch = make_batch(pairs, cfg)
        chunks = tbptt_chunks(batch, 100, cfg)  # rounds to 112
        assert chunks[0].targets.shape[1] == 112

    def test_chunked_forward_matches_full_forward(self):
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=0)
        pairs = [
            build_pair(synth_wideband(700, seed=1), utt_id="a"),
            build_pair(synth_wideband(950, seed=2), utt_id="b"),
        ]
        batch = make_batch(pairs, cfg)
        full_logits, _, _ = model.forward(batch.inputs, conditions=batch.conditions)
        state = None
        outputs = []
        for chunk in tbptt_chunks(batch, 480, cfg):
            logits, _, state = model.forward(chunk.inputs, conditions=chunk.conditions, state=state)
            outputs.append(logits)
        chunked = np.concatenate(outputs, axis=1)
        assert chunked.shape == full_logits.shape
        np.testing.assert_allclose(chunked[batch.mask], full_logits[batch.mask], atol=1e-5)

    def test_chunked_loss_equals_full_loss(self):
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=3)
        batch = make_batch([build_pair(synth_wideband(900, seed=4), utt_id="a")], cfg)
        full_logits, _, _ = model.forward(batch.inputs)
        full_loss, _ = nn.softmax_ce(
            full_logits.reshape(-1, 256), batch.targets.reshape(-1), batch.mask.reshape(-1)
        )
        total, count = 0.0, 0
        state = None
        for chunk in tbptt_chunks(batch, 480, cfg):
            logits, _, state = model.forward(chunk.inputs, state=state)
            n_valid = int(chunk.mask.sum())
            if n_valid == 0:
                continue
            loss, _ = nn.softmax_ce(
                logits.reshape(-1, 256), chunk.targets.reshape(-1), chunk.mask.reshape(-1)
            )
            total += loss * n_valid
            count += n_valid
        np.testing.assert_allclose(total / count, full_loss, atol=1e-5)


class TestLoadPairs:
    def test_manifest_to_pairs_with_features(self, tmp_path):
        for i in range(2):
            save_wav(tmp_path / f"u{i}.wav", synth_wideband(800, seed=i))
        track = ConditionTrack(np.random.default_rng(0).standard_normal((5, 39)), 160)
        save_features(tmp_path / "u0.bwef", track)
        man = tmp_path / "m.tsv"
        man.write_text("u0\tu0.wav\tu0.bwef\nu1\tu1.wav\n")
        manifest = load_manifest(man)
        # A model without a conditional tier reads no feature file.
        assert [p.conditions for p in load_pairs(manifest, tiny_cfg())] == [None, None]
        chrnn = tiny_cfg(cond_frame_shift=160, cond_dim=39, cond_source="mfcc")
        pairs_mfcc = load_pairs(manifest, chrnn)
        np.testing.assert_array_equal(pairs_mfcc[0].conditions.frames, track.frames)  # a file beats mfcc
        np.testing.assert_array_equal(pairs_mfcc[1].conditions.frames, narrowband_mfcc(pairs_mfcc[1].narrowband).frames)
        with pytest.raises(DataError, match="u1: the conditional tier needs a feature file"):
            load_pairs(manifest, dataclasses.replace(chrnn, cond_source="file"))


# ---------------------------------------------------------------------------
# The write contract: one writer, and the mode `open` gives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "opened").open("wb").close()
        save_wav(tmp_path / "a.wav", Waveform(np.zeros(4), 8000))
        save_features(tmp_path / "f.bwef", ConditionTrack(np.zeros((2, 3)), 160))
        save_checkpoint(tmp_path / "m.bweh", Checkpoint(config_text="", params={"w": np.zeros(2)}))
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["opened", "a.wav", "f.bwef", "m.bweh"], 0o666 & ~umask)


# (file, enclosing function, call) of every call in the package that makes,
# opens for writing or moves a file. `save_wav.write`'s `wave.open` wraps
# the handle `_atomic_write` passes it and opens no file.
WRITE_SITES = {
    ("data.py", "_atomic_write", "tempfile.mkstemp"),
    ("data.py", "_atomic_write", "os.fdopen"),
    ("data.py", "_atomic_write", "os.replace"),
    ("data.py", "save_wav.write", "wave.open"),
}


def write_sites(source: str) -> set:
    """(enclosing function, call) of every file write in source: an `open`
    or `fdopen` whose literal mode writes, `os.open`, anything from `tempfile`,
    `os.replace` or `os.rename`, and `write_text` or `write_bytes`. Nested
    functions are named outer.inner; None is module level."""
    sites = set()

    def name_of(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return f"{name_of(node.value)}.{node.attr}"
        return "?"

    def writes(call) -> bool:
        modes = [*call.args, *(kw.value for kw in call.keywords if kw.arg == "mode")]
        return any(
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and re.fullmatch(r"[rwaxbt+]+", mode.value)
            and set(mode.value) & set("wax+")
            for mode in modes
        )

    def visit(node, function):
        if isinstance(node, ast.ImportFrom) and node.module in ("tempfile", "os"):
            sites.update((function, f"{node.module}.{alias.name}") for alias in node.names
                         if node.module == "tempfile" or alias.name in ("open", "replace", "rename"))
        if isinstance(node, ast.Call):
            name = name_of(node.func)
            last = name.rsplit(".", 1)[-1]
            if (
                (last in ("open", "fdopen") and writes(node))
                or name in ("os.open", "os.replace", "os.rename")
                or name.startswith("tempfile.")
                or last in ("write_text", "write_bytes")
            ):
                sites.add((function, name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else f"{function}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_write_sites_detects_every_form():
    source = (
        "def f(p):\n"
        "    open(p, 'w')\n    open(p, 'rb')\n    open(p, mode='a')\n    p.open('xb')\n"
        "    def g():\n        tempfile.mkstemp()\n        os.replace(a, b)\n        p.write_text('')\n"
        "    os.open(p, 1)\n    os.rename(a, b)\n    Path(p).write_bytes(b'')\n    io.open('w.txt')\n"
        "from tempfile import NamedTemporaryFile\nfrom os import replace, path\n"
    )
    assert write_sites(source) == {
        ("f", "open"),
        ("f", "p.open"),
        ("f.g", "tempfile.mkstemp"),
        ("f.g", "os.replace"),
        ("f.g", "p.write_text"),
        ("f", "os.open"),
        ("f", "os.rename"),
        ("f", "?.write_bytes"),
        (None, "tempfile.NamedTemporaryFile"),
        (None, "os.replace"),
    }


def test_only_the_atomic_writer_writes_files():
    package = Path(bwex.__file__).parent
    sites = {
        (path.name, *site)
        for path in sorted(package.rglob("*.py"))
        for site in write_sites(path.read_text(encoding="utf-8"))
    }
    assert sites == WRITE_SITES
