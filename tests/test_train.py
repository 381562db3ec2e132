"""Trainer tests: convergence sanity, determinism, early stopping,
validation purity, and the checkpoint file format."""

import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import bwex.train
from bwex import DataError, data, dsp, models, nn
from bwex.cli import main
from bwex.config import model_from_checkpoint, serialize_config
from bwex.data import load_wav, save_wav
from bwex.data import build_pair, make_batch
from bwex.dsp import Waveform
from bwex.metrics import reconstruct_wideband
from bwex.models import Hrnn, HrnnConfig, SrnnConfig, build_model, forward_chunks, generate
from bwex.train import (
    Checkpoint,
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


def poison_backward(monkeypatch):
    """Make every Hrnn gradient of `tier1.ff2.b` infinite in one entry."""
    real = Hrnn.backward

    def poisoned(self, cache, dlogits):
        grads = real(self, cache, dlogits)
        grads["tier1.ff2.b"][0] = np.inf
        return grads

    monkeypatch.setattr(Hrnn, "backward", poisoned)


def child_env() -> dict:
    """The environment of a child Python that imports bwex and these tests,
    with BLAS on one thread."""
    tests = Path(__file__).resolve().parent
    path = filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def write_train_config(tmp_path, lengths=(400, 320), extra: str = "") -> Path:
    """A corpus of sine utterances of the given lengths, used for training
    and validation, and an h=8 HRNN config that trains at batch 1 on it."""
    lines = []
    for i, n in enumerate(lengths):
        t = np.arange(n) / 16000.0
        save_wav(tmp_path / f"u{i}.wav", Waveform(0.4 * np.sin(2 * np.pi * (300 + 40 * i) * t), 16000))
        lines.append(f"u{i}\t{tmp_path / f'u{i}.wav'}\n")
    manifest = tmp_path / "corpus.tsv"
    manifest.write_text("".join(lines))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "model.kind = hrnn\nmodel.hidden = 8\nmodel.embed_dim = 4\ntrain.batch_size = 1\n"
        f"data.train_manifest = {manifest}\ndata.valid_manifest = {manifest}\n{extra}"
    )
    return cfg


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

    def test_non_finite_gradient_aborts_before_adam(self, monkeypatch):
        poison_backward(monkeypatch)
        updates = []
        monkeypatch.setattr(nn, "adam_update", lambda *args: updates.append(args))
        pairs = toy_pairs()
        with pytest.raises(NumericError, match="non-finite gradient at epoch 1, batch 0, chunk 0"):
            train(toy_cfg(max_epochs=1), pairs, pairs)
        assert updates == []

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


@pytest.mark.parametrize("run", ["train", "validate"])
def test_no_forward_runs_on_an_all_padding_chunk(monkeypatch, run):
    # make_batch never pads a whole chunk, so one is appended, followed by
    # a valid chunk that the walk must not reach either.
    real_chunks, real_forward = models.tbptt_chunks, Hrnn.forward
    expected, forwarded = [], []

    def chunks_and_padding(batch, chunk_len, model_cfg):
        chunks = real_chunks(batch, chunk_len, model_cfg)
        expected.extend(chunk.inputs for chunk in chunks)
        return chunks + [dataclasses.replace(chunks[-1], mask=np.zeros_like(chunks[-1].mask)), chunks[0]]

    def spy(self, levels, *args, **kwargs):
        forwarded.append(levels)
        return real_forward(self, levels, *args, **kwargs)

    monkeypatch.setattr(bwex.train, "tbptt_chunks", chunks_and_padding)
    monkeypatch.setattr(Hrnn, "forward", spy)
    pairs = toy_pairs(n_utts=3, n_samples=1100)
    if run == "train":
        train(toy_cfg(max_epochs=1, patience=1, chunk_len=480), pairs, pairs)
    else:
        validate(build_model(toy_cfg().model, rng=0), pairs, batch_size=2)
    assert expected and len(forwarded) == len(expected)
    assert all(levels is inputs for levels, inputs in zip(forwarded, expected))


@pytest.mark.parametrize("run", ["train", "validate"])
def test_no_earlier_logits_alive_when_a_forward_starts(monkeypatch, run):
    real_forward = Hrnn.forward
    returned, alive_at_entry = [], []

    def spy(self, *args, **kwargs):
        alive_at_entry.append(sum(ref() is not None for ref in returned))
        out = real_forward(self, *args, **kwargs)
        returned.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(Hrnn, "forward", spy)
    pairs = toy_pairs(n_utts=3, n_samples=5000)  # several chunks per batch, and two batches
    if run == "train":
        train(toy_cfg(max_epochs=1, patience=1, chunk_len=480), pairs, pairs)
    else:
        validate(build_model(toy_cfg().model, rng=0), pairs, batch_size=2)
    assert len(alive_at_entry) > 4
    assert alive_at_entry == [0] * len(alive_at_entry)


def pairs_of_lengths(lengths, conditional=False):
    """One toy pair per length (wideband samples), with distinct utt_ids."""
    pairs = []
    for i, n in enumerate(lengths):
        pair = dataclasses.replace(toy_pairs(n_utts=1, n_samples=n)[0], utt_id=f"u{i}")
        if conditional:
            pair = dataclasses.replace(pair, conditions=data.narrowband_mfcc(pair.narrowband))
        pairs.append(pair)
    return pairs


class TestDroppedRows:
    """Rows whose mask has ended leave the chunk walk.

    With chunks of 320 the 600- and 1400-sample rows end in different
    chunks, and the longest row sits in the middle, so the rows that stay
    are not a prefix of the batch.
    """

    LENGTHS = (1400, 2200, 600)
    CHUNK = 320
    CONFIGS = {
        "hrnn": HrnnConfig(hidden=8, embed_dim=4),
        "chrnn": HrnnConfig(hidden=8, embed_dim=4, cond_frame_shift=160, cond_dim=39),
    }

    def setup(self, kind):
        model_cfg = self.CONFIGS[kind]
        model = build_model(model_cfg, rng=np.random.default_rng(2), dtype=np.float64)
        pairs = pairs_of_lengths(self.LENGTHS, conditional=model_cfg.conditional)
        return model, pairs, make_batch(pairs, model_cfg)

    def walk(self, model, batch, cache=False):
        return forward_chunks(model, models.tbptt_chunks(batch, self.CHUNK, model.cfg), cache=cache)

    @pytest.mark.parametrize("kind", ["hrnn", "chrnn"])
    def test_walk_holds_the_rows_valid_at_each_chunk_start(self, kind):
        model, _, batch = self.setup(kind)
        full = models.tbptt_chunks(batch, self.CHUNK, model.cfg)
        walked = [chunk for chunk, *_ in self.walk(model, batch)]
        row_sets = [tuple(np.flatnonzero(chunk.mask[:, 0])) for chunk in full]
        assert row_sets[0] == (0, 1, 2) and (0, 1) in row_sets and row_sets[-1] == (1,)
        assert len(walked) == len(full)
        start = 0
        for chunk, whole, rows in zip(walked, full, row_sets):
            rows = list(rows)
            np.testing.assert_array_equal(chunk.inputs, batch.inputs[rows, start : start + whole.inputs.shape[1]])
            np.testing.assert_array_equal(chunk.inputs, whole.inputs[rows])
            np.testing.assert_array_equal(chunk.targets, whole.targets[rows])
            np.testing.assert_array_equal(chunk.mask, whole.mask[rows])
            if whole.conditions is not None:
                np.testing.assert_array_equal(chunk.conditions, whole.conditions[rows])
            start += whole.n_steps

    @pytest.mark.parametrize("kind", ["hrnn", "chrnn"])
    def test_each_row_matches_its_utterance_walked_alone(self, kind):
        # A carried state mapped to the wrong row would show here.
        # A chunk's rows are the batch rows valid at its first position.
        model, pairs, batch = self.setup(kind)
        full = models.tbptt_chunks(batch, self.CHUNK, model.cfg)
        batched = [[] for _ in pairs]
        for (chunk, _, logits, _), whole in zip(self.walk(model, batch), full):
            for row, batch_row in enumerate(np.flatnonzero(whole.mask[:, 0])):
                batched[batch_row].append(logits[row][chunk.mask[row]])
        for batch_row, pair in enumerate(pairs):
            alone = make_batch([pair], model.cfg)
            walk = self.walk(model, alone)
            expected = [logits[0][chunk.mask[0]] for chunk, _, logits, _ in walk]
            assert len(batched[batch_row]) == len(expected)
            for got, want in zip(batched[batch_row], expected):
                np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["hrnn", "chrnn"])
    def test_gradients_match_a_walk_that_keeps_every_row(self, kind):
        model, _, batch = self.setup(kind)
        reference, state = [], None
        for chunk in models.tbptt_chunks(batch, self.CHUNK, model.cfg):
            if not chunk.mask.any():
                break
            logits, cache, state = model.forward(chunk.inputs, conditions=chunk.conditions, state=state)
            loss, dflat = nn.softmax_ce(logits.reshape(-1, 256), chunk.targets.reshape(-1), chunk.mask.reshape(-1))
            reference.append((loss, model.backward(cache, dflat.reshape(logits.shape))))
        walked = []
        for chunk, _, logits, cache in self.walk(model, batch, cache=True):
            loss, dflat = nn.softmax_ce(logits.reshape(-1, 256), chunk.targets.reshape(-1), chunk.mask.reshape(-1))
            walked.append((loss, model.backward(cache, dflat.reshape(logits.shape))))
        assert len(walked) == len(reference)
        for (loss, grads), (ref_loss, ref_grads) in zip(walked, reference):
            np.testing.assert_allclose(loss, ref_loss, rtol=1e-10)
            assert grads.keys() == ref_grads.keys()
            for name in ref_grads:
                np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, err_msg=name)

    def test_equal_lengths_walk_the_unchanged_chunks(self):
        model_cfg = self.CONFIGS["hrnn"]
        batch = make_batch(pairs_of_lengths((1400, 1400)), model_cfg)
        made = models.tbptt_chunks(batch, self.CHUNK, model_cfg)
        walked = [chunk for chunk, *_ in forward_chunks(build_model(model_cfg, rng=0), made)]
        assert len(made) == 5 and len(walked) == len(made)
        assert all(chunk is whole for chunk, whole in zip(walked, made))

    def test_a_batch_without_targets_drops_the_row_that_ends(self):
        # Rows of 2200 and 600 samples in chunks of 320: the second row is
        # valid at the starts of chunks 0 and 1, and leaves at chunk 2.
        model_cfg = self.CONFIGS["chrnn"]
        model = build_model(model_cfg, rng=np.random.default_rng(2), dtype=np.float64)
        pairs = pairs_of_lengths((2200, 600), conditional=True)
        batch = dataclasses.replace(make_batch(pairs, model_cfg), targets=None)
        full = models.tbptt_chunks(batch, self.CHUNK, model_cfg)
        walked = [(chunk, logits) for chunk, _, logits, _ in forward_chunks(model, full, cache=False)]
        assert len(full) == 7 and len(walked) == len(full)
        for i, ((chunk, logits), whole) in enumerate(zip(walked, full)):
            assert chunk.targets is None
            if i < 2:
                assert chunk is whole and logits.shape[0] == 2
                continue
            assert chunk.mask.shape[0] == logits.shape[0] == 1
            np.testing.assert_array_equal(chunk.inputs, whole.inputs[:1])
            np.testing.assert_array_equal(chunk.mask, whole.mask[:1])
            np.testing.assert_array_equal(chunk.conditions, whole.conditions[:1])


# train() on one batch of three unequal rows: with chunks of 480 the
# 1200-sample row leaves the walk after its third chunk and the
# 2400-sample row after its fifth, so every later update, and the
# validation walk, runs on fewer rows than the batch holds. At B = 3 the
# bits depend on the BLAS thread count, which is fixed once numpy loads,
# so the run happens in a child process with BLAS on one thread.
DROPPED_ROWS_GOLDEN = "5ec66960f4e9659b322bbdcc573327925097526dd6de7d61f2f7d6d3180d3878"


def dropped_rows_digest() -> str:
    pairs = pairs_of_lengths((3200, 2400, 1200))
    result = train(toy_cfg(batch_size=3, max_epochs=2, chunk_len=480), pairs, pairs)
    return params_digest(result.checkpoint.params)


def test_train_on_a_batch_that_drops_rows_is_pinned():
    argv = [sys.executable, "-c", "import test_train; print(test_train.dropped_rows_digest())"]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == DROPPED_ROWS_GOLDEN


def test_cli_non_finite_gradient_is_a_one_line_numeric_abort(tmp_path, monkeypatch, capsys):
    poison_backward(monkeypatch)
    cfg = write_train_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bweh")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort: non-finite gradient at epoch 1") and err.count("\n") == 1, err
    assert not (tmp_path / "m.bweh").exists()


@pytest.mark.parametrize("epochs", [1, 2])
def test_cli_non_finite_validation_ce_is_a_one_line_numeric_abort(tmp_path, epochs):
    # At lr = 1e30 the first Adam step makes the forward overflow. One
    # utterance shorter than a TBPTT chunk gives one update per epoch, so
    # the validation CE is the first non-finite value. numpy's warnings
    # reach stderr only outside pytest, so the run is a child process.
    extra = f"train.lr = 1e30\ntrain.max_epochs = {epochs}\ntrain.patience = {epochs}\n"
    cfg = write_train_config(tmp_path, lengths=(400,), extra=extra)
    script = "import sys, bwex.cli; sys.exit(bwex.cli.main(sys.argv[1:]))"
    argv = [sys.executable, "-c", script, "train", "--config", str(cfg), "--out", str(tmp_path / "m.bweh")]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "numeric abort: non-finite validation CE at epoch 1\n"
    assert not (tmp_path / "m.bweh").exists()


class TestValidate:
    def test_does_not_mutate_params(self):
        pairs = toy_pairs()
        cfg = toy_cfg()
        model = build_model(cfg.model, rng=np.random.default_rng(0))
        before = params_digest(model.params)
        validate(model, pairs)
        assert params_digest(model.params) == before

    def test_forms_no_gradient(self, monkeypatch):
        def refused(*args):
            raise AssertionError("validate called softmax_ce")

        model = build_model(toy_cfg().model, rng=0)
        want = validate(model, toy_pairs())
        monkeypatch.setattr(nn, "softmax_ce", refused)
        assert validate(model, toy_pairs()) == want

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

    @pytest.mark.parametrize("where", ["tensor name", "config text", "metadata"])
    def test_text_utf8_cannot_encode_is_refused_and_leaves_no_file(self, tmp_path, where):
        ckpt, _ = self.make_checkpoint()
        lone = "\udc80"  # a lone surrogate
        if where == "tensor name":
            ckpt = dataclasses.replace(ckpt, params={**ckpt.params, lone: np.zeros(2, np.float32)})
        elif where == "config text":
            ckpt = dataclasses.replace(ckpt, config_text=ckpt.config_text + f"\n# {lone}")
        else:
            ckpt = dataclasses.replace(ckpt, metadata={**ckpt.metadata, "note": lone})
        with pytest.raises(DataError, match=f"^{where} .*UTF-8 cannot encode"):
            save_checkpoint(tmp_path / "m.bweh", ckpt)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_magic_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "c.bweh"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "t.bweh"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "v.bweh"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
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
            with pytest.raises(DataError, match="truncated"):
                load_checkpoint(path)
            assert main(["extend", "--model", str(path), "--in", str(nb), "--out", str(tmp_path / "o.wav")]) == 2
            assert capsys.readouterr().err.startswith("data error:")

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        path = tmp_path / "x.bweh"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(DataError, match="3 trailing bytes"):
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
        with pytest.raises(DataError, match="duplicate tensor name"):
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
