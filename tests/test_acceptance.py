"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`).

Convergence thresholds were pinned from oracle runs before the build was
finalized: the overfit recipe reaches CE 0.059 / 99.8% generation
accuracy (criterion 5 asserts < 0.1 / >= 95%), and the end-to-end
high-frequency reconstruction improves the 4-8 kHz band LSD by ~26 dB
(criterion 6 asserts >= 6 dB).
"""

import contextlib
import time

import numpy as np
import pytest

from bwex import dsp, nn
from bwex.cli import main as cli_main
from bwex.config import serialize_config
from bwex.data import build_pair, load_wav, make_batch, save_wav
from bwex.dsp import QuantizedWaveform, Waveform
from bwex.metrics import lsd, reconstruct_wideband, snr
from bwex.models import Hrnn, HrnnConfig, PaddedBatch, Srnn, SrnnConfig, build_model, generate, max_latency_ms, tbptt_chunks
from bwex.train import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train


@contextlib.contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {name}")
        raise
    print(f"\n[PASS] criterion {num}: {name} ({time.time() - start:.1f} s)")


def steady_utterance(i, n=4000, rate=16000):
    """Constant-amplitude multisine with 10 ms edge fades."""
    rng = np.random.default_rng(500 + i)
    t = np.arange(n) / rate
    x = np.zeros(n)
    for f, a in ((250 + 60 * i, 0.35), (900 + 120 * i, 0.2), (5200 + 300 * i, 0.12)):
        x += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    fade = np.ones(n)
    fade[:160] = np.linspace(0, 1, 160)
    fade[-160:] = np.linspace(1, 0, 160)
    return Waveform(x * fade, rate)


def test_criterion_1_mulaw_bijectivity():
    with criterion(1, "mu-law bijectivity and bin-width error"):
        start = time.time()
        levels = np.arange(256)
        assert np.array_equal(dsp.encode_levels(dsp.decode_levels(levels)), levels)
        rng = np.random.default_rng(101)
        s = rng.uniform(-1.0, 1.0, 100_000)
        q = dsp.encode_levels(s)
        recovered = dsp.decode_levels(q)
        lo = dsp.expand_amplitude(q * 2.0 / 256.0 - 1.0)
        hi = dsp.expand_amplitude((q + 1) * 2.0 / 256.0 - 1.0)
        assert np.all(np.abs(s - recovered) <= (hi - lo) + 1e-15)
        assert time.time() - start < 1.0


def test_criterion_2_gradient_fidelity():
    with criterion(2, "finite-difference gradient fidelity over 20 seeds"):
        start = time.time()
        # Layers: full-coordinate sweeps at random small shapes.
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n_in = int(rng.integers(1, 5))
            n_out = int(rng.integers(1, 5))
            x = rng.standard_normal((2, n_in))
            p = nn.AffineParams.create(n_out, n_in, rng, dtype=np.float64)
            proj = rng.standard_normal(n_out)

            def affine_loss(params):
                pp = nn.AffineParams(params["w"], params["b"])
                y = nn.affine(pp, x)
                (dw, db), _ = nn.affine_backward(pp, x, np.broadcast_to(proj, y.shape).astype(float))
                return float(np.sum(y * proj)), {"w": dw, "b": db}

            report = nn.grad_check(affine_loss, {"w": p.weight, "b": p.bias}, tolerance=1e-4)
            assert report.passed, (seed, report.per_param)

            hidden = int(rng.integers(2, 6))
            steps = int(rng.integers(2, 6))
            xs = rng.standard_normal((2, steps, n_in))
            lp = nn.LstmParams.create(hidden, n_in, rng, dtype=np.float64)
            lproj = rng.standard_normal(hidden)

            def lstm_loss(params):
                pp = nn.LstmParams(params["wx"], params["wh"], params["b"])
                h_seq, _, cache = nn.lstm_forward(
                    pp, xs, np.zeros((2, hidden)), np.zeros((2, hidden))
                )
                dh = np.broadcast_to(lproj, h_seq.shape).astype(np.float64)
                (dwx, dwh, db), _, _, _ = nn.lstm_backward(pp, cache, dh)
                return float(np.sum(h_seq * lproj)), {"wx": dwx, "wh": dwh, "b": db}

            lparams = {"wx": lp.input_weights, "wh": lp.recurrent_weights, "b": lp.biases}
            report = nn.grad_check(lstm_loss, lparams, tolerance=1e-4)
            assert report.passed, (seed, report.per_param)

        # Full tiny hierarchy (hidden 8, 64 output samples) in 64-bit,
        # probing a random coordinate subset per tensor per seed.
        cfg = HrnnConfig.build(hidden=8, embed_dim=4)
        for seed in range(20):
            rng = np.random.default_rng(2100 + seed)
            model = Hrnn(cfg, rng=rng, dtype=np.float64)
            batch = PaddedBatch.pad([rng.integers(0, 256, 64)], cfg)
            padded, mask = batch.inputs[0], batch.mask[0]
            targets = rng.integers(0, 256, len(mask))

            def loss_and_grads(_params):
                logits, cache, _ = model.forward(padded[None])
                loss, dflat = nn.softmax_ce(logits.reshape(-1, 256), targets, mask)
                return loss, model.backward(cache, dflat.reshape(logits.shape))

            report = nn.grad_check(
                loss_and_grads, model.params, tolerance=1e-3, rng=rng, max_coords_per_param=3
            )
            assert report.passed, (seed, report.per_param)
        assert time.time() - start < 120.0


def test_criterion_3_receptive_field_contract():
    with criterion(3, "receptive-field bound and SRNN causality"):
        start = time.time()
        cfg = HrnnConfig.build(frame_sizes=(16, 4), n_concat=(2, 2, 4), hidden=8, embed_dim=4)
        model = Hrnn(cfg, rng=31)
        rng = np.random.default_rng(32)
        levels = rng.integers(0, 256, 320)
        batch = PaddedBatch.pad([levels], cfg)
        padded, mask = batch.inputs[0], batch.mask[0]
        base, _, _ = model.forward(padded[None].copy())
        hits = 0
        for _ in range(24):
            # keep t far enough from the end that a beyond-bound p exists
            t = int(rng.integers(0, len(mask) - 33))
            # 1-based bound (ceil(t/16) + 1) * 16; perturb at/after it.
            bound = (int(np.ceil((t + 1) / 16)) + 1) * 16
            p = int(rng.integers(bound, len(padded)))
            perturbed = padded.copy()
            perturbed[p] = (perturbed[p] + rng.integers(1, 255)) % 256
            out, _, _ = model.forward(perturbed[None])
            assert np.array_equal(out[0, t], base[0, t]), (t, p)
            hits += int(not np.array_equal(out[0], base[0]))
        assert hits > 0  # perturbations did change later outputs

        srnn = Srnn(SrnnConfig(embed_dim=4, hidden=8), rng=33)
        levels = rng.integers(0, 256, (1, 200))
        base_srnn, _, _ = srnn.forward(levels)
        for _ in range(12):
            t = int(rng.integers(0, 199))
            u = int(rng.integers(t + 1, 200))
            perturbed = levels.copy()
            perturbed[0, u] = (perturbed[0, u] + 31) % 256
            out, _, _ = srnn.forward(perturbed)
            assert np.array_equal(out[0, t], base_srnn[0, t])
        assert time.time() - start < 60.0


def test_criterion_4_latency_table():
    with criterion(4, "latency table reproduces reference values exactly"):
        assert max_latency_ms(HrnnConfig.build(), 16000) == 1.9375
        assert max_latency_ms(SrnnConfig(), 16000) == 0.0
        chrnn = HrnnConfig.build(cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0)
        assert max_latency_ms(chrnn, 16000) == 25.0


@pytest.fixture(scope="module")
def overfit_run():
    pairs = [build_pair(steady_utterance(i), strategy="wb", utt_id=f"u{i}") for i in range(5)]
    cfg = TrainConfig(
        model=HrnnConfig.build(hidden=32, embed_dim=16),
        lr=3e-3,
        batch_size=1,
        max_epochs=200,
        patience=200,
        seed=42,
    )
    start = time.time()
    result = train(cfg, pairs, pairs)
    return pairs, cfg, result, time.time() - start


def test_criterion_5_overfit_convergence(overfit_run):
    with criterion(5, "desk-scale overfit: CE < 0.1 and generation accuracy >= 95%"):
        pairs, cfg, result, elapsed = overfit_run
        assert elapsed < 600.0, f"training took {elapsed:.0f} s"
        best_ce = min(e.train_ce for e in result.history)
        assert best_ce < 0.1, f"best training CE {best_ce:.3f}"
        model = build_model(cfg.model, rng=np.random.default_rng(0))
        model.load_params(result.checkpoint.params)
        hits = total = 0
        for pair in pairs:
            out = generate(model, pair.input_levels)
            hits += int(np.sum(out.levels == pair.target_levels.levels))
            total += len(out)
        accuracy = 100.0 * hits / total
        assert accuracy >= 95.0, f"generation accuracy {accuracy:.1f}%"


def test_criterion_6_end_to_end_synthetic_bwe():
    with criterion(6, "synthetic HF bandwidth extension beats zero-HF baseline by >= 6 dB"):
        start = time.time()

        def mixture(phase1, n=4000, rate=16000):
            t = np.arange(n) / rate
            x = 0.45 * np.sin(2 * np.pi * 1000 * t + phase1)
            x += 0.1 * np.sin(2 * np.pi * 6000 * t + 6 * phase1)
            fade = np.ones(n)
            fade[:160] = np.linspace(0, 1, 160)
            fade[-160:] = np.linspace(1, 0, 160)
            return Waveform(x * fade, rate)

        waves = [mixture(p) for p in (0.0, 1.3, 2.9, 4.4)]
        pairs = [
            build_pair(w, strategy="hf", hf_gain=4.0, utt_id=f"u{i}") for i, w in enumerate(waves)
        ]
        cfg = TrainConfig(
            model=HrnnConfig.build(hidden=32, embed_dim=16),
            lr=3e-3,
            batch_size=1,
            max_epochs=100,
            patience=100,
            seed=11,
        )
        result = train(cfg, pairs, pairs)
        model = build_model(cfg.model, rng=np.random.default_rng(0))
        model.load_params(result.checkpoint.params)

        truth, pair = waves[0], pairs[0]
        generated = generate(model, pair.input_levels)
        recon = reconstruct_wideband(pair.narrowband, generated, strategy="hf", hf_gain=4.0)
        baseline = dsp.upsample2(pair.narrowband)
        lsd_recon = lsd(truth, recon, fmin_hz=4000, fmax_hz=8000)
        lsd_base = lsd(truth, baseline, fmin_hz=4000, fmax_hz=8000)
        improvement = lsd_base - lsd_recon
        assert improvement >= 6.0, f"band LSD improved only {improvement:.2f} dB"

        diff = Waveform(recon.samples - baseline.samples, 16000)
        spec_diff = dsp.stft(diff, 512, 256)
        spec_base = dsp.stft(baseline, 512, 256)
        freqs = np.fft.rfftfreq(512, 1 / 16000)
        low = np.sum(np.abs(spec_diff[:, freqs < 3500]) ** 2)
        low_base = np.sum(np.abs(spec_base[:, freqs < 3500]) ** 2)
        assert 10 * np.log10(low / low_base) <= -35.0
        assert time.time() - start < 900.0


def test_criterion_7_masking_and_tbptt():
    with criterion(7, "chunked forward equality and pad inertness"):
        cfg = HrnnConfig.build(hidden=8, embed_dim=4)
        model = Hrnn(cfg, rng=71)
        pairs = [
            build_pair(steady_utterance(7, n=900), strategy="wb", utt_id="a"),
            build_pair(steady_utterance(8, n=1200), strategy="wb", utt_id="b"),
        ]
        batch = make_batch(pairs, cfg)
        full_logits, _, _ = model.forward(batch.inputs)
        state = None
        parts = []
        for chunk in tbptt_chunks(batch, 480, cfg):
            logits, _, state = model.forward(chunk.inputs, state=state)
            parts.append(logits)
        chunked = np.concatenate(parts, axis=1)
        np.testing.assert_allclose(chunked[batch.mask], full_logits[batch.mask], atol=1e-5)

        def loss_and_grads(inputs, targets):
            logits, cache, _ = model.forward(inputs)
            loss, dflat = nn.softmax_ce(
                logits.reshape(-1, 256), targets.reshape(-1), batch.mask.reshape(-1)
            )
            return loss, model.backward(cache, dflat.reshape(logits.shape))

        loss_a, grads_a = loss_and_grads(batch.inputs, batch.targets)

        # Masked targets are inert: bit-identical loss and gradients.
        targets_b = batch.targets.copy()
        targets_b[~batch.mask] = (targets_b[~batch.mask] + 99) % 256
        loss_b, grads_b = loss_and_grads(batch.inputs, targets_b)
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])

        # Input padding beyond the receptive-field closure of the valid
        # region is inert too (within it, lookahead legitimately sees pads).
        inputs_c = batch.inputs.copy()
        for row, valid_len in enumerate(batch.mask.sum(axis=1)):
            closure = (int(np.ceil(valid_len / 16)) + 1) * 16
            inputs_c[row, closure:] = (inputs_c[row, closure:] + 55) % 256
        loss_c, grads_c = loss_and_grads(inputs_c, batch.targets)
        assert loss_a == loss_c
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_c[name])


def test_criterion_8_metric_oracles():
    with criterion(8, "SNR/LSD metric oracles"):
        rng = np.random.default_rng(81)
        ref = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        noise = rng.uniform(-0.01, 0.01, 16000)
        analytic = 10 * np.log10(np.sum(ref.samples**2) / np.sum(noise**2))
        measured = snr(ref, Waveform(ref.samples + noise, 16000))
        assert abs(measured - analytic) < 0.1

        scaled = Waveform(ref.samples * 0.5, 16000)
        assert abs(lsd(ref, scaled) - 6.0206) < 0.01

        other = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        assert abs(lsd(ref, other) - lsd(other, ref)) < 1e-9


def test_criterion_9_determinism_and_persistence(tmp_path):
    with criterion(9, "seeded determinism and checkpoint persistence"):
        pairs = [build_pair(steady_utterance(i, n=800), strategy="wb", utt_id=f"u{i}") for i in range(2)]
        cfg = TrainConfig(
            model=HrnnConfig.build(hidden=8, embed_dim=4),
            batch_size=1,
            max_epochs=3,
            patience=3,
            seed=9,
        )
        run_a = train(cfg, pairs, pairs)
        run_b = train(cfg, pairs, pairs)
        for ea, eb in zip(run_a.history, run_b.history):
            assert ea.train_ce == eb.train_ce and ea.valid_ce == eb.valid_ce

        # Checkpoint round-trip reproduces forward outputs bit-identically.
        ckpt_path = tmp_path / "det.bweh"
        save_checkpoint(
            ckpt_path,
            Checkpoint(
                config_text=serialize_config(cfg),
                params=run_a.checkpoint.params,
                metadata=run_a.checkpoint.metadata,
            ),
        )
        loaded = load_checkpoint(ckpt_path)
        model_a = build_model(cfg.model, rng=np.random.default_rng(1))
        model_a.load_params(run_a.checkpoint.params)
        model_b = build_model(cfg.model, rng=np.random.default_rng(2))
        model_b.load_params(loaded.params)
        probe = np.arange(160)[None] % 256
        out_a, _, _ = model_a.forward(probe)
        out_b, _, _ = model_b.forward(probe)
        np.testing.assert_array_equal(out_a, out_b)

        # CLI extension: identical bytes across runs with --threads 1.
        nb = dsp.downsample2(steady_utterance(3, n=1600))
        nb_path = tmp_path / "nb.wav"
        save_wav(nb_path, nb)
        out_1 = tmp_path / "x1.wav"
        out_2 = tmp_path / "x2.wav"
        for out in (out_1, out_2):
            code = cli_main(
                ["--threads", "1", "extend", "--model", str(ckpt_path), "--in", str(nb_path), "--out", str(out)]
            )
            assert code == 0
        assert out_1.read_bytes() == out_2.read_bytes()
        assert load_wav(out_1).sample_rate_hz == 16000
