"""Metric tests: SNR/LSD oracles, V/UV splits, accuracy, reconstruction,
and report formatting."""

import numpy as np
import pytest

from bwex import dsp
from bwex.dsp import QuantizedWaveform, Waveform
from bwex.metrics import (
    LSD_FRAME_LEN,
    LSD_FRAME_SHIFT,
    MetricsReport,
    accuracy,
    build_report,
    evaluate_utterance,
    format_report_csv,
    format_report_text,
    lsd,
    reconstruct_wideband,
    snr,
    split_metrics,
)


def noise_wave(n=16000, seed=0, amp=0.3, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.uniform(-amp, amp, n), rate)


class TestSnr:
    def test_identical_capped(self):
        w = noise_wave()
        assert snr(w, w) == 120.0

    def test_silent_reference_floored(self):
        silent = Waveform(np.zeros(1000), 16000)
        assert snr(silent, noise_wave(1000)) == -120.0

    def test_known_noise_power(self):
        rng = np.random.default_rng(1)
        ref = noise_wave(seed=2)
        noise = rng.uniform(-0.01, 0.01, len(ref))
        deg = Waveform(ref.samples + noise, 16000)
        expected = 10 * np.log10(np.sum(ref.samples**2) / np.sum(noise**2))
        assert abs(snr(ref, deg) - expected) < 0.1

    def test_zero_output_gives_zero_db(self):
        ref = noise_wave()
        assert abs(snr(ref, Waveform(np.zeros(len(ref)), 16000))) < 1e-9

    def test_scalar_scaling_identity(self):
        # snr(x, (1 - delta) x) = -20 log10(delta), exactly.
        ref = noise_wave(seed=3)
        for delta in (0.5, 0.1, 0.01):
            deg = Waveform(ref.samples * (1 - delta), 16000)
            np.testing.assert_allclose(snr(ref, deg), -20 * np.log10(delta), rtol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            snr(noise_wave(100), noise_wave(101))


class TestLsd:
    def test_identical_zero(self):
        w = noise_wave()
        assert lsd(w, w) == 0.0

    def test_half_amplitude_is_6db(self):
        ref = noise_wave(seed=4)
        deg = Waveform(ref.samples * 0.5, 16000)
        np.testing.assert_allclose(lsd(ref, deg), 20 * np.log10(2), atol=0.01)

    def test_matches_straight_line_oracle(self):
        # Independent 64-bit reimplementation, straight from the formula.
        ref = noise_wave(4000, seed=5)
        deg = noise_wave(4000, seed=6)
        window = np.hanning(LSD_FRAME_LEN)
        frames = []
        n_frames = (4000 - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        for i in range(n_frames):
            sl = slice(i * LSD_FRAME_SHIFT, i * LSD_FRAME_SHIFT + LSD_FRAME_LEN)
            spec_r = np.fft.rfft(ref.samples[sl] * window, 512)
            spec_d = np.fft.rfft(deg.samples[sl] * window, 512)
            diff = 20 * np.log10(np.abs(spec_r) + 1e-10) - 20 * np.log10(np.abs(spec_d) + 1e-10)
            frames.append(np.sqrt(np.mean(diff**2)))
        np.testing.assert_allclose(lsd(ref, deg), np.mean(frames), atol=1e-6)

    def test_symmetric(self):
        a = noise_wave(seed=7)
        b = noise_wave(seed=8)
        assert abs(lsd(a, b) - lsd(b, a)) < 1e-9

    def test_band_limited_variant(self):
        ref = noise_wave(seed=9)
        deg = Waveform(ref.samples * 0.5, 16000)
        np.testing.assert_allclose(lsd(ref, deg, fmin_hz=4000, fmax_hz=8000), 6.0206, atol=0.01)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            lsd(noise_wave(100), noise_wave(100))


class TestAccuracy:
    def q(self, levels):
        return QuantizedWaveform(np.asarray(levels), 16000)

    def test_identical_100(self):
        assert accuracy(self.q([1, 2, 3]), self.q([1, 2, 3])) == 100.0

    def test_off_by_one_0(self):
        assert accuracy(self.q([1, 2, 3]), self.q([2, 3, 4])) == 0.0

    def test_half_50(self):
        assert accuracy(self.q([1, 2, 3, 4]), self.q([1, 2, 0, 0])) == 50.0

    def test_mask_restricts(self):
        mask = np.array([True, True, False])
        assert accuracy(self.q([5, 6, 0]), self.q([5, 6, 9]), mask) == 100.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            accuracy(self.q([1]), self.q([1]), np.array([False]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        mask = rng.random(50) < 0.7
        perm = rng.permutation(50)
        assert accuracy(self.q(a), self.q(b), mask) == accuracy(
            self.q(a[perm]), self.q(b[perm]), mask[perm]
        )


class TestSplitMetrics:
    def test_all_voiced_collapses_to_overall(self):
        ref = noise_wave(seed=11)
        deg = Waveform(ref.samples * 0.7, 16000)
        n_frames = (len(ref) - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        out = split_metrics(ref, deg, np.ones(n_frames, bool))
        np.testing.assert_allclose(out["lsd_v"], lsd(ref, deg), atol=1e-9)
        assert out["snr_u"] is None and out["lsd_u"] is None

    def test_distortion_in_unvoiced_half(self):
        # Tone first half (voiced), noise second half (unvoiced); distort
        # only the noise: SNR-V must beat SNR-U.
        rate = 16000
        n = 16384
        rng = np.random.default_rng(12)
        x = np.concatenate(
            [
                0.5 * np.sin(2 * np.pi * 200 * np.arange(n // 2) / rate),
                rng.uniform(-0.4, 0.4, n // 2),
            ]
        )
        ref = Waveform(x, rate)
        deg_samples = x.copy()
        deg_samples[n // 2 :] *= 0.6
        deg = Waveform(deg_samples, rate)
        flags = dsp.frame_vuv(ref, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
        assert flags[:10].all() and not flags[-10:].any()
        out = split_metrics(ref, deg, flags)
        assert out["snr_v"] > out["snr_u"]

    def test_inverted_flags_swap(self):
        ref = noise_wave(seed=13)
        deg = noise_wave(seed=14)
        n_frames = (len(ref) - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        rng = np.random.default_rng(15)
        flags = rng.random(n_frames) < 0.5
        a = split_metrics(ref, deg, flags)
        b = split_metrics(ref, deg, ~flags)
        assert a["snr_v"] == b["snr_u"] and a["lsd_v"] == b["lsd_u"]

    def test_flag_count_mismatch(self):
        ref = noise_wave()
        with pytest.raises(ValueError, match="framing"):
            split_metrics(ref, ref, np.ones(3, bool))


class TestReconstruct:
    def test_constant_128_returns_upsampled_narrowband(self):
        nb = Waveform(0.4 * np.sin(2 * np.pi * 700 * np.arange(8000) / 8000) * np.hanning(8000), 8000)
        generated = QuantizedWaveform(np.full(16000, 128), 16000)
        out = reconstruct_wideband(nb, generated, strategy="hf", hf_gain=4.0)
        base = dsp.upsample2(nb)
        err = out.samples - base.samples
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(base.samples**2))
        assert 20 * np.log10(rel + 1e-300) <= -40.0

    def test_true_hf_roundtrip_snr(self):
        # Pipeline identity: feed back the amplified true HF levels.
        t = np.arange(16000) / 16000.0
        wb = Waveform(
            (0.45 * np.sin(2 * np.pi * 1000 * t) + 0.1 * np.sin(2 * np.pi * 6000 * t))
            * np.hanning(16000),
            16000,
        )
        nb = dsp.downsample2(wb)
        hf_levels = dsp.mulaw_encode(dsp.make_hf_target(wb, gain=4.0))
        out = reconstruct_wideband(nb, hf_levels, strategy="hf", hf_gain=4.0)
        margin = slice(600, -600)  # outside filter warm-up
        ref = Waveform(wb.samples[margin], 16000)
        deg = Waveform(out.samples[margin], 16000)
        assert snr(ref, deg) >= 30.0

    def test_low_band_untouched(self):
        nb = noise_wave(8000, seed=16, amp=0.3, rate=8000)
        rng = np.random.default_rng(17)
        generated = QuantizedWaveform(rng.integers(0, 256, 16000), 16000)
        out = reconstruct_wideband(nb, generated, strategy="hf", hf_gain=4.0)
        base = dsp.upsample2(nb)
        diff = Waveform(out.samples - base.samples, 16000)
        spec = dsp.stft(diff, 512, 256)
        freqs = np.fft.rfftfreq(512, 1 / 16000)
        low = np.sum(np.abs(spec[:, freqs < 3500]) ** 2)
        base_spec = dsp.stft(base, 512, 256)
        base_low = np.sum(np.abs(base_spec[:, freqs < 3500]) ** 2)
        assert 10 * np.log10(low / base_low) <= -35.0

    def test_linear_in_generated_hf(self):
        nb = noise_wave(4000, seed=18, amp=0.2, rate=8000)
        base = dsp.upsample2(nb)
        rng = np.random.default_rng(19)
        levels = rng.integers(0, 256, 8000)
        out1 = reconstruct_wideband(nb, QuantizedWaveform(levels, 16000), "hf", 4.0)
        hf1 = out1.samples - base.samples
        out2 = reconstruct_wideband(nb, QuantizedWaveform(levels, 16000), "hf", 8.0)
        hf2 = out2.samples - base.samples
        np.testing.assert_allclose(hf1, 2.0 * hf2, atol=1e-9)

    def test_rate_and_length_validation(self):
        nb = noise_wave(4000, rate=8000)
        with pytest.raises(ValueError, match="rate"):
            reconstruct_wideband(nb, QuantizedWaveform(np.zeros(8000, int), 8000))
        with pytest.raises(ValueError, match="length"):
            reconstruct_wideband(nb, QuantizedWaveform(np.zeros(100, int), 16000))


class TestReports:
    def make_report(self, n=3):
        rows = []
        for i in range(n):
            ref = noise_wave(8192, seed=20 + i)
            deg = Waveform(ref.samples * (0.6 + 0.1 * i), 16000)
            rows.append(evaluate_utterance(f"utt{i}", ref, deg))
        return build_report(rows)

    def test_means_within_range(self):
        report = self.make_report()
        for key in ("snr", "lsd", "acc"):
            values = [r.values[key] for r in report.rows]
            assert min(values) <= report.means[key] <= max(values)
            assert report.ci95[key] >= 0

    def test_single_utterance_ci_absent(self):
        report = self.make_report(1)
        assert report.ci95["snr"] is None
        assert "n/a" in format_report_text(report)

    def test_csv_layout(self):
        report = self.make_report()
        csv = format_report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "id,acc,snr,snr_v,snr_u,lsd,lsd_v,lsd_u"
        assert len(lines) == 1 + 3 + 1  # header + utterances + mean
        assert lines[-1].startswith("mean,")

    def test_identical_pair_row(self):
        ref = noise_wave(8192, seed=30)
        row = evaluate_utterance("same", ref, ref)
        assert row.values["snr"] == 120.0
        assert row.values["lsd"] == 0.0
        assert row.values["acc"] == 100.0
