"""Tests for companding, filtering, resampling, features, and V/UV detection."""

import numpy as np
import pytest

from bwex.dsp import (
    MFCC_DIM,
    ConditionTrack,
    FirFilter,
    Waveform,
    QuantizedWaveform,
    apply_filter,
    decode_levels,
    design_highpass,
    design_lowpass,
    downsample2,
    encode_levels,
    expand_amplitude,
    frame_vuv,
    frames,
    make_hf_target,
    mel_filterbank,
    mfcc,
    mulaw_decode,
    mulaw_encode,
    stft,
    upsample2,
)
from bwex.dsp import _deltas


def sine(freq, n, rate, amp=0.5, fade=True):
    """Test tone; Hann fade keeps it genuinely band-limited at the edges."""
    x = amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)
    if fade:
        x *= np.hanning(n)
    return Waveform(x, rate)


def filter_response_db(taps, freq_hz, rate):
    """Independent oracle: direct DFT of the taps at one frequency."""
    n = np.arange(len(taps))
    h = np.sum(taps * np.exp(-2j * np.pi * freq_hz / rate * n))
    return 20.0 * np.log10(np.abs(h) + 1e-300)


def rms(x):
    return np.sqrt(np.mean(np.square(x)))


class TestTypes:
    def test_waveform_clips_on_construction(self):
        w = Waveform(np.array([-2.0, -0.5, 0.5, 2.0]), 16000)
        np.testing.assert_array_equal(w.samples, [-1.0, -0.5, 0.5, 1.0])

    def test_waveform_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0)

    def test_quantized_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QuantizedWaveform(np.array([0, 256]), 16000)
        with pytest.raises(ValueError):
            QuantizedWaveform(np.array([-1, 10]), 16000)

    def test_fir_filter_invariants(self):
        with pytest.raises(ValueError):
            FirFilter(np.ones(4))  # even tap count
        with pytest.raises(ValueError):
            FirFilter(np.array([1.0, 2.0, 3.0]))  # asymmetric
        f = FirFilter(np.array([0.25, 0.5, 0.25]))
        assert f.group_delay_samples == 1


class TestMulaw:
    def test_zero_maps_to_midpoint(self):
        assert encode_levels(np.array([0.0]))[0] == 128

    def test_saturation_endpoints(self):
        assert encode_levels(np.array([1.0]))[0] == 255
        assert encode_levels(np.array([-1.0]))[0] == 0

    def test_encode_decode_identity_all_levels(self):
        # Exhaustive oracle over the whole alphabet.
        q = np.arange(256)
        assert np.array_equal(encode_levels(decode_levels(q)), q)

    def test_decode_midpoint_near_zero(self):
        # Analytic bin center: F^-1(0.5 * 2/256) = 8.587e-05.
        s = decode_levels(np.array([128]))[0]
        assert abs(s) < 0.002
        np.testing.assert_allclose(s, 8.587117119261422e-05, rtol=1e-12)

    def test_decode_top_level(self):
        s = decode_levels(np.array([255]))[0]
        assert 0.93 < s <= 1.0
        np.testing.assert_allclose(s, 0.9784880309586322, rtol=1e-12)

    def test_decode_strictly_increasing(self):
        s = decode_levels(np.arange(256))
        assert np.all(np.diff(s) > 0)

    @staticmethod
    def closed_form(levels):
        """`decode_levels` before its level table."""
        return expand_amplitude((levels + 0.5) * 2.0 / 256 - 1.0)

    def test_decode_is_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(11)
        whole = rng.integers(0, 256, 4099)
        cases = [np.arange(256), np.arange(256)[::-1], np.zeros(0, np.int64), np.zeros((3, 0), np.int32)]
        for dtype in (np.uint8, np.int16, np.int32, np.int64, np.uint64):
            levels = whole.astype(dtype)
            cases += [levels[:n] for n in (1, 3, 7, 17, 255, 1001)]  # odd lengths
            cases += [levels[k : k + 1000] for k in (1, 3, 5)]  # offset views
            cases += [levels[::3], levels[:4096].reshape(4, 1024), levels[:4096].reshape(64, 64)[:, 1::2]]
        for levels in cases:
            got, want = decode_levels(levels), self.closed_form(levels)
            assert got.dtype == np.float64 and got.shape == levels.shape
            assert got.tobytes() == want.tobytes(), (levels.dtype, levels.shape)

    @pytest.mark.parametrize("levels", [np.array([0.0, 128.0]), np.array([1.5]), np.array([True, False]), np.zeros(0)])
    def test_decode_refuses_non_integer_levels(self, levels):
        with pytest.raises(ValueError, match="integers"):
            decode_levels(levels)

    @pytest.mark.parametrize("levels", [[-1, 3], [256], np.array([[0, 300]])])
    def test_decode_refuses_levels_out_of_range(self, levels):
        with pytest.raises(ValueError, match="out of range"):
            decode_levels(levels)

    def test_decode_encode_error_within_bin_width(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-1.0, 1.0, size=100_000)
        err = np.abs(s - decode_levels(encode_levels(s)))
        q = encode_levels(s)
        lo = expand_amplitude(q * 2.0 / 256.0 - 1.0)
        hi = expand_amplitude((q + 1) * 2.0 / 256.0 - 1.0)
        assert np.all(err <= (hi - lo) + 1e-15)

    def test_encode_monotone(self):
        s = np.linspace(-1.0, 1.0, 4001)
        assert np.all(np.diff(encode_levels(s)) >= 0)

    def test_typed_wrappers_preserve_rate_and_length(self):
        w = sine(440, 1000, 8000)
        q = mulaw_encode(w)
        assert q.sample_rate_hz == 8000 and len(q) == 1000
        back = mulaw_decode(q)
        assert back.sample_rate_hz == 8000 and len(back) == 1000


class TestFilterDesign:
    def test_lowpass_unity_dc(self):
        f = design_lowpass(3600, 16000, 101)
        np.testing.assert_allclose(f.taps.sum(), 1.0, atol=1e-6)

    def test_highpass_zero_dc(self):
        f = design_highpass(4000, 16000, 101)
        np.testing.assert_allclose(f.taps.sum(), 0.0, atol=1e-6)

    def test_highpass_response_oracle(self):
        # DFT-of-taps oracle at the spec frequencies.
        f = design_highpass(4000, 16000, 101)
        assert filter_response_db(f.taps, 6000, 16000) >= -1.0
        assert filter_response_db(f.taps, 1000, 16000) <= -40.0

    def test_even_taps_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(1000, 16000, 100)

    def test_out_of_range_cutoff_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(9000, 16000, 101)
        with pytest.raises(ValueError):
            design_highpass(0.0, 16000, 101)


class TestApplyFilter:
    def test_identity_filter(self):
        w = sine(500, 400, 16000)
        out = apply_filter(w, FirFilter(np.array([1.0])))
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_zero_input(self):
        out = apply_filter(Waveform(np.zeros(100), 16000), design_lowpass(1000, 16000, 31))
        assert not np.any(out.samples)

    def test_delta_reproduces_centered_taps(self):
        # Direct convolution oracle: impulse response lands centered.
        f = design_lowpass(2000, 16000, 31)
        x = np.zeros(101)
        x[50] = 1.0
        out = apply_filter(Waveform(x, 16000), f).samples
        np.testing.assert_allclose(out[50 - 15 : 50 + 16], f.taps, atol=1e-12)

    def test_length_preserved(self):
        w = sine(500, 777, 16000)
        assert len(apply_filter(w, design_lowpass(1000, 16000, 101))) == 777

    def test_linearity(self):
        rng = np.random.default_rng(3)
        f = design_highpass(4000, 16000, 101)
        x = rng.uniform(-0.4, 0.4, 2000)
        y = rng.uniform(-0.4, 0.4, 2000)
        a, b = 0.3, -0.7
        lhs = apply_filter(Waveform(a * x + b * y, 16000), f).samples
        rhs = a * apply_filter(Waveform(x, 16000), f).samples + b * apply_filter(
            Waveform(y, 16000), f
        ).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestResampling:
    def test_downsample_preserves_dc(self):
        w = Waveform(np.full(16000, 0.5), 16000)
        out = downsample2(w)
        assert out.sample_rate_hz == 8000
        # Interior only: the convolution edge ramp is not steady state.
        interior = out.samples[300:-300]
        np.testing.assert_allclose(interior, 0.5, atol=1e-3)

    def test_downsample_kills_high_band(self):
        w = sine(6000, 16000, 16000)
        out = downsample2(w)
        assert rms(out.samples) <= 0.01 * rms(w.samples)

    def test_downsample_length_and_rate(self):
        assert len(downsample2(Waveform(np.zeros(16000), 16000))) == 8000
        assert len(downsample2(Waveform(np.zeros(16001), 16000))) == 8001
        with pytest.raises(ValueError):
            downsample2(Waveform(np.zeros(10), 16001))

    def test_upsample_preserves_tone(self):
        w = sine(1000, 8000, 8000)
        out = upsample2(w)
        assert out.sample_rate_hz == 16000 and len(out) == 16000
        assert abs(rms(out.samples) / rms(w.samples) - 1.0) < 0.05

    def test_upsample_zero_in_zero_out(self):
        out = upsample2(Waveform(np.zeros(500), 8000))
        assert len(out) == 1000 and not np.any(out.samples)

    def test_upsample_high_band_suppressed(self):
        # STFT band-energy oracle: 4-8 kHz at least 40 dB under 0-4 kHz.
        w = sine(1000, 8000, 8000)
        out = upsample2(w)
        spec = stft(out, 512, 256)
        freqs = np.fft.rfftfreq(512, 1.0 / 16000)
        power = np.sum(np.abs(spec) ** 2, axis=0)
        lo = power[freqs < 4000].sum()
        hi = power[freqs >= 4000].sum()
        assert 10 * np.log10(hi / lo) <= -40.0

    def test_roundtrip_bandlimited(self):
        # Signals band-limited to 3.5 kHz survive up->down within -35 dB.
        rng = np.random.default_rng(11)
        n = 16000
        t = np.arange(n) / 16000.0
        x = sum(
            np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            for f in (200.0, 700.0, 1500.0, 2200.0, 2900.0, 3400.0, 3500.0)
        )
        x *= np.hanning(n) / (np.abs(x).max() * 1.2)
        w = Waveform(x, 16000)
        back = upsample2(downsample2(w))
        err_db = 20 * np.log10(rms(back.samples - w.samples) / rms(w.samples))
        assert err_db <= -35.0


class TestHfTarget:
    def test_low_tone_rejected(self):
        w = sine(1000, 16000, 16000, amp=0.45)
        out = make_hf_target(w, gain=1.0)
        assert rms(out.samples) <= 0.01 * rms(w.samples)

    def test_high_tone_amplified(self):
        w = sine(6000, 16000, 16000, amp=0.1)
        out = make_hf_target(w, gain=4.0)
        peak = np.abs(out.samples[2000:-2000]).max()
        envelope_peak = 0.4 * np.hanning(16000).max()
        assert abs(peak - envelope_peak) / envelope_peak < 0.05

    def test_idempotent_on_highpassed_input(self):
        w = sine(6000, 16000, 16000, amp=0.2)
        once = make_hf_target(w, gain=1.0)
        twice = make_hf_target(once, gain=1.0)
        assert rms(twice.samples - once.samples) <= 0.01 * rms(once.samples)

    def test_low_band_leakage_floor(self):
        # Broadband input: below 3 kHz at most -35 dB of total output energy.
        rng = np.random.default_rng(5)
        w = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        out = make_hf_target(w, gain=1.0)
        spec = stft(out, 512, 256)
        freqs = np.fft.rfftfreq(512, 1.0 / 16000)
        power = np.sum(np.abs(spec) ** 2, axis=0)
        low = power[freqs < 3000].sum()
        assert 10 * np.log10(low / power.sum()) <= -35.0

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_hf_target(sine(6000, 100, 16000), gain=0.5)

    def test_hf_levels_near_128_for_low_tone(self):
        # Pipeline oracle: amplified HF of a pure low tone quantizes to
        # (near) the zero level.
        w = sine(1000, 16000, 16000, amp=0.45)
        target = make_hf_target(w, gain=4.0)
        levels = encode_levels(target.samples)
        assert np.all(np.abs(levels - 128) <= 4)


class TestStft:
    def test_zero_input(self):
        spec = stft(Waveform(np.zeros(2000), 16000), 512, 256)
        assert spec.shape == (6, 257)
        assert not np.any(np.abs(spec))

    def test_too_short_signal_is_empty(self):
        spec = stft(Waveform(np.zeros(100), 16000), 512, 256)
        assert spec.shape == (0, 257)

    def test_bin_aligned_sine_is_sparse(self):
        # Direct DFT oracle: bin 32 of a 512-FFT at 16 kHz is 1000 Hz.
        w = sine(1000, 4096, 16000, fade=False)
        spec = np.abs(stft(w, 512, 256))
        for frame in spec:
            peak = np.argmax(frame)
            assert peak == 32
            others = np.concatenate([frame[: peak - 2], frame[peak + 3 :]])
            assert 20 * np.log10(frame[peak] / (others.max() + 1e-300)) >= 20.0

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 3000)
        w = Waveform(x, 16000)
        frame_len, shift, nfft = 512, 256, 512
        spec = stft(w, frame_len, shift)
        window = np.hanning(frame_len)
        for i in range(spec.shape[0]):
            frame = x[i * shift : i * shift + frame_len] * window
            weights = np.full(nfft // 2 + 1, 2.0)
            weights[0] = weights[-1] = 1.0
            bin_energy = np.sum(weights * np.abs(spec[i]) ** 2) / nfft
            np.testing.assert_allclose(bin_energy, np.sum(frame**2), rtol=1e-6)

    def test_frame_count_formula(self):
        w = Waveform(np.zeros(16000), 16000)
        assert stft(w, 400, 160).shape[0] == (16000 - 400) // 160 + 1


class TestMfcc:
    def test_dims_with_and_without_deltas(self):
        # 13 static cepstra, then their deltas, then the deltas of those
        track = mfcc(sine(440, 16000, 16000))
        assert track.dim == MFCC_DIM == 39
        static, d1, d2 = np.split(track.frames, 3, axis=1)
        d1_want = _deltas(static.astype(np.float64))
        np.testing.assert_allclose(d1, d1_want, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(d2, _deltas(d1_want), rtol=1e-4, atol=1e-4)

    def test_frame_count_one_second(self):
        track = mfcc(sine(440, 16000, 16000))
        assert track.n_frames == 98
        assert track.frame_shift_samples == 160

    def test_narrowband_rate_framing(self):
        # the same 25 ms / 10 ms framing at 8 kHz: 200 / 80 samples
        track = mfcc(sine(440, 8000, 8000))
        assert track.n_frames == (8000 - 200) // 80 + 1 == 98
        assert track.dim == 39 and track.frame_shift_samples == 80
        assert mfcc(Waveform(np.zeros(199), 8000)).n_frames == 0
        assert mfcc(Waveform(np.zeros(200), 8000)).n_frames == 1

    def test_silence_gives_constant_frames(self):
        track = mfcc(Waveform(np.zeros(16000), 16000))
        expected = np.broadcast_to(track.frames[0], track.frames.shape)
        np.testing.assert_allclose(track.frames, expected, atol=1e-6)

    def test_too_short_signal_empty(self):
        track = mfcc(Waveform(np.zeros(100), 16000))
        assert track.n_frames == 0 and track.dim == 39

    def test_pure(self):
        w = sine(440, 16000, 16000)
        a = mfcc(w)
        b = mfcc(w)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_filterbank_covers_spectrum(self):
        bank = mel_filterbank(26, 512, 16000)
        assert bank.shape == (26, 257)
        # Interior bins are covered by at least one filter.
        assert np.all(bank[:, 5:-5].sum(axis=0) > 0)


def index_frames(x, frame_len, frame_shift):
    """Oracle: the frame matrix gathered through an index matrix."""
    n_frames = max(0, (len(x) - frame_len) // frame_shift + 1)
    idx = np.arange(frame_len)[None, :] + frame_shift * np.arange(n_frames)[:, None]
    return x[idx]


class TestFrames:
    @pytest.mark.parametrize("frame_len, frame_shift", [(512, 256), (400, 160), (200, 80)])
    @pytest.mark.parametrize("n", [0, 100, 199, 200, 511, 512, 513, 4000, 48123])
    def test_frames_match_the_index_oracle(self, n, frame_len, frame_shift):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        got = frames(x, frame_len, frame_shift)
        want = index_frames(x, frame_len, frame_shift)
        assert got.shape == want.shape == (len(want), frame_len)
        np.testing.assert_array_equal(got, want)
        # The windowed spectra and frame energies built on them are
        # bit-identical to those built on the gathered frames.
        window = np.hanning(frame_len)
        nfft = 1 << (frame_len - 1).bit_length()
        np.testing.assert_array_equal(
            stft(Waveform(x, 16000), frame_len, frame_shift), np.fft.rfft(want * window, n=nfft, axis=1)
        )
        np.testing.assert_array_equal(np.sum(got**2, axis=1), np.sum(want**2, axis=1))

    def test_frames_are_a_read_only_view(self):
        x = np.arange(10.0)
        view = frames(x, 4, 3)
        assert np.shares_memory(view, x) and not view.flags.writeable
        np.testing.assert_array_equal(view, [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]])


class TestFrameVuv:
    def test_tone_all_voiced(self):
        flags = frame_vuv(sine(200, 16000, 16000, fade=False), 512, 256)
        assert flags.all()

    def test_noise_all_unvoiced(self):
        rng = np.random.default_rng(1)
        tone = sine(200, 16000, 16000, fade=False).samples
        noise = rng.standard_normal(16000)
        noise *= rms(tone) / rms(noise)
        assert not frame_vuv(Waveform(noise, 16000), 512, 256).any()

    def test_silence_all_unvoiced(self):
        assert not frame_vuv(Waveform(np.zeros(16000), 16000), 512, 256).any()

    def test_deterministic(self):
        w = sine(200, 8000, 16000, fade=False)
        np.testing.assert_array_equal(frame_vuv(w, 512, 256), frame_vuv(w, 512, 256))


class TestConditionTrack:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConditionTrack(np.zeros(10), 160)
        with pytest.raises(ValueError):
            ConditionTrack(np.zeros((4, 3)), 0)
