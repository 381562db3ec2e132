"""Waveform-domain signal processing: mu-law companding, FIR filtering,
2x resampling, high-frequency target construction, STFT, MFCC features,
and voiced/unvoiced frame detection.

All functions are pure; none mutates its inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

N_LEVELS = 256
_MU = 255.0
_LOG_MU1 = np.log(1.0 + _MU)
_LOG_FLOOR = 1e-10


@dataclasses.dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate.

    Samples are clipped to [-1, 1] and stored as float64 on construction.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        samples = np.clip(np.asarray(self.samples, dtype=np.float64).reshape(-1), -1.0, 1.0)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclasses.dataclass(frozen=True)
class QuantizedWaveform:
    """8-bit mu-law level sequence (integers in [0, 255])."""

    levels: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        levels = np.asarray(self.levels).reshape(-1)
        if levels.size and (levels.min() < 0 or levels.max() > N_LEVELS - 1):
            raise ValueError(
                f"levels out of range [{levels.min()}, {levels.max()}], expected [0, {N_LEVELS - 1}]"
            )
        object.__setattr__(self, "levels", levels.astype(np.int32))

    def __len__(self) -> int:
        return len(self.levels)


@dataclasses.dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter: odd tap count, taps symmetric about center."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64).reshape(-1)
        if len(taps) % 2 != 1:
            raise ValueError(f"tap count must be odd, got {len(taps)}")
        if not np.allclose(taps, taps[::-1], atol=1e-12):
            raise ValueError("taps must be symmetric about the center")
        object.__setattr__(self, "taps", taps)

    @property
    def group_delay_samples(self) -> int:
        return (len(self.taps) - 1) // 2


@dataclasses.dataclass(frozen=True)
class MfccConfig:
    """Framing and filterbank parameters for MFCC extraction.

    Defaults give 25 ms / 10 ms framing at 16 kHz; `for_sample_rate`
    derives the same millisecond framing at other rates.
    """

    sample_rate_hz: int = 16000
    frame_len_samples: int = 400
    frame_shift_samples: int = 160
    n_mel_filters: int = 26
    n_cepstra: int = 13
    include_deltas: bool = True

    def __post_init__(self):
        if self.frame_shift_samples > self.frame_len_samples:
            raise ValueError("frame_shift_samples must not exceed frame_len_samples")
        if self.n_cepstra > self.n_mel_filters:
            raise ValueError("n_cepstra must not exceed n_mel_filters")

    @classmethod
    def for_sample_rate(cls, sample_rate_hz: int, **kwargs) -> "MfccConfig":
        return cls(
            sample_rate_hz=sample_rate_hz,
            frame_len_samples=int(round(0.025 * sample_rate_hz)),
            frame_shift_samples=int(round(0.010 * sample_rate_hz)),
            **kwargs,
        )

    @property
    def n_dims(self) -> int:
        return self.n_cepstra * 3 if self.include_deltas else self.n_cepstra

    @property
    def window_ms(self) -> float:
        return self.frame_len_samples * 1000.0 / self.sample_rate_hz


@dataclasses.dataclass(frozen=True)
class ConditionTrack:
    """Frame-level auxiliary feature matrix [n_frames, dim] with its frame shift."""

    frames: np.ndarray
    frame_shift_samples: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D [n_frames, dim], got shape {frames.shape}")
        if self.frame_shift_samples <= 0:
            raise ValueError("frame_shift_samples must be positive")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# mu-law companding
# ---------------------------------------------------------------------------

def compress_amplitude(s: np.ndarray) -> np.ndarray:
    """Continuous mu-law companding curve, [-1, 1] -> [-1, 1]."""
    s = np.asarray(s, dtype=np.float64)
    return np.sign(s) * np.log1p(_MU * np.abs(s)) / _LOG_MU1


def expand_amplitude(v: np.ndarray) -> np.ndarray:
    """Inverse of `compress_amplitude`."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * (np.power(1.0 + _MU, np.abs(v)) - 1.0) / _MU


def encode_levels(samples: np.ndarray) -> np.ndarray:
    """Quantize amplitudes in [-1, 1] to mu-law levels 0..255."""
    v = compress_amplitude(np.clip(samples, -1.0, 1.0))
    levels = np.floor((v + 1.0) / 2.0 * N_LEVELS)
    return np.clip(levels, 0, N_LEVELS - 1).astype(np.int32)


def decode_levels(levels: np.ndarray) -> np.ndarray:
    """Map mu-law levels to their bin-center amplitudes in [-1, 1]."""
    levels = np.asarray(levels)
    if levels.size and (levels.min() < 0 or levels.max() > N_LEVELS - 1):
        raise ValueError(f"levels out of range, expected [0, {N_LEVELS - 1}]")
    centers = (levels + 0.5) * 2.0 / N_LEVELS - 1.0
    return expand_amplitude(centers)


def mulaw_encode(w: Waveform) -> QuantizedWaveform:
    return QuantizedWaveform(encode_levels(w.samples), w.sample_rate_hz)


def mulaw_decode(q: QuantizedWaveform) -> Waveform:
    return Waveform(decode_levels(q.levels), q.sample_rate_hz)


# ---------------------------------------------------------------------------
# FIR design and filtering
# ---------------------------------------------------------------------------

def design_lowpass(cutoff_hz: float, sample_rate_hz: int, n_taps: int) -> FirFilter:
    """Hamming-windowed sinc lowpass, normalized to unity DC gain."""
    _check_filter_args(cutoff_hz, sample_rate_hz, n_taps)
    m = np.arange(n_taps) - (n_taps - 1) / 2.0
    taps = np.sinc(2.0 * cutoff_hz / sample_rate_hz * m) * np.hamming(n_taps)
    return FirFilter(taps / taps.sum())


def design_highpass(cutoff_hz: float, sample_rate_hz: int, n_taps: int) -> FirFilter:
    """Spectral inversion of the matching lowpass (zero DC gain)."""
    lowpass = design_lowpass(cutoff_hz, sample_rate_hz, n_taps)
    taps = -lowpass.taps
    taps[(n_taps - 1) // 2] += 1.0
    return FirFilter(taps)


def _check_filter_args(cutoff_hz, sample_rate_hz, n_taps):
    if n_taps % 2 != 1 or n_taps < 3:
        raise ValueError(f"n_taps must be odd and >= 3, got {n_taps}")
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, {sample_rate_hz / 2}) for rate {sample_rate_hz}"
        )


def apply_filter(w: Waveform, f: FirFilter) -> Waveform:
    """Zero-padded convolution with group-delay compensation (length preserved)."""
    return Waveform(_filter_samples(w.samples, f), w.sample_rate_hz)


def _filter_samples(x: np.ndarray, f: FirFilter) -> np.ndarray:
    gd = f.group_delay_samples
    return np.convolve(x, f.taps)[gd:gd + len(x)]


# ---------------------------------------------------------------------------
# 2x resampling
# ---------------------------------------------------------------------------

# Cutoffs sit at 0.45x the lower sample rate: margin keeps decimation
# aliasing and interpolation images below -40 dB.
_RESAMPLE_CUTOFF_FRACTION = 0.45
_RESAMPLE_TAPS = 511


def downsample2(w: Waveform) -> Waveform:
    """Halve the sample rate: anti-alias lowpass, keep every 2nd sample."""
    if w.sample_rate_hz % 2 != 0:
        raise ValueError(f"sample rate must be even, got {w.sample_rate_hz}")
    new_rate = w.sample_rate_hz // 2
    antialias = design_lowpass(_RESAMPLE_CUTOFF_FRACTION * new_rate, w.sample_rate_hz, _RESAMPLE_TAPS)
    return Waveform(_filter_samples(w.samples, antialias)[::2], new_rate)


def upsample2(w: Waveform) -> Waveform:
    """Double the sample rate: zero-stuff, interpolation lowpass, 2x gain.

    The output carries no content above the input Nyquist (suppression
    >= 40 dB), matching a narrowband signal embedded at the higher rate.
    """
    new_rate = 2 * w.sample_rate_hz
    stuffed = np.zeros(2 * len(w.samples), dtype=np.float64)
    stuffed[::2] = w.samples
    interp = design_lowpass(_RESAMPLE_CUTOFF_FRACTION * w.sample_rate_hz, new_rate, _RESAMPLE_TAPS)
    return Waveform(2.0 * _filter_samples(stuffed, interp), new_rate)


# ---------------------------------------------------------------------------
# High-frequency target construction
# ---------------------------------------------------------------------------

_HF_CUTOFF_HZ = 4000.0
_HF_TAPS = 101


def hf_highpass(sample_rate_hz: int) -> FirFilter:
    """The 4 kHz highpass used for HF targets and reconstruction."""
    return design_highpass(_HF_CUTOFF_HZ, sample_rate_hz, _HF_TAPS)


def make_hf_target(wideband: Waveform, gain: float = 4.0) -> Waveform:
    """High-frequency training target: highpass at 4 kHz, amplify, clip.

    Amplification moves the small HF residual into well-resolved mu-law
    levels; generation deamplifies by the same gain.
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    hf = _filter_samples(wideband.samples, hf_highpass(wideband.sample_rate_hz))
    return Waveform(np.clip(gain * hf, -1.0, 1.0), wideband.sample_rate_hz)


# ---------------------------------------------------------------------------
# Spectral analysis
# ---------------------------------------------------------------------------

def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def frame_count(n_samples: int, frame_len: int, frame_shift: int) -> int:
    if n_samples < frame_len:
        return 0
    return (n_samples - frame_len) // frame_shift + 1


def stft(w: Waveform, frame_len: int, frame_shift: int) -> np.ndarray:
    """Hann-windowed one-sided STFT.

    Returns a complex array [n_frames, nfft // 2 + 1] with
    nfft = next power of two >= frame_len. A signal shorter than one
    frame yields an empty (0-frame) spectrogram.
    """
    if frame_shift > frame_len:
        raise ValueError("frame_shift must not exceed frame_len")
    x = w.samples
    n_frames = frame_count(len(x), frame_len, frame_shift)
    nfft = _next_pow2(frame_len)
    if n_frames == 0:
        return np.zeros((0, nfft // 2 + 1), dtype=np.complex128)
    window = np.hanning(frame_len)
    idx = np.arange(frame_len)[None, :] + frame_shift * np.arange(n_frames)[:, None]
    return np.fft.rfft(x[idx] * window, n=nfft, axis=1)


# ---------------------------------------------------------------------------
# MFCC condition features
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, nfft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filters [n_filters, nfft // 2 + 1] spanning 0..Nyquist."""
    edges_mel = np.linspace(0.0, _hz_to_mel(sample_rate_hz / 2.0), n_filters + 2)
    edges_bin = _mel_to_hz(edges_mel) / sample_rate_hz * nfft
    bank = np.zeros((n_filters, nfft // 2 + 1))
    bins = np.arange(nfft // 2 + 1, dtype=np.float64)
    for i in range(n_filters):
        lo, mid, hi = edges_bin[i], edges_bin[i + 1], edges_bin[i + 2]
        up = (bins - lo) / max(mid - lo, 1e-12)
        down = (hi - bins) / max(hi - mid, 1e-12)
        bank[i] = np.maximum(0.0, np.minimum(up, down))
    return bank


def _deltas(c: np.ndarray) -> np.ndarray:
    # +-2 frame regression with edge frames repeated.
    padded = np.concatenate([c[:1], c[:1], c, c[-1:], c[-1:]], axis=0)
    return (padded[3:-1] - padded[1:-3] + 2.0 * (padded[4:] - padded[:-4])) / 10.0


def mfcc(w: Waveform, cfg: MfccConfig | None = None) -> ConditionTrack:
    """Mel-frequency cepstra with optional delta and delta-delta appended.

    The returned track's frame shift is cfg.frame_shift_samples at the
    waveform's own rate; too-short signals yield an empty track.
    """
    cfg = cfg or MfccConfig()
    if w.sample_rate_hz != cfg.sample_rate_hz:
        raise ValueError(
            f"waveform rate {w.sample_rate_hz} does not match config rate {cfg.sample_rate_hz}"
        )
    spec = stft(w, cfg.frame_len_samples, cfg.frame_shift_samples)
    if spec.shape[0] == 0:
        return ConditionTrack(np.zeros((0, cfg.n_dims), dtype=np.float32), cfg.frame_shift_samples)
    power = np.abs(spec) ** 2
    bank = mel_filterbank(cfg.n_mel_filters, _next_pow2(cfg.frame_len_samples), cfg.sample_rate_hz)
    logmel = np.log(power @ bank.T + _LOG_FLOOR)
    import scipy.fft  # here, not at the top: only MFCC needs scipy

    cep = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, : cfg.n_cepstra]
    if cfg.include_deltas:
        d1 = _deltas(cep)
        cep = np.concatenate([cep, d1, _deltas(d1)], axis=1)
    return ConditionTrack(cep.astype(np.float32), cfg.frame_shift_samples)


# ---------------------------------------------------------------------------
# Voiced/unvoiced frame detection
# ---------------------------------------------------------------------------

def frame_vuv(w: Waveform, frame_len: int, frame_shift: int) -> np.ndarray:
    """Per-frame voiced flags from an adaptive energy gate plus a ZCR gate.

    A frame is voiced iff its log energy clears an adaptive threshold
    (20th percentile + 10 dB, capped 10 dB under the maximum so that
    constant-energy signals stay classifiable, floored at -60 dB) and its
    zero-crossing rate is below 0.25. Deterministic.
    """
    x = w.samples
    n_frames = frame_count(len(x), frame_len, frame_shift)
    if n_frames == 0:
        return np.zeros(0, dtype=bool)
    idx = np.arange(frame_len)[None, :] + frame_shift * np.arange(n_frames)[:, None]
    frames = x[idx]
    log_energy = 10.0 * np.log10(np.sum(frames**2, axis=1) + _LOG_FLOOR)
    signs = np.sign(frames)
    zcr = np.mean(np.abs(np.diff(signs, axis=1)) > 0, axis=1)
    threshold = max(
        min(np.percentile(log_energy, 20.0) + 10.0, log_energy.max() - 10.0),
        -60.0,
    )
    return (log_energy > threshold) & (zcr < 0.25)
