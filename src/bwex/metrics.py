"""Objective evaluation: waveform SNR, log-spectral distance, their
voiced/unvoiced splits, level accuracy, wideband reconstruction, and
corpus report emission (text table + CSV).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np

from . import dsp
from .dsp import QuantizedWaveform, Waveform

SNR_CAP_DB = 120.0
_EPS = 1e-10

# Framing shared by LSD and the V/UV split: 32 ms window, 16 ms shift.
LSD_FRAME_LEN = 512
LSD_FRAME_SHIFT = 256


def _check_comparable(reference: Waveform, degraded: Waveform):
    if len(reference) != len(degraded):
        raise ValueError(f"length mismatch: {len(reference)} vs {len(degraded)}")
    if reference.sample_rate_hz != degraded.sample_rate_hz:
        raise ValueError(
            f"rate mismatch: {reference.sample_rate_hz} vs {degraded.sample_rate_hz}"
        )


def snr(reference: Waveform, degraded: Waveform) -> float:
    """Global waveform SNR in dB, capped at +120 for the zero-noise case
    and at -120 for a silent reference."""
    _check_comparable(reference, degraded)
    return _snr_samples(reference.samples, degraded.samples)


def _snr_samples(ref: np.ndarray, deg: np.ndarray) -> float:
    signal = float(np.sum(ref**2))
    noise = float(np.sum((ref - deg) ** 2))
    if noise == 0.0:
        return SNR_CAP_DB
    if signal == 0.0:
        return -SNR_CAP_DB
    return min(10.0 * math.log10(signal / noise), SNR_CAP_DB)


def lsd(
    reference: Waveform,
    degraded: Waveform,
    fmin_hz: float | None = None,
    fmax_hz: float | None = None,
) -> float:
    """Log-spectral distance in dB: per-frame RMS over bins of the
    log-magnitude difference, averaged over frames.

    fmin_hz/fmax_hz restrict the evaluation to a frequency band.
    """
    _check_comparable(reference, degraded)
    per_frame = _lsd_frames(reference, degraded, fmin_hz, fmax_hz)
    if per_frame.size == 0:
        raise ValueError("signal shorter than one analysis frame")
    return float(per_frame.mean())


def _lsd_frames(reference, degraded, fmin_hz=None, fmax_hz=None) -> np.ndarray:
    spec_ref = dsp.stft(reference, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    spec_deg = dsp.stft(degraded, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    nfft = 2 * (spec_ref.shape[1] - 1)
    freqs = np.fft.rfftfreq(nfft, 1.0 / reference.sample_rate_hz)
    keep = np.ones(len(freqs), dtype=bool)
    if fmin_hz is not None:
        keep &= freqs >= fmin_hz
    if fmax_hz is not None:
        keep &= freqs <= fmax_hz
    log_ref = 20.0 * np.log10(np.abs(spec_ref[:, keep]) + _EPS)
    log_deg = 20.0 * np.log10(np.abs(spec_deg[:, keep]) + _EPS)
    return np.sqrt(np.mean((log_ref - log_deg) ** 2, axis=1))


def accuracy(predicted: QuantizedWaveform, target: QuantizedWaveform, mask=None) -> float:
    """Percentage of (masked) positions whose levels match exactly."""
    if len(predicted) != len(target):
        raise ValueError(f"length mismatch: {len(predicted)} vs {len(target)}")
    mask = np.ones(len(target), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("empty mask")
    hits = int(np.sum((predicted.levels == target.levels) & mask))
    return 100.0 * hits / n_valid


def split_metrics(reference: Waveform, degraded: Waveform, voiced_flags: np.ndarray):
    """SNR and LSD restricted to voiced and unvoiced frames.

    voiced_flags must use the metric framing (32 ms / 16 ms). Returns
    {"snr_v", "snr_u", "lsd_v", "lsd_u"}; a class with no frames reports
    None (absent), never zero.
    """
    _check_comparable(reference, degraded)
    per_frame_lsd = _lsd_frames(reference, degraded)
    voiced_flags = np.asarray(voiced_flags, dtype=bool)
    if len(voiced_flags) != per_frame_lsd.size:
        raise ValueError(
            f"flag framing mismatch: {len(voiced_flags)} flags vs {per_frame_lsd.size} frames"
        )
    ref_frames = dsp.frames(reference.samples, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    deg_frames = dsp.frames(degraded.samples, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    out = {}
    for label, selector in (("v", voiced_flags), ("u", ~voiced_flags)):
        if not selector.any():
            out[f"snr_{label}"] = None
            out[f"lsd_{label}"] = None
            continue
        # the class's frames laid end to end, overlaps counted twice
        out[f"snr_{label}"] = _snr_samples(ref_frames[selector].ravel(), deg_frames[selector].ravel())
        out[f"lsd_{label}"] = float(per_frame_lsd[selector].mean())
    return out


def reconstruct_wideband(
    narrowband: Waveform,
    generated: QuantizedWaveform,
    strategy: str = "hf",
    hf_gain: float = 4.0,
    upsampled: Waveform | None = None,
) -> Waveform:
    """Assemble the final wideband signal from generated levels.

    The decoded output (deamplified by the training gain under the HF
    strategy) passes the 4 kHz highpass and is added to the upsampled
    narrowband, so the band below 4 kHz always comes from the input.
    A caller that already holds `dsp.upsample2(narrowband)` passes it as
    `upsampled`, so it is not computed twice.
    """
    if generated.sample_rate_hz != 2 * narrowband.sample_rate_hz:
        raise ValueError(
            f"generated rate {generated.sample_rate_hz} is not twice the narrowband"
            f" rate {narrowband.sample_rate_hz}"
        )
    base = dsp.upsample2(narrowband) if upsampled is None else upsampled
    if len(generated) != len(base):
        raise ValueError(f"length mismatch: generated {len(generated)} vs upsampled {len(base)}")
    decoded = dsp.decode_levels(generated.levels)
    if strategy == "hf":
        decoded = decoded / hf_gain
    elif strategy != "wb":
        raise ValueError(f"unknown strategy {strategy!r}")
    highpass = dsp.hf_highpass(generated.sample_rate_hz)
    hf_part = dsp.apply_filter(Waveform(decoded, generated.sample_rate_hz), highpass)
    return Waveform(base.samples + hf_part.samples, generated.sample_rate_hz)


# ---------------------------------------------------------------------------
# Corpus reports
# ---------------------------------------------------------------------------

_METRIC_KEYS = ("acc", "snr", "snr_v", "snr_u", "lsd", "lsd_v", "lsd_u")
CSV_HEADER = ",".join(("id", *_METRIC_KEYS))


@dataclasses.dataclass
class UtteranceMetrics:
    utt_id: str
    values: dict  # metric key -> float | None


@dataclasses.dataclass
class MetricsReport:
    rows: list
    means: dict
    ci95: dict  # half-widths; None where undefined (fewer than 2 values)


def evaluate_utterance(utt_id: str, reference: Waveform, degraded: Waveform) -> UtteranceMetrics:
    """All report metrics for one reference/degraded pair.

    Accuracy compares the mu-law encodings; V/UV flags come from the
    reference under the metric framing.
    """
    flags = dsp.frame_vuv(reference, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    values = {
        "acc": accuracy(dsp.mulaw_encode(degraded), dsp.mulaw_encode(reference)),
        "snr": snr(reference, degraded),
        "lsd": lsd(reference, degraded),
    }
    values.update(split_metrics(reference, degraded, flags))
    return UtteranceMetrics(utt_id, values)


def build_report(rows) -> MetricsReport:
    rows = list(rows)
    means, ci95 = {}, {}
    for key in _METRIC_KEYS:
        values = [r.values[key] for r in rows if r.values.get(key) is not None]
        if not values:
            means[key] = None
            ci95[key] = None
            continue
        means[key] = float(np.mean(values))
        if len(values) < 2:
            ci95[key] = None
        else:
            # stdtrit is the Student-t quantile function, so this is
            # t.ppf(0.975, n - 1) without importing scipy.stats; only eval
            # builds a report, so extend does not import scipy at all
            from scipy.special import stdtrit

            sem = np.std(values, ddof=1) / math.sqrt(len(values))
            ci95[key] = float(stdtrit(len(values) - 1, 0.975) * sem)
    return MetricsReport(rows, means, ci95)


def _fmt(value, width=9):
    return f"{'n/a':>{width}}" if value is None else f"{value:>{width}.3f}"


def format_report_text(report: MetricsReport) -> str:
    lines = [f"{'id':>12} " + " ".join(f"{k:>9}" for k in _METRIC_KEYS)]
    for row in report.rows:
        lines.append(f"{row.utt_id:>12} " + " ".join(_fmt(row.values[k]) for k in _METRIC_KEYS))
    lines.append(f"{'mean':>12} " + " ".join(_fmt(report.means[k]) for k in _METRIC_KEYS))
    lines.append(f"{'ci95':>12} " + " ".join(_fmt(report.ci95[k]) for k in _METRIC_KEYS))
    lines.append("(PESQ: n/a in this implementation)")
    return "\n".join(lines)


def format_report_csv(report: MetricsReport) -> str:
    def cells(values):
        return ["n/a" if values[k] is None else f"{values[k]:.6f}" for k in _METRIC_KEYS]

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # The writer quotes a field holding its line terminator, but not a lone
    # \r, which csv.reader takes for a line end; such a row is quoted whole.
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CSV_HEADER.split(","))
    for row in report.rows:
        (quoted if "\r" in row.utt_id else writer).writerow([row.utt_id, *cells(row.values)])
    writer.writerow(["mean", *cells(report.means)])
    return out.getvalue()
