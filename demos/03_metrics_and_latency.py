#!/usr/bin/env python3
"""Objective-metric behaviors and the latency accounting for the three
architectures.

Run:  python3 demos/03_metrics_and_latency.py
"""

import numpy as np

from bwex.dsp import Waveform, frame_vuv
from bwex.metrics import (
    LSD_FRAME_LEN,
    LSD_FRAME_SHIFT,
    build_report,
    evaluate_utterance,
    format_report_text,
    lsd,
    snr,
    split_metrics,
)
from bwex.models import HrnnConfig, SrnnConfig, max_latency_ms


def main():
    rng = np.random.default_rng(0)
    rate = 16000

    print("== SNR and LSD sanity ==")
    ref = Waveform(rng.uniform(-0.5, 0.5, rate), rate)
    for scale in (1.0, 0.5, 0.1):
        deg = Waveform(ref.samples * scale, rate)
        print(f"  degraded = {scale} * reference: SNR {snr(ref, deg):7.2f} dB,"
              f" LSD {lsd(ref, deg):6.3f} dB")
    print("  (scaling by 0.5 costs exactly 20*log10(2) = 6.02 dB of LSD)\n")

    print("== voiced/unvoiced split ==")
    n = 16384
    half = n // 2
    tone = 0.5 * np.sin(2 * np.pi * 200 * np.arange(half) / rate)
    noise = rng.uniform(-0.4, 0.4, half)
    signal = Waveform(np.concatenate([tone, noise]), rate)
    degraded_samples = signal.samples.copy()
    degraded_samples[half:] *= 0.6  # distort only the noisy half
    degraded = Waveform(degraded_samples, rate)
    flags = frame_vuv(signal, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
    out = split_metrics(signal, degraded, flags)
    print(f"  tone half voiced frames: {int(flags.sum())}/{len(flags)}")
    print(f"  SNR-V {out['snr_v']:.1f} dB vs SNR-U {out['snr_u']:.1f} dB"
          " (distortion was confined to the unvoiced half)\n")

    print("== corpus report ==")
    rows = []
    for i in range(3):
        r = Waveform(rng.uniform(-0.5, 0.5, 9000), rate)
        d = Waveform(r.samples * (0.5 + 0.15 * i), rate)
        rows.append(evaluate_utterance(f"utt{i}", r, d))
    print(format_report_text(build_report(rows)))
    print()

    print("== maximal latency (future input needed per output sample) ==")
    systems = [
        ("sample-level RNN", SrnnConfig()),
        ("3-tier hierarchy (16, 4)", HrnnConfig()),
        ("conditional hierarchy + 25 ms MFCC window",
         HrnnConfig(cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0)),
    ]
    for name, cfg in systems:
        print(f"  {name:>42}: {max_latency_ms(cfg, rate):g} ms")
    print("\nThe sample-level model is causal; the hierarchy waits for")
    print("concat * frame_size - 1 = 31 future samples at its top tier; the")
    print("conditional variant inherits its feature window instead.")


if __name__ == "__main__":
    main()
