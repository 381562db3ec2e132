#!/usr/bin/env python3
"""End-to-end bandwidth extension on a synthetic corpus: build training
pairs under the high-frequency mapping strategy, overfit a desk-scale
hierarchical model, then reconstruct wideband audio from a narrowband
input and measure the result.

Takes about a minute. Run:  python3 demos/02_bandwidth_extension_end_to_end.py
"""

import time

import numpy as np

from bwex import dsp
from bwex.data import build_pair
from bwex.dsp import Waveform
from bwex.metrics import lsd, snr, reconstruct_wideband
from bwex.models import HrnnConfig, build_model, generate
from bwex.train import TrainConfig, train


def mixture(phase, n=4000, rate=16000):
    """1 kHz fundamental plus a phase-locked 6 kHz harmonic."""
    t = np.arange(n) / rate
    x = 0.45 * np.sin(2 * np.pi * 1000 * t + phase)
    x += 0.1 * np.sin(2 * np.pi * 6000 * t + 6 * phase)
    fade = np.ones(n)
    fade[:160] = np.linspace(0, 1, 160)
    fade[-160:] = np.linspace(1, 0, 160)
    return Waveform(x * fade, rate)


def main():
    print("Building a toy corpus: four 0.25 s mixtures of 1 kHz + 6 kHz...")
    waves = [mixture(p) for p in (0.0, 1.3, 2.9, 4.4)]
    pairs = [build_pair(w, strategy="hf", hf_gain=4.0, utt_id=f"u{i}") for i, w in enumerate(waves)]
    print("Each pair: input = mu-law of the upsampled narrowband signal,")
    print("target = mu-law of the 4x-amplified high-frequency residual.\n")

    cfg = TrainConfig(
        model=HrnnConfig(hidden=32, embed_dim=16),
        lr=3e-3,
        batch_size=1,
        max_epochs=60,
        patience=60,
        seed=11,
    )
    tiers = ", ".join(
        f"{t.kind}(frame={t.frame_size}, concat={t.n_concat})" for t in cfg.model.tiers
    )
    print(f"Model tiers (bottom to top): {tiers}")
    print(f"Training {cfg.max_epochs} epochs (desk scale: hidden {cfg.model.hidden})...")
    start = time.time()
    result = train(cfg, pairs, pairs, log=lambda msg: print("  " + msg) if "0:" in msg else None)
    print(f"...done in {time.time() - start:.0f} s; final CE "
          f"{result.history[-1].train_ce:.3f} nats/sample\n")

    model = build_model(cfg.model, rng=np.random.default_rng(0))
    model.load_params(result.checkpoint.params)

    truth, pair = waves[0], pairs[0]
    print("Extending the narrowband version of the first mixture...")
    generated = generate(model, pair.input_levels)
    recon = reconstruct_wideband(pair.narrowband, generated, strategy="hf", hf_gain=4.0)
    baseline = dsp.upsample2(pair.narrowband)

    for name, candidate in (("zero-HF baseline", baseline), ("reconstruction", recon)):
        band = lsd(truth, candidate, fmin_hz=4000, fmax_hz=8000)
        print(f"  {name:>18}: 4-8 kHz band LSD {band:6.2f} dB,"
              f" SNR {snr(truth, candidate):6.2f} dB")
    print("\nThe reconstruction restores the 6 kHz harmonic the narrowband")
    print("channel dropped; the band below 4 kHz passes through untouched.")


if __name__ == "__main__":
    main()
