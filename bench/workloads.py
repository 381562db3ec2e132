"""Workload definitions and the seeded input generator.

Every input a run uses (checkpoints, WAV files, manifests, config text) is
made here from the `--seed` argument; the program under test receives only
these files. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import importlib
import wave
from pathlib import Path

import numpy as np
import scipy.signal

WIDEBAND_RATE = 16000
NARROWBAND_RATE = 8000

# The reference system's tier layout: frame sizes 16,4; concat 2,2,4.
_TIERS = {"frame_sizes": (16, 4), "n_concat": (2, 2, 4), "strategy": "hf"}

# Lengths are fixed ladders so every seed asks for the same amount of work;
# the seed draws the audio content and the order. The longest input always
# comes first, so the cost of first touching the activation memory falls on
# the same input on every seed.
WORKLOADS = {
    "extend_paper": {
        "kind": "extend",
        "model": dict(_TIERS, hidden=1024, embed_dim=256),
        "lengths_s": [0.35, 0.3, 0.25, 0.2],
        "warmup_s": 0.05,
        "kernel_steps": 100,
    },
    "extend_desk_long": {
        "kind": "extend",
        "model": dict(_TIERS, hidden=32, embed_dim=16),
        "lengths_s": [4.0, 3.5, 3.0, 2.5, 2.0],
        "warmup_s": 0.05,
        "kernel_steps": 10000,
    },
    "train_mid": {
        "kind": "train",
        "model": dict(_TIERS, hidden=256, embed_dim=64),
        "train_lengths_s": [0.3, 0.27, 0.24, 0.21],
        "valid_lengths_s": [0.3, 0.25],
        "batch_size": 4,
        "chunk_len": 480,
        "epochs": 6,
        "kernel_steps": 1200,
    },
}


# ---------------------------------------------------------------------------
# Speech-like audio
# ---------------------------------------------------------------------------

# Segment kinds with their probabilities and duration ranges in seconds.
_SEGMENTS = (("voiced", 0.55, (0.06, 0.20)), ("unvoiced", 0.25, (0.03, 0.10)), ("silence", 0.20, (0.03, 0.12)))
_FADE_S = 0.008


def _envelope(n: int, rate: int) -> np.ndarray:
    fade = min(int(_FADE_S * rate), n // 2)
    env = np.ones(n)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        env[:fade] = ramp
        env[n - fade :] = ramp[::-1]
    return env


def _voiced(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Harmonic segment with a gliding, vibrato-modulated f0.

    Harmonics run up to 0.95 x Nyquist with a gentle spectral tilt, so the
    band above 4 kHz carries energy the way voiced speech does.
    """
    t = np.arange(n) / rate
    f_start = rng.uniform(90.0, 240.0)
    f0 = np.linspace(f_start, f_start * rng.uniform(0.75, 1.3), n)
    f0 *= 1.0 + 0.03 * np.sin(2 * np.pi * rng.uniform(3.0, 7.0) * t)
    phase = 2 * np.pi * np.cumsum(f0) / rate
    k = np.arange(1, int(0.5 * rate / f0.min()) + 1)[:, None]
    amps = k ** -rng.uniform(0.6, 1.0) * (k * f0[None] < 0.95 * 0.5 * rate)
    x = np.sum(amps * np.sin(k * phase[None] + rng.uniform(0, 2 * np.pi, size=k.shape)), axis=0)
    x += 0.05 * np.std(x) * rng.standard_normal(n)  # breath noise
    return rng.uniform(0.4, 1.0) * x / max(np.max(np.abs(x)), 1e-12) * _envelope(n, rate)


def _unvoiced(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Fricative-like burst: white noise tilted towards high frequencies."""
    noise = np.diff(rng.standard_normal(n + 1))
    return rng.uniform(0.1, 0.4) * noise / max(np.max(np.abs(noise)), 1e-12) * _envelope(n, rate)


def speech_like(rng: np.random.Generator, duration_s: float, rate: int = WIDEBAND_RATE) -> np.ndarray:
    """Voiced segments, unvoiced bursts and silences, peak-normalised to 0.5."""
    n = int(round(duration_s * rate))
    out = np.zeros(n)
    kinds, probs, ranges = zip(*_SEGMENTS)
    pos = int(rng.uniform(0.01, 0.03) * rate)  # leading silence
    while pos < n:
        kind = rng.choice(len(kinds), p=probs)
        seg = min(int(rng.uniform(*ranges[kind]) * rate), n - pos)
        if kinds[kind] == "voiced":
            out[pos : pos + seg] = _voiced(rng, seg, rate)
        elif kinds[kind] == "unvoiced":
            out[pos : pos + seg] = _unvoiced(rng, seg, rate)
        pos += seg
    out *= 0.5 / max(np.max(np.abs(out)), 1e-12)
    return out + 1e-4 * rng.standard_normal(n)  # noise floor: silence is never digital zero


def narrowband(wideband: np.ndarray) -> np.ndarray:
    """8 kHz version of a 16 kHz signal (polyphase anti-alias decimation)."""
    return scipy.signal.resample_poly(wideband, 1, 2)


# ---------------------------------------------------------------------------
# WAV files (16-bit mono PCM), written and read without the program under test
# ---------------------------------------------------------------------------

def write_pcm(path, samples: np.ndarray, rate: int):
    pcm = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(rate)
        writer.writeframes(pcm.tobytes())


def read_pcm(path) -> tuple[int, np.ndarray]:
    """(sample rate, int16 samples) of a mono 16-bit WAV."""
    with wave.open(str(path), "rb") as reader:
        if reader.getnchannels() != 1 or reader.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        return reader.getframerate(), np.frombuffer(reader.readframes(reader.getnframes()), dtype="<i2")


# ---------------------------------------------------------------------------
# Inputs per workload
# ---------------------------------------------------------------------------

def _train_config(spec: dict, seed: int = 0):
    models = importlib.import_module("bwex.models")
    train = importlib.import_module("bwex.train")
    m = spec["model"]
    model_cfg = models.HrnnConfig.build(
        frame_sizes=tuple(m["frame_sizes"]),
        n_concat=tuple(m["n_concat"]),
        hidden=m["hidden"],
        embed_dim=m["embed_dim"],
        strategy=m["strategy"],
    )
    epochs = spec.get("epochs", 1)
    return train.TrainConfig(
        model=model_cfg,
        batch_size=spec.get("batch_size", 8),
        max_epochs=epochs,
        patience=epochs,  # early stopping can never shorten the run
        chunk_len=spec.get("chunk_len", 480),
        seed=seed,
    )


def _order(rng: np.random.Generator, lengths: list) -> list:
    """Longest first, the rest in seeded order."""
    longest, *rest = sorted(lengths, reverse=True)
    return [longest] + [rest[i] for i in rng.permutation(len(rest))]


def make_inputs(spec: dict, seed: int, workdir: Path) -> dict:
    """Write one run's inputs under workdir; returns their paths and sizes."""
    seed %= 2**32  # numpy seeds are non-negative
    workdir.mkdir(parents=True, exist_ok=True)
    audio_rng = np.random.default_rng([seed, 1])
    if spec["kind"] == "train":
        return _make_corpus(spec, seed, audio_rng, workdir)
    config = importlib.import_module("bwex.config")
    models = importlib.import_module("bwex.models")
    train = importlib.import_module("bwex.train")
    train_cfg = _train_config(spec)
    model = models.build_model(train_cfg.model, rng=np.random.default_rng([seed, 0]))
    ckpt_path = workdir / "model.ckpt"
    train.save_checkpoint(
        ckpt_path,
        train.Checkpoint(config_text=config.serialize_config(train_cfg), params=model.params, metadata={"epoch": 0}),
    )
    del model
    utterances = []
    for i, dur in enumerate([spec["warmup_s"]] + _order(audio_rng, spec["lengths_s"])):
        path = workdir / ("warmup.wav" if i == 0 else f"in_{i - 1:03d}.wav")
        samples = narrowband(speech_like(audio_rng, dur))
        write_pcm(path, samples, NARROWBAND_RATE)
        utterances.append({"path": str(path), "samples": len(samples), "duration_s": len(samples) / NARROWBAND_RATE})
    return {"checkpoint": str(ckpt_path), "warmup": utterances[0], "utterances": utterances[1:]}


def _make_corpus(spec: dict, seed: int, rng: np.random.Generator, workdir: Path) -> dict:
    config = importlib.import_module("bwex.config")
    manifests = {}
    for split in ("train", "valid"):
        lines = []
        for i, dur in enumerate(_order(rng, spec[f"{split}_lengths_s"])):
            path = workdir / f"{split}_{i:03d}.wav"
            write_pcm(path, speech_like(rng, dur), WIDEBAND_RATE)
            lines.append(f"{split}{i:03d}\t{path.name}\n")
        manifests[split] = workdir / f"{split}.tsv"
        manifests[split].write_text("".join(lines), encoding="utf-8")
    train_cfg = _train_config(spec, seed)
    config_path = workdir / "train.cfg"
    config_path.write_text(
        config.serialize_config(train_cfg, manifests["train"].resolve(), manifests["valid"].resolve()),
        encoding="utf-8",
    )
    return {"config": str(config_path)}
