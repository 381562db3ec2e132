"""Corpus ingestion and training-pair construction.

Wideband recordings become (input, target) level sequences per the
mapping strategy: the input is always the mu-law encoding of the
upsampled narrowband signal, the target is either the wideband waveform
itself ("wb") or the amplified high-frequency residual ("hf"). Batching
pads each mini-batch to a shared length with a loss mask, and TBPTT
chunking slices the time axis while recurrent state carries across
chunk boundaries.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import tempfile
import wave
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import ConditionTrack, QuantizedWaveform, Waveform
from .models import ModelConfig, align_condition_frames, PAD_LEVEL


class DataError(ValueError):
    """Malformed corpus input: file formats, manifests, rates, lengths."""


NARROWBAND_RATE = 8000
WIDEBAND_RATE = 16000

# The track a chrnn's conditional tier reads when `cond_source = mfcc`:
# `narrowband_mfcc`'s frames, their shift counted in wideband samples so
# that it lines up with model samples, and the analysis window the
# latency counts.
MFCC_TRACK = {
    "cond_dim": dsp.MFCC_DIM,
    "cond_frame_shift": int(round(dsp.MFCC_SHIFT_MS * WIDEBAND_RATE / 1000)),
    "cond_window_ms": dsp.MFCC_WINDOW_MS,
}


# ---------------------------------------------------------------------------
# WAV files (RIFF/WAVE, 16-bit signed little-endian PCM, mono)
# ---------------------------------------------------------------------------

_PCM_SCALE = 32768.0


def load_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV; anything else raises DataError."""
    try:
        with wave.open(str(path), "rb") as reader:
            n_channels = reader.getnchannels()
            sample_width = reader.getsampwidth()
            rate = reader.getframerate()
            n_frames = reader.getnframes()
            payload = reader.readframes(n_frames)
    except (wave.Error, EOFError, RuntimeError) as exc:
        # the stdlib reader raises RuntimeError when a chunk header claims
        # more bytes than the file holds
        raise DataError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if n_channels != 1:
        raise DataError(f"{path}: expected mono audio, found {n_channels} channels")
    if sample_width != 2:
        raise DataError(f"{path}: expected 16-bit PCM, found {8 * sample_width}-bit")
    if len(payload) % 2:
        raise DataError(f"{path}: truncated sample data ({len(payload)} bytes)")
    pcm = np.frombuffer(payload, dtype="<i2")
    return Waveform(pcm.astype(np.float64) / _PCM_SCALE, rate)


def save_wav(path, w: Waveform):
    """Write mono 16-bit PCM atomically (temp file + rename)."""
    pcm = np.clip(np.rint(w.samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    _atomic_write(path, lambda handle: _write_wav_handle(handle, pcm, w.sample_rate_hz))


def _write_wav_handle(handle, pcm, rate):
    with wave.open(handle, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(rate)
        writer.writeframes(pcm.tobytes())


def _atomic_write(path, write_fn):
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write_fn(handle)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


# ---------------------------------------------------------------------------
# Condition-feature files
#
# Little-endian binary: magic "BWEF", version u32 = 1, dim u32,
# frame_shift_samples u32, n_frames u32, then n_frames * dim float32
# row-major.
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"BWEF"
_FEATURE_VERSION = 1


def save_features(path, track: ConditionTrack):
    def write(handle):
        handle.write(_FEATURE_MAGIC)
        handle.write(
            struct.pack(
                "<IIII", _FEATURE_VERSION, track.dim, track.frame_shift_samples, track.n_frames
            )
        )
        handle.write(np.ascontiguousarray(track.frames, dtype="<f4").tobytes())

    _atomic_write(path, write)


def load_features(path) -> ConditionTrack:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != _FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}, expected {_FEATURE_MAGIC!r}")
    if len(blob) < 20:
        raise DataError(f"{path}: truncated header")
    version, dim, frame_shift, n_frames = struct.unpack("<IIII", blob[4:20])
    if version != _FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature file version {version}")
    expected = 20 + 4 * dim * n_frames
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(blob)}")
    frames = np.frombuffer(blob[20:], dtype="<f4").reshape(n_frames, dim)
    return ConditionTrack(frames.copy(), frame_shift)


# ---------------------------------------------------------------------------
# Manifests: one utterance per line, `<id>\t<wav-path>[\t<feature-path>]`
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    wav_path: Path
    feature_path: Path | None = None


@dataclasses.dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]
    split: str = "train"


def load_manifest(path, split: str = "train") -> CorpusManifest:
    entries = []
    seen = set()
    base = Path(path).parent
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise DataError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        utt_id = fields[0]
        if utt_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        wav_path = _resolve(base, fields[1])
        feature_path = _resolve(base, fields[2]) if len(fields) == 3 else None
        if not wav_path.exists():
            raise DataError(f"{path}:{lineno}: missing wav file {wav_path}")
        entries.append(ManifestEntry(utt_id, wav_path, feature_path))
    return CorpusManifest(tuple(entries), split)


def _resolve(base: Path, field: str) -> Path:
    p = Path(field)
    return p if p.is_absolute() else base / p


# ---------------------------------------------------------------------------
# Training pairs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class UtterancePair:
    """Aligned input/target level sequences plus reconstruction context."""

    utt_id: str
    input_levels: QuantizedWaveform
    target_levels: QuantizedWaveform
    narrowband: Waveform
    conditions: ConditionTrack | None = None

    def __post_init__(self):
        if len(self.input_levels) != len(self.target_levels):
            raise DataError(
                f"{self.utt_id}: input and target lengths differ"
                f" ({len(self.input_levels)} vs {len(self.target_levels)})"
            )


def build_pair(
    wideband: Waveform,
    strategy: str = "hf",
    hf_gain: float = 4.0,
    conditions: ConditionTrack | None = None,
    utt_id: str = "",
) -> UtterancePair:
    """Derive one training pair from a wideband recording.

    An odd-length recording loses its last sample, so that input, target
    and twice the narrowband signal all have one length.
    """
    name = utt_id or "utterance"
    if wideband.sample_rate_hz != WIDEBAND_RATE:
        raise DataError(f"{name}: expected {WIDEBAND_RATE} Hz wideband input, got {wideband.sample_rate_hz}")
    if len(wideband) < 2:
        raise DataError(f"{name}: {len(wideband)} samples, a training pair needs at least 2")
    if len(wideband) % 2:
        wideband = Waveform(wideband.samples[:-1], WIDEBAND_RATE)
    narrowband = dsp.downsample2(wideband)
    input_levels = dsp.mulaw_encode(dsp.upsample2(narrowband))
    if strategy == "wb":
        target = wideband
    elif strategy == "hf":
        target = dsp.make_hf_target(wideband, hf_gain)
    else:
        raise DataError(f"unknown mapping strategy {strategy!r}")
    return UtterancePair(
        utt_id=utt_id,
        input_levels=input_levels,
        target_levels=dsp.mulaw_encode(target),
        narrowband=narrowband,
        conditions=conditions,
    )


def narrowband_mfcc(narrowband: Waveform) -> ConditionTrack:
    """The MFCC track of the narrowband signal, with the frame shift
    re-expressed in wideband samples (see MFCC_TRACK)."""
    return ConditionTrack(dsp.mfcc(narrowband).frames, MFCC_TRACK["cond_frame_shift"])


def condition_track(model_cfg: ModelConfig, narrowband: Waveform, feature_path, name: str) -> ConditionTrack | None:
    """The track the model's conditional tier reads for one utterance.

    None for a model without that tier. Otherwise the feature file when
    there is one, else the MFCCs of `narrowband` when the model's
    cond_source is mfcc; the track must fit the tier (see
    `check_conditions`), and `name` says whose it is.
    """
    if not model_cfg.conditional:
        return None
    if feature_path is not None:
        if not Path(feature_path).exists():
            raise DataError(f"{name}: missing feature file {feature_path}")
        track = load_features(feature_path)
    elif model_cfg.cond_source == "mfcc":
        track = narrowband_mfcc(narrowband)
    else:
        raise DataError(f"{name}: the conditional tier needs a feature file (no MFCC condition source configured)")
    check_conditions(track, model_cfg, name)
    return track


def load_pairs(manifest: CorpusManifest, model_cfg: ModelConfig):
    """Materialize every manifest entry into an UtterancePair, with the
    condition track its model reads (see `condition_track`)."""
    pairs = []
    for entry in manifest.entries:
        pair = build_pair(
            load_wav(entry.wav_path), model_cfg.strategy, model_cfg.hf_gain, utt_id=entry.utt_id
        )
        conditions = condition_track(model_cfg, pair.narrowband, entry.feature_path, entry.utt_id)
        pairs.append(dataclasses.replace(pair, conditions=conditions))
    return pairs


def check_conditions(track: ConditionTrack, model_cfg: ModelConfig, name: str):
    """Raise DataError unless the track has frames of the dim and frame
    shift the model's conditional tier takes; `name` says whose it is."""
    dim, shift = model_cfg.cond_dim, model_cfg.cond_frame_shift
    if (track.dim, track.frame_shift_samples) != (dim, shift):
        raise DataError(
            f"{name}: condition track has {track.dim}-dim frames at a {track.frame_shift_samples}-sample"
            f" shift, the model's conditional tier takes {dim}-dim frames at {shift}"
        )
    if track.n_frames == 0:
        raise DataError(f"{name}: condition track has no frames (input shorter than one analysis window)")


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class PaddedBatch:
    """One mini-batch, or a TBPTT chunk of one, padded to a shared, model-aligned length.

    inputs carry the lookahead tail beyond n_steps; targets and mask cover
    the n_steps output region; mask is true exactly on pre-padding
    positions.
    """

    inputs: np.ndarray        # [B, n_steps + lookahead] int32
    targets: np.ndarray       # [B, n_steps] int32
    mask: np.ndarray          # [B, n_steps] bool
    conditions: np.ndarray | None  # [B, n_steps / top_frame_size, dim] float32
    utt_ids: tuple[str, ...]

    @property
    def n_steps(self) -> int:
        return self.targets.shape[1]

    @property
    def valid_lens(self) -> np.ndarray:  # [B] int
        return self.mask.sum(axis=1)


def make_batch(pairs, model_cfg: ModelConfig) -> PaddedBatch:
    if not pairs:
        raise DataError("cannot build an empty batch")
    multiple = model_cfg.time_multiple
    lookahead = model_cfg.lookahead
    n_steps = -(-max(len(p.input_levels) for p in pairs) // multiple) * multiple
    batch = len(pairs)
    inputs = np.full((batch, n_steps + lookahead), PAD_LEVEL, dtype=np.int32)
    targets = np.full((batch, n_steps), PAD_LEVEL, dtype=np.int32)
    mask = np.zeros((batch, n_steps), dtype=bool)
    conditional = model_cfg.conditional
    conditions = None
    if conditional:
        n_frames = n_steps // multiple
        conditions = np.zeros((batch, n_frames, model_cfg.cond_dim), dtype=np.float32)
    for i, pair in enumerate(pairs):
        n = len(pair.input_levels)
        inputs[i, :n] = pair.input_levels.levels
        targets[i, :n] = pair.target_levels.levels
        mask[i, :n] = True
        if conditional:
            if pair.conditions is None:
                raise DataError(f"{pair.utt_id}: conditional model but pair has no conditions")
            check_conditions(pair.conditions, model_cfg, pair.utt_id)
            wanted = -(-n // multiple)  # frames covering this utterance
            frames = align_condition_frames(pair.conditions.frames, wanted)
            conditions[i, :wanted] = frames
    return PaddedBatch(inputs, targets, mask, conditions, tuple(p.utt_id for p in pairs))


def batch_iter(pairs, batch_size: int, seed: int, model_cfg: ModelConfig):
    """Yield PaddedBatch objects in a seed-deterministic shuffled order."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise DataError("empty corpus")
    order = np.random.default_rng(seed).permutation(len(pairs))
    for start in range(0, len(pairs), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        yield make_batch(chunk, model_cfg)


# ---------------------------------------------------------------------------
# TBPTT chunking
# ---------------------------------------------------------------------------

def tbptt_chunks(batch: PaddedBatch, chunk_len: int, model_cfg: ModelConfig):
    """Split a batch along time into gradient-truncation chunks (PaddedBatch views).

    chunk_len is rounded up to a whole number of top-tier frames; each
    chunk's input slice carries its own lookahead tail (overlapping the
    next chunk), so chunked forwards see exactly what one full forward
    would.
    """
    if chunk_len < 1:
        raise DataError("chunk_len must be >= 1")
    multiple = model_cfg.time_multiple
    lookahead = model_cfg.lookahead
    chunk_len = -(-chunk_len // multiple) * multiple
    chunks = []
    for start in range(0, batch.n_steps, chunk_len):
        stop = min(start + chunk_len, batch.n_steps)
        conditions = None
        if batch.conditions is not None:
            conditions = batch.conditions[:, start // multiple : stop // multiple]
        chunks.append(
            PaddedBatch(
                inputs=batch.inputs[:, start : stop + lookahead],
                targets=batch.targets[:, start:stop],
                mask=batch.mask[:, start:stop],
                conditions=conditions,
                utt_ids=batch.utt_ids,
            )
        )
    return chunks
