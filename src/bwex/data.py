"""Corpus ingestion and training-pair construction.

Wideband recordings become (input, target) level sequences per the
mapping strategy: the input is always the mu-law encoding of the
upsampled narrowband signal, the target is either the wideband waveform
itself ("wb") or the amplified high-frequency residual ("hf"). Batching
pads each mini-batch to a shared length with a loss mask.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import tempfile
import wave
from pathlib import Path

import numpy as np

from . import DataError, dsp
from .dsp import ConditionTrack, QuantizedWaveform, Waveform
from .models import ModelConfig, PaddedBatch


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
    if rate <= 0:
        raise DataError(f"{path}: header gives a sample rate of {rate} Hz")
    if len(payload) % 2:
        raise DataError(f"{path}: truncated sample data ({len(payload)} bytes)")
    pcm = np.frombuffer(payload, dtype="<i2")
    return Waveform(pcm.astype(np.float64) / _PCM_SCALE, rate)


def save_wav(path, w: Waveform):
    """Write mono 16-bit PCM atomically (temp file + rename); samples are
    clipped to the int16 range. NaN samples, or a rate whose byte rate
    overflows the header's u32, raise DataError."""
    if np.isnan(w.samples).any():
        raise DataError(f"{path}: cannot write NaN samples")
    if 2 * w.sample_rate_hz > 0xFFFFFFFF:
        raise DataError(f"{path}: a WAV header cannot hold a rate of {w.sample_rate_hz} Hz")
    pcm = np.clip(np.rint(w.samples * _PCM_SCALE), -32768, 32767).astype("<i2")

    def write(handle):
        with wave.open(handle, "wb") as writer:
            writer.setnchannels(1)
            writer.setsampwidth(2)
            writer.setframerate(w.sample_rate_hz)
            writer.writeframes(pcm.tobytes())

    _atomic_write(path, write)


def check_out_path(path, name):
    """Raise DataError naming `name` unless `path` can take a new file."""
    path = Path(path)
    if not path.parent.is_dir():
        raise DataError(f"{name}: no directory {path.parent}")
    if path.is_dir():
        raise DataError(f"{name}: is a directory")


def _atomic_write(path, write_fn):
    """The one way bwex writes a file. `write_fn(handle)` fills a temp file
    beside `path`, which then replaces `path`, so no reader sees a partial
    file. A path `check_out_path` refuses raises first. The file gets the
    mode `open` gives a new file, 0o666 less the umask (`mkstemp` makes it
    0o600)."""
    check_out_path(path, path)
    fd, tmp_name = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)  # read it the only way there is: set and restore
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            write_fn(handle)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class _Reader:
    """Sequential reads from a binary file, used as a context manager.

    Every read is checked against the bytes the file has left before it
    happens, so a truncated file, or dims that claim more data than the
    file holds, raise DataError before anything is allocated. Bytes left
    over when the block ends raise it too.
    """

    def __init__(self, path):
        self.path = path
        self.handle = open(path, "rb")
        self.remaining = os.fstat(self.handle.fileno()).st_size

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.handle.close()
        if exc_type is None and self.remaining:
            raise DataError(f"{self.path}: {self.remaining} trailing bytes")

    def _claim(self, n: int):
        if n > self.remaining:
            raise DataError(f"{self.path}: truncated file, {n} bytes claimed with {self.remaining} left")
        self.remaining -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.handle.read(n)
        if len(out) != n:
            raise DataError(f"{self.path}: truncated file")
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: invalid UTF-8 text ({exc.reason})") from exc

    def tensor(self, dims) -> np.ndarray:
        """Read float32 data straight into a fresh array of shape dims."""
        self._claim(4 * math.prod(dims))
        out = np.empty(dims, dtype="<f4")
        if self.handle.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise DataError(f"{self.path}: truncated file")
        return out


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
    """Write `track` in the format above; a frame shift or shape past u32
    raises DataError."""
    try:
        header = struct.pack("<IIII", _FEATURE_VERSION, track.dim, track.frame_shift_samples, track.n_frames)
    except struct.error as exc:
        raise DataError(f"{path}: track does not fit the u32 header fields ({exc})") from exc

    def write(handle):
        handle.write(_FEATURE_MAGIC)
        handle.write(header)
        handle.write(np.ascontiguousarray(track.frames, dtype="<f4").tobytes())

    _atomic_write(path, write)


def load_features(path) -> ConditionTrack:
    with _Reader(path) as reader:
        magic = reader.take(4)
        if magic != _FEATURE_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {_FEATURE_MAGIC!r}")
        version, dim, frame_shift, n_frames = struct.unpack("<IIII", reader.take(16))
        if version != _FEATURE_VERSION:
            raise DataError(f"{path}: unsupported feature file version {version}")
        frames = reader.tensor((n_frames, dim))
    return ConditionTrack(frames, frame_shift)


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


def read_utf8(path, error=DataError) -> str:
    """The text of the file at `path`; bytes that are not UTF-8, or a path
    holding a NUL byte, raise `error` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except ValueError as exc:  # `open` refuses a NUL byte, which no path can hold
        raise error(f"{str(path)!r}: not a readable path") from exc


def load_manifest(path, split: str = "train") -> CorpusManifest:
    """The entries of the manifest at `path`. A file that is not UTF-8 text,
    a malformed line, or no entry at all is a DataError naming the file."""
    entries = []
    seen = set()
    base = Path(path).parent
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
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
        wav_path = base / fields[1]  # an absolute field replaces base
        feature_path = base / fields[2] if len(fields) == 3 else None
        if not wav_path.exists():
            raise DataError(f"{path}:{lineno}: missing wav file {wav_path}")
        entries.append(ManifestEntry(utt_id, wav_path, feature_path))
    if not entries:
        raise DataError(f"{path}: no utterances")
    return CorpusManifest(tuple(entries), split)


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
    utt_id: str = "",
) -> UtterancePair:
    """Derive one training pair from a wideband recording.

    An odd-length recording loses its last sample, so that input, target
    and twice the narrowband signal all have one length.
    """
    name = utt_id or "utterance"
    if wideband.sample_rate_hz != dsp.WIDEBAND_RATE:
        raise DataError(f"{name}: expected {dsp.WIDEBAND_RATE} Hz wideband input, got {wideband.sample_rate_hz}")
    if len(wideband) < 2:
        raise DataError(f"{name}: {len(wideband)} samples, a training pair needs at least 2")
    if len(wideband) % 2:
        wideband = Waveform(wideband.samples[:-1], dsp.WIDEBAND_RATE)
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
    )


def narrowband_mfcc(narrowband: Waveform) -> ConditionTrack:
    """The MFCC track of the narrowband signal, with the frame shift
    re-expressed in wideband samples (see `dsp.MFCC_TRACK`)."""
    return ConditionTrack(dsp.mfcc(narrowband).frames, dsp.MFCC_TRACK["cond_frame_shift"])


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

def make_batch(pairs, model_cfg: ModelConfig) -> PaddedBatch:
    if not pairs:
        raise DataError("cannot build an empty batch")
    conditions = None
    if model_cfg.conditional:
        for pair in pairs:
            if pair.conditions is None:
                raise DataError(f"{pair.utt_id}: conditional model but pair has no conditions")
            check_conditions(pair.conditions, model_cfg, pair.utt_id)
        conditions = [pair.conditions for pair in pairs]
    return PaddedBatch.pad(
        [pair.input_levels.levels for pair in pairs],
        model_cfg,
        targets=[pair.target_levels.levels for pair in pairs],
        conditions=conditions,
    )


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
