"""Training driver: epochs of TBPTT chunks under masked cross-entropy
with Adam, per-epoch validation, early stopping, and binary checkpoints.

One trainer owns the parameters and optimizer state; everything is
seed-deterministic in single-threaded mode.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from . import DataError, NumericError, nn
from .data import _atomic_write, _Reader, batch_iter, make_batch
from .models import MAX_DIM, VALIDATE_CHUNK, FieldError, ModelConfig, build_model, forward_chunks, tbptt_chunks


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    lr: float = 0.001
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    clip_norm: float = 5.0
    chunk_len: int = 480

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise FieldError("lr", f"must be finite and >= 0, got {self.lr}")
        if self.seed < 0:
            raise FieldError("seed", f"must be >= 0, got {self.seed}")
        for field in ("batch_size", "max_epochs", "patience", "clip_norm", "chunk_len"):
            if not getattr(self, field) > 0:  # NaN too; an inf clip_norm never clips
                raise FieldError(field, f"must be positive, got {getattr(self, field)}")
        if self.patience > self.max_epochs:
            raise FieldError("patience", f"must not exceed max_epochs ({self.max_epochs}), got {self.patience}")


@dataclasses.dataclass
class EpochStats:
    epoch: int
    train_ce: float
    valid_ce: float
    valid_acc: float


@dataclasses.dataclass
class Checkpoint:
    """Named parameter tensors plus the config text that built them.

    metadata records at least the stopping epoch and best validation CE.
    """

    config_text: str
    params: dict
    metadata: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list

    @property
    def best_epoch(self) -> int:
        return int(self.checkpoint.metadata["epoch"])

    @property
    def best_valid_ce(self) -> float:
        return float(self.checkpoint.metadata["best_valid_ce"])


@np.errstate(all="ignore")
def train(cfg: TrainConfig, train_pairs, valid_pairs, config_text: str = "", log=None) -> TrainResult:
    """Fit a model on utterance pairs; returns the best-validation checkpoint.

    Per chunk: forward, masked CE, backward, global-norm clip, Adam. Stops
    when validation CE has not improved for `patience` epochs. All
    randomness (init, shuffling) derives from cfg.seed. A non-finite
    loss, gradient norm or validation CE raises NumericError, so numpy's
    floating-point warnings are off inside.
    """
    train_pairs = list(train_pairs)
    valid_pairs = list(valid_pairs)
    if not train_pairs or not valid_pairs:
        raise ValueError("need non-empty train and validation sets")
    model = build_model(cfg.model, rng=np.random.default_rng(cfg.seed))
    adam = nn.AdamState.create(model.params, lr=cfg.lr)
    history: list[EpochStats] = []
    best_ce = math.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in model.params.items()}
    for epoch in range(1, cfg.max_epochs + 1):
        total, count = 0.0, 0
        batches = batch_iter(train_pairs, cfg.batch_size, seed=cfg.seed + epoch, model_cfg=cfg.model)
        for batch_idx, batch in enumerate(batches):
            # Counted by hand: enumerate's result tuple would keep the last
            # chunk's logits alive through the next forward.
            chunk_idx = 0
            chunks = tbptt_chunks(batch, cfg.chunk_len, cfg.model)
            for chunk, n_valid, logits, cache in forward_chunks(model, chunks):
                flat = logits.reshape(-1, logits.shape[-1])
                loss, dflat = nn.softmax_ce(flat, chunk.targets.reshape(-1), chunk.mask.reshape(-1))
                if not math.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {batch_idx}, chunk {chunk_idx}"
                    )
                grads = model.backward(cache, dflat.reshape(logits.shape))
                if not math.isfinite(nn.clip_global_norm(grads, cfg.clip_norm)):
                    raise NumericError(
                        f"non-finite gradient at epoch {epoch}, batch {batch_idx}, chunk {chunk_idx}"
                    )
                nn.adam_update(adam, model.params, grads)
                del logits, flat, cache, dflat, grads  # freed before the next forward
                total += loss * n_valid
                count += n_valid
                chunk_idx += 1
        train_ce = total / count
        valid_ce, valid_acc = validate(model, valid_pairs, batch_size=cfg.batch_size)
        if not math.isfinite(valid_ce):
            raise NumericError(f"non-finite validation CE at epoch {epoch}")
        history.append(EpochStats(epoch, train_ce, valid_ce, valid_acc))
        if log is not None:
            log(
                f"epoch {epoch}: train_ce={train_ce:.4f}"
                f" valid_ce={valid_ce:.4f} valid_acc={valid_acc:.2f}%"
            )
        if valid_ce < best_ce:
            best_ce = valid_ce
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
        elif epoch - best_epoch >= cfg.patience:
            if log is not None:
                log(f"early stop: no improvement since epoch {best_epoch}")
            break
    checkpoint = Checkpoint(
        config_text=config_text,
        params=best_params,
        metadata={"epoch": best_epoch, "best_valid_ce": best_ce},
    )
    return TrainResult(checkpoint, history)


def validate(model, pairs, batch_size: int = 8):
    """Mean masked CE and argmax accuracy (%); mutates nothing.

    Each batch walks the windows `tbptt_chunks` cuts at VALIDATE_CHUNK
    samples (2048, or 2080 at a top-tier frame of 160) uncached on
    `forward_chunks`, as `generate` walks its own, so memory does not grow
    with utterance length.
    """
    total_ce, total_hits, count = 0.0, 0, 0
    pairs = list(pairs)
    for start in range(0, len(pairs), batch_size):
        batch = make_batch(pairs[start : start + batch_size], model.cfg)
        chunks = tbptt_chunks(batch, VALIDATE_CHUNK, model.cfg)
        for chunk, n_valid, logits, _ in forward_chunks(model, chunks, cache=False):
            flat = logits.reshape(-1, logits.shape[-1])
            targets = chunk.targets.reshape(-1)
            mask = chunk.mask.reshape(-1)
            loss = nn.masked_ce(flat, targets, mask)[0]
            total_ce += loss * n_valid
            total_hits += int(np.sum((np.argmax(flat, axis=-1) == targets) & mask))
            count += n_valid
            del logits, flat  # freed before the next forward
    return total_ce / count, 100.0 * total_hits / count


# ---------------------------------------------------------------------------
# Checkpoint files
#
# Little-endian binary: magic "BWEH", version u32 = 1, u32-length-prefixed
# UTF-8 config blob, u32 tensor count, then per tensor: u32 name length,
# name bytes, u8 rank, rank x u32 dims, raw float32 data.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"BWEH"
_CKPT_VERSION = 1


def save_checkpoint(path, ckpt: Checkpoint):
    """Write `ckpt` in the format above. A tensor of rank other than 1-3
    or with a dim past u32, metadata that would not read back as
    `str(value)` under its key, or text that UTF-8 cannot encode (a lone
    surrogate) raises DataError before any file is made."""
    blob = ckpt.config_text
    for key, value in sorted(ckpt.metadata.items()):
        blob += f"\nmeta.{key} = {value}"
    written = _split_blob(blob)[1]
    expected = {key: str(value) for key, value in ckpt.metadata.items()}
    for key in sorted(written.keys() | expected.keys()):
        if written.get(key) != expected.get(key):
            raise DataError(f"metadata {key!r} would not read back from a checkpoint")
    _utf8(ckpt.config_text, "config text")
    for key, value in ckpt.metadata.items():
        _utf8(f"{key} = {value}", f"metadata {key!r}")
    encoded_blob = blob.encode("utf-8")
    tensors = []
    for name, tensor in ckpt.params.items():
        tensor = np.asarray(tensor, dtype="<f4", order="C")  # ascontiguousarray makes rank 0 rank 1
        if tensor.ndim < 1 or tensor.ndim > 3:
            raise DataError(f"tensor {name!r} has unsupported rank {tensor.ndim}")
        if max(tensor.shape) > MAX_DIM:
            raise DataError(f"tensor {name!r} has a dim past u32: {tensor.shape}")
        tensors.append((_utf8(name, f"tensor name {name!r}"), tensor))

    def write(handle):
        handle.write(_CKPT_MAGIC)
        handle.write(struct.pack("<I", _CKPT_VERSION))
        handle.write(struct.pack("<I", len(encoded_blob)))
        handle.write(encoded_blob)
        handle.write(struct.pack("<I", len(tensors)))
        for encoded_name, tensor in tensors:
            handle.write(struct.pack("<I", len(encoded_name)))
            handle.write(encoded_name)
            handle.write(struct.pack("<B", tensor.ndim))
            handle.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            handle.write(tensor.tobytes())

    _atomic_write(path, write)


def _utf8(text: str, what: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{what} holds {text[exc.start]!r}, which UTF-8 cannot encode") from None


def load_checkpoint(path) -> Checkpoint:
    with _Reader(path) as reader:
        if reader.take(4) != _CKPT_MAGIC:
            raise DataError(f"{path}: bad magic, not a checkpoint file")
        version = reader.u32()
        if version != _CKPT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        blob = reader.text()
        params: dict[str, np.ndarray] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            rank = reader.take(1)[0]
            if rank < 1 or rank > 3:
                raise DataError(f"{path}: tensor {name!r} has unsupported rank {rank}")
            dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
            if name in params:
                raise DataError(f"{path}: duplicate tensor name {name!r}")
            params[name] = reader.tensor(dims)
    config_text, metadata = _split_blob(blob)
    return Checkpoint(config_text=config_text, params=params, metadata=metadata)


def _split_blob(blob: str):
    """(config text, metadata) of a checkpoint's text blob: `meta.key =
    value` lines are metadata, every other line is config text."""
    config_lines, metadata = [], {}
    for line in blob.splitlines():
        stripped = line.strip()
        if stripped.startswith("meta."):
            key, _, value = stripped.partition("=")
            metadata[key.strip()[len("meta.") :]] = value.strip()
        else:
            config_lines.append(line)
    return "\n".join(config_lines).strip("\n"), metadata
