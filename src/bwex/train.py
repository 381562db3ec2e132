"""Training driver: epochs of TBPTT chunks under masked cross-entropy
with Adam, per-epoch validation, early stopping, and binary checkpoints.

One trainer owns the parameters and optimizer state; everything is
seed-deterministic in single-threaded mode.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct

import numpy as np

from . import nn
from .data import _atomic_write, batch_iter, make_batch, tbptt_chunks
from .models import GENERATE_CHUNK, FieldError, ModelConfig, build_model


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


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
        if self.lr < 0:
            raise FieldError("lr", f"must be >= 0, got {self.lr}")
        for field in ("batch_size", "max_epochs", "patience", "clip_norm", "chunk_len"):
            if getattr(self, field) <= 0:
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
    best_epoch: int

    @property
    def best_valid_ce(self) -> float:
        return float(self.checkpoint.metadata["best_valid_ce"])


def _chunk_loss(model, chunk, state):
    logits, cache, state = model.forward(chunk.inputs, conditions=chunk.conditions, state=state)
    flat = logits.reshape(-1, logits.shape[-1])
    loss, dflat = nn.softmax_ce(flat, chunk.targets.reshape(-1), chunk.mask.reshape(-1))
    return loss, cache, dflat.reshape(logits.shape), state


def train(cfg: TrainConfig, train_pairs, valid_pairs, config_text: str = "", log=None) -> TrainResult:
    """Fit a model on utterance pairs; returns the best-validation checkpoint.

    Per chunk: forward, masked CE, backward, global-norm clip, Adam. Stops
    when validation CE has not improved for `patience` epochs. All
    randomness (init, shuffling) derives from cfg.seed.
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
            state = None
            for chunk_idx, chunk in enumerate(tbptt_chunks(batch, cfg.chunk_len, cfg.model)):
                n_valid = int(chunk.mask.sum())
                if n_valid == 0:
                    break  # masks are prefixes: nothing valid remains
                loss, cache, dlogits, state = _chunk_loss(model, chunk, state)
                if not math.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {batch_idx}, chunk {chunk_idx}"
                    )
                grads = model.backward(cache, dlogits)
                nn.clip_global_norm(grads, cfg.clip_norm)
                nn.adam_update(adam, model.params, grads)
                total += loss * n_valid
                count += n_valid
        train_ce = total / count
        valid_ce, valid_acc = validate(model, valid_pairs, batch_size=cfg.batch_size)
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
    return TrainResult(checkpoint, history, best_epoch)


def validate(model, pairs, batch_size: int = 8):
    """Mean masked CE and argmax accuracy (%); mutates nothing.

    Each batch runs as inference forwards over chunks of at most
    GENERATE_CHUNK samples that carry the LSTM state, as in `generate`,
    so memory does not grow with utterance length.
    """
    total_ce, total_hits, count = 0.0, 0, 0
    pairs = list(pairs)
    for start in range(0, len(pairs), batch_size):
        batch = make_batch(pairs[start : start + batch_size], model.cfg)
        state = None
        for chunk in tbptt_chunks(batch, GENERATE_CHUNK, model.cfg):
            n_valid = int(chunk.mask.sum())
            if n_valid == 0:
                break  # masks are prefixes: nothing valid remains
            logits, _, state = model.forward(chunk.inputs, conditions=chunk.conditions, state=state, cache=False)
            flat = logits.reshape(-1, logits.shape[-1])
            targets = chunk.targets.reshape(-1)
            mask = chunk.mask.reshape(-1)
            loss, _ = nn.softmax_ce(flat, targets, mask)
            total_ce += loss * n_valid
            total_hits += int(np.sum((np.argmax(flat, axis=-1) == targets) & mask))
            count += n_valid
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
    blob = ckpt.config_text
    for key, value in sorted(ckpt.metadata.items()):
        blob += f"\nmeta.{key} = {value}"

    def write(handle):
        handle.write(_CKPT_MAGIC)
        handle.write(struct.pack("<I", _CKPT_VERSION))
        encoded = blob.encode("utf-8")
        handle.write(struct.pack("<I", len(encoded)))
        handle.write(encoded)
        handle.write(struct.pack("<I", len(ckpt.params)))
        for name, tensor in ckpt.params.items():
            tensor = np.ascontiguousarray(tensor, dtype="<f4")
            if tensor.ndim < 1 or tensor.ndim > 3:
                raise CheckpointError(f"tensor {name!r} has unsupported rank {tensor.ndim}")
            encoded_name = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded_name)))
            handle.write(encoded_name)
            handle.write(struct.pack("<B", tensor.ndim))
            handle.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            handle.write(tensor.tobytes())

    _atomic_write(path, write)


class _Reader:
    """Sequential reads from an open checkpoint file.

    Every read is checked against the bytes the file has left before it
    happens, so a truncated file, or dims that claim more data than the
    file holds, raise before anything is allocated.
    """

    def __init__(self, handle, path):
        self.handle = handle
        self.path = path
        self.remaining = os.fstat(handle.fileno()).st_size

    def _claim(self, n: int):
        if n > self.remaining:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.remaining -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.handle.read(n)
        if len(out) != n:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: invalid UTF-8 text ({exc.reason})") from exc

    def tensor(self, dims) -> np.ndarray:
        """Read float32 data straight into a fresh array of shape dims."""
        self._claim(4 * math.prod(dims))
        out = np.empty(dims, dtype="<f4")
        view = memoryview(out).cast("B")
        if self.handle.readinto(view) != len(view):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        return out


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        reader = _Reader(handle, path)
        if reader.take(4) != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        version = reader.u32()
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blob = reader.text()
        params: dict[str, np.ndarray] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            rank = reader.u8()
            if rank < 1 or rank > 3:
                raise CheckpointError(f"{path}: tensor {name!r} has unsupported rank {rank}")
            dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
            if name in params:
                raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
            params[name] = reader.tensor(dims)
        if reader.remaining:
            raise CheckpointError(f"{path}: {reader.remaining} trailing bytes")
    config_lines, metadata = [], {}
    for line in blob.splitlines():
        stripped = line.strip()
        if stripped.startswith("meta."):
            key, _, value = stripped.partition("=")
            metadata[key.strip()[len("meta.") :]] = value.strip()
        else:
            config_lines.append(line)
    return Checkpoint(
        config_text="\n".join(config_lines).strip("\n"),
        params=params,
        metadata=metadata,
    )
