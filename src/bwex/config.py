"""Line-based text configuration: `section.key = value` per line, `#`
comments, unknown or duplicate keys rejected. The same format is embedded
verbatim into checkpoints so generation can rebuild the model that was
trained.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .models import HrnnConfig, ModelConfig, SrnnConfig
from .train import Checkpoint, CheckpointError, TrainConfig


class ConfigError(ValueError):
    """Malformed configuration text."""


_KNOWN_KEYS = {
    "model": {
        "kind",
        "frame_sizes",
        "concat",
        "hidden",
        "embed_dim",
        "strategy",
        "hf_gain",
        "cond_source",
        "cond_dim",
        "cond_frame_shift",
        "cond_window_ms",
    },
    "train": {"lr", "batch_size", "max_epochs", "patience", "seed", "clip_norm", "chunk_len"},
    "data": {"train_manifest", "valid_manifest"},
    "eval": {"lsd_frame_ms", "lsd_shift_ms"},
}


@dataclasses.dataclass
class RunConfig:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    train_manifest: Path | None
    valid_manifest: Path | None
    cond_source: str | None
    lsd_frame_ms: float
    lsd_shift_ms: float
    raw_text: str


def parse_config_text(text: str) -> dict:
    """Parse into {(section, key): string value}; validation only here."""
    values: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if "." not in name:
            raise ConfigError(f"line {lineno}: key {name!r} must be section.key")
        section, _, key = name.partition(".")
        if section == "meta":
            continue  # checkpoint metadata lines are not run configuration
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {section}.{key}")
        values[(section, key)] = value
    return values


def _take(values, section, key, convert, default=None, what="value"):
    raw = values.pop((section, key), None)
    if raw is None:
        return default
    try:
        return convert(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {what}") from exc


def _int_tuple(raw: str):
    return tuple(int(part.strip()) for part in raw.split(","))


def build_run_config(text: str) -> RunConfig:
    """Typed RunConfig from config text; all cross-field rules checked."""
    values = parse_config_text(text)
    kind = _take(values, "model", "kind", str, default="hrnn")
    if kind not in ("srnn", "hrnn", "chrnn"):
        raise ConfigError(f"model.kind must be srnn, hrnn, or chrnn, got {kind!r}")
    hidden = _take(values, "model", "hidden", int, default=1024, what="int")
    embed_dim = _take(values, "model", "embed_dim", int, default=256, what="int")
    strategy = _take(values, "model", "strategy", str, default="hf")
    hf_gain = _take(values, "model", "hf_gain", float, default=4.0, what="float")
    frame_sizes = _take(values, "model", "frame_sizes", _int_tuple, what="comma-separated ints")
    concat = _take(values, "model", "concat", _int_tuple, what="comma-separated ints")
    cond_source = _take(values, "model", "cond_source", str)
    cond_dim = _take(values, "model", "cond_dim", int, what="int")
    cond_frame_shift = _take(values, "model", "cond_frame_shift", int, what="int")
    cond_window_ms = _take(values, "model", "cond_window_ms", float, what="float")

    try:
        if kind == "srnn":
            if frame_sizes is not None or concat is not None:
                raise ConfigError("model.frame_sizes/concat do not apply to srnn")
            if cond_source or cond_dim or cond_frame_shift:
                raise ConfigError("srnn takes no conditions")
            model_cfg: ModelConfig = SrnnConfig(
                embed_dim=embed_dim, hidden=hidden, strategy=strategy, hf_gain=hf_gain
            )
        else:
            frame_sizes = frame_sizes or (16, 4)
            concat = concat or (2,) * len(frame_sizes) + (frame_sizes[-1],)
            if kind == "chrnn":
                cond_source = cond_source or "mfcc"
                if cond_source not in ("mfcc", "file"):
                    raise ConfigError(f"model.cond_source must be mfcc or file, got {cond_source!r}")
                cond_dim = cond_dim or 39
                cond_frame_shift = cond_frame_shift or 160
                if cond_window_ms is None and cond_source == "mfcc":
                    cond_window_ms = 25.0
            else:
                if cond_source or cond_dim or cond_frame_shift:
                    raise ConfigError("model.cond_* keys require model.kind = chrnn")
                cond_source = None
                cond_dim = cond_frame_shift = None
                cond_window_ms = None
            model_cfg = HrnnConfig.build(
                frame_sizes=frame_sizes,
                n_concat=concat,
                hidden=hidden,
                embed_dim=embed_dim,
                strategy=strategy,
                hf_gain=hf_gain,
                cond_frame_shift=cond_frame_shift if kind == "chrnn" else None,
                cond_dim=cond_dim if kind == "chrnn" else None,
                cond_window_ms=cond_window_ms,
            )
        train_cfg = TrainConfig(
            model=model_cfg,
            lr=_take(values, "train", "lr", float, default=0.001, what="float"),
            batch_size=_take(values, "train", "batch_size", int, default=8, what="int"),
            max_epochs=_take(values, "train", "max_epochs", int, default=50, what="int"),
            patience=_take(values, "train", "patience", int, default=5, what="int"),
            seed=_take(values, "train", "seed", int, default=0, what="int"),
            clip_norm=_take(values, "train", "clip_norm", float, default=5.0, what="float"),
            chunk_len=_take(values, "train", "chunk_len", int, default=480, what="int"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    train_manifest = _take(values, "data", "train_manifest", Path)
    valid_manifest = _take(values, "data", "valid_manifest", Path)
    lsd_frame_ms = _take(values, "eval", "lsd_frame_ms", float, default=32.0, what="float")
    lsd_shift_ms = _take(values, "eval", "lsd_shift_ms", float, default=16.0, what="float")
    assert not values  # parse_config_text rejected everything unknown
    return RunConfig(
        model_cfg=model_cfg,
        train_cfg=train_cfg,
        train_manifest=train_manifest,
        valid_manifest=valid_manifest,
        cond_source=cond_source if kind == "chrnn" else None,
        lsd_frame_ms=lsd_frame_ms,
        lsd_shift_ms=lsd_shift_ms,
        raw_text=text,
    )


def serialize_config(
    train_cfg: TrainConfig,
    train_manifest=None,
    valid_manifest=None,
    cond_source: str | None = None,
) -> str:
    """Emit config text that build_run_config parses back equivalently."""
    model = train_cfg.model
    lines = []
    if isinstance(model, SrnnConfig):
        lines.append("model.kind = srnn")
    else:
        lines.append("model.kind = chrnn" if model.conditional else "model.kind = hrnn")
        waveform_tiers = [t for t in model.tiers[1:] if t.kind != "conditional"]
        sizes = ",".join(str(t.frame_size) for t in reversed(waveform_tiers))
        concats = ",".join(
            str(t.n_concat) for t in reversed([t for t in model.tiers if t.kind != "conditional"])
        )
        lines.append(f"model.frame_sizes = {sizes}")
        lines.append(f"model.concat = {concats}")
        if model.conditional:
            lines.append(f"model.cond_source = {cond_source or 'mfcc'}")
            lines.append(f"model.cond_dim = {model.cond_dim}")
            lines.append(f"model.cond_frame_shift = {model.tiers[-1].frame_size}")
            if model.cond_window_ms is not None:
                lines.append(f"model.cond_window_ms = {model.cond_window_ms}")
    lines.append(f"model.hidden = {model.hidden}")
    lines.append(f"model.embed_dim = {model.embed_dim}")
    lines.append(f"model.strategy = {model.strategy}")
    lines.append(f"model.hf_gain = {model.hf_gain}")
    lines.append(f"train.lr = {train_cfg.lr}")
    lines.append(f"train.batch_size = {train_cfg.batch_size}")
    lines.append(f"train.max_epochs = {train_cfg.max_epochs}")
    lines.append(f"train.patience = {train_cfg.patience}")
    lines.append(f"train.seed = {train_cfg.seed}")
    lines.append(f"train.clip_norm = {train_cfg.clip_norm}")
    lines.append(f"train.chunk_len = {train_cfg.chunk_len}")
    if train_manifest is not None:
        lines.append(f"data.train_manifest = {train_manifest}")
    if valid_manifest is not None:
        lines.append(f"data.valid_manifest = {valid_manifest}")
    return "\n".join(lines) + "\n"


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the trained model (and its RunConfig) from a checkpoint.

    The model adopts the checkpoint's arrays rather than copying them, so
    the two share memory. Tensors that do not fit the configured
    architecture raise CheckpointError.
    """
    from .models import build_model  # local import keeps module load light

    run_cfg = build_run_config(ckpt.config_text)
    try:
        model = build_model(run_cfg.model_cfg, params=ckpt.params)
    except ValueError as exc:
        raise CheckpointError(f"tensors do not match the checkpoint's config: {exc}") from exc
    return model, run_cfg
