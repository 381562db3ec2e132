"""Line-based text configuration: `section.key = value` per line, `#`
comments, unknown or duplicate keys rejected. The same format is embedded
verbatim into checkpoints so generation can rebuild the model that was
trained.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from . import ConfigError, DataError
from .data import read_utf8
from .dsp import MFCC_TRACK
from .models import FieldError, HrnnConfig, ModelConfig, SrnnConfig, build_model
from .train import Checkpoint, TrainConfig


def _ints(raw: str):
    return tuple(int(part.strip()) for part in raw.split(","))


# SrnnConfig's fields are the settings both architectures share.
_SHARED_FIELDS = dataclasses.fields(SrnnConfig)
_TRAIN_FIELDS = tuple(f for f in dataclasses.fields(TrainConfig) if f.name != "model")

# section -> key -> converter. The shared model keys and the train keys
# are dataclass fields, converted to the type of each field's default.
_CONVERTERS = {
    "model": {
        "kind": str,
        "frame_sizes": _ints,
        "concat": _ints,
        **{f.name: type(f.default) for f in _SHARED_FIELDS},
        "cond_source": str,
        "cond_dim": int,
        "cond_frame_shift": int,
        "cond_window_ms": float,
    },
    "train": {f.name: type(f.default) for f in _TRAIN_FIELDS},
    "data": {"train_manifest": Path, "valid_manifest": Path},
}
# A chrnn defaults to the MFCC track: an mfcc source, and the track's dims
# and frame shift. `HrnnConfig` holds an mfcc source to the whole track.
_CHRNN_DEFAULTS = {"cond_source": "mfcc", **{key: MFCC_TRACK[key] for key in ("cond_dim", "cond_frame_shift")}}


@dataclasses.dataclass
class RunConfig:
    train_cfg: TrainConfig
    train_manifest: Path | None
    valid_manifest: Path | None

    @property
    def model_cfg(self) -> ModelConfig:
        return self.train_cfg.model


def parse_config_text(text: str) -> dict:
    """Parse into {(section, key): string value}; validation only here."""
    values: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a `#` starts a comment at the line's start or after whitespace, so /data/run#3/ keeps it
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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
        if section not in _CONVERTERS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        if key not in _CONVERTERS[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {section}.{key}")
        values[(section, key)] = value
    return values


def _section(values: dict, section: str) -> dict:
    """The keys of one section that the text sets, converted."""
    out = {}
    for key, convert in _CONVERTERS[section].items():
        raw = values.get((section, key))
        if raw is None:
            continue
        try:
            out[key] = convert(raw)
        except (ValueError, TypeError) as exc:
            what = "comma-separated ints" if convert is _ints else convert.__name__
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {what}") from exc
    return out


def build_run_config(text: str) -> RunConfig:
    """Typed RunConfig from config text; all cross-field rules checked.

    Only the keys the text sets reach the config dataclasses, so every
    unset key takes the dataclass default.
    """
    values = parse_config_text(text)
    model = _section(values, "model")
    data = _section(values, "data")
    kind = model.pop("kind", "hrnn")
    if kind not in ("srnn", "hrnn", "chrnn"):
        raise ConfigError(f"model.kind must be srnn, hrnn, or chrnn, got {kind!r}")
    cond = {key: model.pop(key) for key in list(model) if key.startswith("cond_")}
    if cond.keys() - {"cond_window_ms"} and kind != "chrnn":  # srnn/hrnn ignore a window
        raise ConfigError(f"model.cond_* keys require model.kind = chrnn, got {kind}")
    if "concat" in model:
        model["n_concat"] = model.pop("concat")

    section = "model"  # whose dataclass a FieldError comes from
    try:
        if kind == "srnn":
            if "frame_sizes" in model or "n_concat" in model:
                raise ConfigError("model.frame_sizes/concat do not apply to srnn")
            model_cfg: ModelConfig = SrnnConfig(**model)
        elif kind == "hrnn":
            model_cfg = HrnnConfig(**model)
        else:
            model_cfg = HrnnConfig(**model, **{**_CHRNN_DEFAULTS, **cond})
        section = "train"
        train_cfg = TrainConfig(model=model_cfg, **_section(values, "train"))
    except FieldError as exc:
        key = "concat" if exc.field == "n_concat" else exc.field
        raise ConfigError(f"{section}.{key} {exc.rule}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        train_cfg=train_cfg,
        train_manifest=data.get("train_manifest"),
        valid_manifest=data.get("valid_manifest"),
    )


def read_run_config(path) -> tuple[str, RunConfig]:
    """The text of the config file at `path` and its RunConfig. A file that
    is not UTF-8 text is a ConfigError naming it."""
    text = read_utf8(path, ConfigError)
    return text, build_run_config(text)


def serialize_config(train_cfg: TrainConfig, train_manifest=None, valid_manifest=None) -> str:
    """Emit config text that build_run_config parses back equivalently.

    Config text has no quoting, so a value whose line would read back as
    another value (a ` #` that starts a comment, spaces at either end, a
    line break) raises ConfigError naming its key.
    """
    model = train_cfg.model
    lines = []
    if isinstance(model, SrnnConfig):
        lines.append("model.kind = srnn")
    else:
        lines.append("model.kind = chrnn" if model.conditional else "model.kind = hrnn")
        lines.append(f"model.frame_sizes = {','.join(map(str, model.frame_sizes))}")
        lines.append(f"model.concat = {','.join(map(str, model.n_concat))}")
        if model.conditional:
            lines.append(f"model.cond_source = {model.cond_source}")
            lines.append(f"model.cond_dim = {model.cond_dim}")
            lines.append(f"model.cond_frame_shift = {model.cond_frame_shift}")
            if model.cond_window_ms is not None:
                lines.append(f"model.cond_window_ms = {model.cond_window_ms}")
    lines.extend(f"model.{f.name} = {getattr(model, f.name)}" for f in _SHARED_FIELDS)
    lines.extend(f"train.{f.name} = {getattr(train_cfg, f.name)}" for f in _TRAIN_FIELDS)
    if train_manifest is not None:
        lines.append(f"data.train_manifest = {train_manifest}")
    if valid_manifest is not None:
        lines.append(f"data.valid_manifest = {valid_manifest}")
    for line in lines:
        name, _, value = line.partition(" = ")
        try:
            back = parse_config_text(line)
        except ConfigError:
            back = None
        if back != {tuple(name.split(".", 1)): value}:
            raise ConfigError(f"{name}: {value!r} would not read back from config text")
    return "\n".join(lines) + "\n"


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the trained model (and its RunConfig) from a checkpoint.

    The model adopts the checkpoint's arrays rather than copying them, so
    the two share memory. Tensors that do not fit the configured
    architecture raise DataError.
    """
    run_cfg = build_run_config(ckpt.config_text)
    try:
        model = build_model(run_cfg.model_cfg, params=ckpt.params)
    except ValueError as exc:
        raise DataError(f"tensors do not match the checkpoint's config: {exc}") from exc
    return model, run_cfg
