"""Waveform-to-waveform sequence models built from the nn toolkit.

Two architectures map an upsampled-narrowband mu-law level sequence to a
distribution over output levels at every sample:

* `Srnn` - a plain sample-level stack (embedding, two LSTM layers, two FF
  layers), strictly causal in its input.
* `Hrnn` - a hierarchy of tiers, each running at its own temporal
  resolution. Frame tiers consume non-overlapping frames of decoded
  amplitudes (optionally concatenated with lookahead frames) through LSTM
  layers and fan their hidden states out into per-step conditioning
  vectors for the tier below. The sample tier combines embedding vectors
  with the conditioning stream through FF layers into 256-way logits. An
  optional conditional tier on top consumes frame-level feature tracks
  (e.g. MFCCs) instead of waveform frames.

Both models are non-autoregressive: every input is the known narrowband
waveform, so generation is a deterministic argmax over logits. Generation,
validation and training share one walk, `forward_chunks`, over chunks that
carry each LSTM's state into the next. It bounds memory, and `generate`
gives the same levels on it as one pass over the whole utterance.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from . import nn
from .dsp import MFCC_TRACK, ConditionTrack, QuantizedWaveform, decode_levels

PAD_LEVEL = 128  # mu-law level of zero amplitude
# Output samples per forward of `generate` (256 ms) and of `train.validate`
# (128 ms), each rounded up to whole top-tier frames by `tbptt_chunks`, the one
# chunk rule. The levels `generate` returns do not depend on its window, so it
# takes the longer one, which pays each forward's fixed cost less often.
# `validate` keeps 2048: the `best_valid_ce` it writes is in every checkpoint.
GENERATE_CHUNK = 4096
VALIDATE_CHUNK = 2048
SRNN_LSTM_LAYERS = 2  # recurrent depth of the sample-level model
MAX_DIM = 2**32 - 1  # a checkpoint stores each tensor dim as a u32


class FieldError(ValueError):
    """A config field out of range. `field` names it and `rule` says what
    it broke, so a config reader can name its own key for the field."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


class TierSpec(NamedTuple):
    """One resolution level of the hierarchy, as `HrnnConfig` derives it.

    frame_size: samples covered by one step of this tier.
    n_concat: consecutive frames concatenated into each step input; values
        above 1 let the tier see that many frames of lookahead.
    kind: "sample", "intermediate", "top" or "conditional", set by the
        tier's position in the stack.
    """

    frame_size: int
    n_concat: int
    kind: str


@dataclasses.dataclass(frozen=True, kw_only=True)
class _SharedConfig:
    """Widths and mapping strategy, declared once for both architectures.

    Every layer is `hidden` units wide; levels embed into `embed_dim`
    dimensions. With strategy "hf" the target is the high-frequency
    residual amplified by `hf_gain`.
    """

    hidden: int = 1024
    embed_dim: int = 256
    strategy: str = "hf"
    hf_gain: float = 4.0

    def __post_init__(self):
        # No float field may be NaN or infinite: an inf hf_gain, for one, makes
        # inf * 0 = NaN in the high-band target of a silent stretch. Every int
        # field is a size, capped at MAX_DIM, so a model that trains also saves.
        for name, value in vars(self).items():  # a subclass's fields too
            if isinstance(value, float) and not np.isfinite(value):
                raise FieldError(name, f"must be finite, got {value}")
            if isinstance(value, int) and value > MAX_DIM:
                raise FieldError(name, f"must be <= {MAX_DIM}, got {value}")
            if isinstance(value, tuple) and max(value, default=0) > MAX_DIM:
                raise FieldError(name, f"must all be <= {MAX_DIM}, got {value}")
        if self.strategy not in ("wb", "hf"):
            raise FieldError("strategy", f"must be 'wb' or 'hf', got {self.strategy!r}")
        for name in ("hidden", "embed_dim", "hf_gain"):
            if not getattr(self, name) >= 1:
                raise FieldError(name, f"must be >= 1, got {getattr(self, name)}")


@dataclasses.dataclass(frozen=True)
class SrnnConfig(_SharedConfig):
    """Plain sample-level model: embed -> 2 LSTM layers -> 2 FF layers."""

    # No conditional tier; SRNN consumes raw sequences: no length
    # constraints, no lookahead.
    conditional = False
    time_multiple = 1
    lookahead = 0


@dataclasses.dataclass(frozen=True, kw_only=True)
class HrnnConfig(_SharedConfig):
    """The tier stack as frame sizes and concatenation, plus global widths.

    frame_sizes lists the waveform frame tiers top-down (the sample tier
    below them is implied); n_concat pairs with frame_sizes plus one
    trailing entry for the sample tier, and defaults to two frames per
    frame tier and one lowest-tier frame of embeddings (frame_sizes[-1]
    of them) at the sample tier. cond_frame_shift adds a conditional tier
    above everything that consumes cond_dim-dim feature frames at that
    shift; cond_window_ms is their analysis window, counted in the
    latency; cond_source is "mfcc" (narrowband MFCCs unless a feature
    file is given) or "file" (the default: a feature file only). An mfcc
    tier must take `dsp.MFCC_TRACK`, whose dim and window it defaults to.
    The defaults reproduce the reference system: frame sizes (16, 4, 1), two
    concatenated frames on both frame tiers, and four concatenated
    embeddings at the sample tier.

    `tiers` is derived: TierSpecs ordered bottom (sample) to top.
    """

    frame_sizes: tuple[int, ...] = (16, 4)
    n_concat: tuple[int, ...] | None = None
    cond_frame_shift: int | None = None
    cond_dim: int | None = None
    cond_window_ms: float | None = None
    cond_source: str | None = None
    tiers: tuple[TierSpec, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frame_sizes, shift, source = self.frame_sizes, self.cond_frame_shift, self.cond_source
        if source is None:
            if shift is not None:
                object.__setattr__(self, "cond_source", "file")
        elif shift is None:
            raise FieldError("cond_source", f"needs a conditional tier, got {source!r}")
        elif source not in ("mfcc", "file"):
            raise FieldError("cond_source", f"must be mfcc or file, got {source!r}")
        elif source == "mfcc":
            for key in ("cond_dim", "cond_window_ms"):
                if getattr(self, key) is None:
                    object.__setattr__(self, key, MFCC_TRACK[key])
        if not frame_sizes:
            raise FieldError("frame_sizes", "must list at least one frame tier")
        if any(size < 1 for size in frame_sizes):
            raise FieldError("frame_sizes", f"must all be >= 1, got {frame_sizes}")
        n_concat = self.n_concat
        if n_concat is None:
            n_concat = (2,) * len(frame_sizes) + (frame_sizes[-1],)
            object.__setattr__(self, "n_concat", n_concat)
        if len(n_concat) != len(frame_sizes) + 1:
            raise FieldError("n_concat", "needs one entry per frame tier plus the sample tier")
        if any(concat < 1 for concat in n_concat):
            raise FieldError("n_concat", f"must all be >= 1, got {n_concat}")
        if shift is not None and shift < 1:
            raise FieldError("cond_frame_shift", f"must be >= 1, got {shift}")
        super().__post_init__()
        if self.cond_window_ms is not None and self.cond_window_ms < 0:
            raise FieldError("cond_window_ms", f"must be >= 0, got {self.cond_window_ms}")
        # Bottom up: the sample tier, the frame tiers, then the conditional one.
        tiers = [TierSpec(1, n_concat[-1], "sample")]
        tiers += [TierSpec(size, concat, "intermediate") for size, concat in zip(frame_sizes[::-1], n_concat[-2::-1])]
        if shift is None:
            tiers[-1] = tiers[-1]._replace(kind="top")
        else:
            tiers.append(TierSpec(shift, 1, "conditional"))
        for lower, upper in zip(tiers[:-1], tiers[1:]):
            field = "cond_frame_shift" if upper.kind == "conditional" else "frame_sizes"
            above = f"puts frame size {upper.frame_size} above {lower.frame_size}"
            if upper.frame_size <= lower.frame_size:
                raise FieldError(field, f"{above}; frame sizes must strictly increase up the stack")
            if upper.frame_size % lower.frame_size != 0:
                raise FieldError(field, f"{above}, which does not divide it")
        if shift is not None and (self.cond_dim is None or self.cond_dim < 1):
            raise FieldError("cond_dim", f"must be >= 1 for a conditional tier, got {self.cond_dim}")
        if source == "mfcc":  # after the range checks, so that an out-of-range value says so
            for key, value in MFCC_TRACK.items():
                if getattr(self, key) != value:
                    raise FieldError(key, f"must be {value} with model.cond_source = mfcc, got {getattr(self, key)}")
        object.__setattr__(self, "tiers", tuple(tiers))

    @classmethod
    def build(cls, **fields) -> "HrnnConfig":
        """The same as `HrnnConfig(**fields)`; kept because `bench/workloads.py` calls it."""
        return cls(**fields)

    @property
    def conditional(self) -> bool:
        return self.tiers[-1].kind == "conditional"

    @property
    def time_multiple(self) -> int:
        """Output lengths must divide into whole top-tier steps."""
        return self.tiers[-1].frame_size

    @property
    def lookahead(self) -> int:
        """Trailing input samples needed beyond the last output position.

        Frame concatenation makes tier k read (n_concat - 1) * frame_size
        samples past its final step; the maximum over waveform tiers is
        the padding every forward pass requires.
        """
        return max(
            (t.n_concat - 1) * t.frame_size for t in self.tiers if t.kind != "conditional"
        )


ModelConfig = HrnnConfig | SrnnConfig


# ---------------------------------------------------------------------------
# Framing and fan-out primitives
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class PaddedBatch:
    """One mini-batch, or a chunk of one, padded to a shared, model-aligned length.

    inputs carry the lookahead tail beyond n_steps; targets and mask cover
    the n_steps output region; mask is true exactly on pre-padding
    positions. targets is None for a batch without targets, such as the
    one `generate` walks.
    """

    inputs: np.ndarray        # [B, n_steps + lookahead] int32
    targets: np.ndarray | None  # [B, n_steps] int32
    mask: np.ndarray          # [B, n_steps] bool
    conditions: np.ndarray | None  # [B, n_steps / top_frame_size, dim] float32

    @property
    def n_steps(self) -> int:
        return self.mask.shape[1]

    @classmethod
    def pad(cls, inputs, cfg: ModelConfig, targets=None, conditions=None) -> "PaddedBatch":
        """The batch of level rows `inputs`, each padded with PAD_LEVEL (zero
        amplitude) to whole top-tier frames of cfg, plus cfg's lookahead.

        targets, when given, are level rows of the same lengths. conditions,
        when given, are one ConditionTrack per row, aligned to the frames
        that cover its row (`align_condition_frames`) and zero past them.
        The mask is true on each row's own positions. An empty row, or no
        row, raises ValueError.
        """
        lens = [len(row) for row in inputs]
        if not lens or min(lens) == 0:
            raise ValueError("cannot pad an empty sequence")
        multiple = cfg.time_multiple
        n_steps = -(-max(lens) // multiple) * multiple
        batch = len(lens)
        padded = np.full((batch, n_steps + cfg.lookahead), PAD_LEVEL, dtype=np.int32)
        padded_targets = None if targets is None else np.full((batch, n_steps), PAD_LEVEL, dtype=np.int32)
        mask = np.zeros((batch, n_steps), dtype=bool)
        frames = None
        if conditions is not None:
            frames = np.zeros((batch, n_steps // multiple, conditions[0].dim), dtype=np.float32)
        for i, n in enumerate(lens):
            padded[i, :n] = inputs[i]
            mask[i, :n] = True
            if targets is not None:
                padded_targets[i, :n] = targets[i]
            if conditions is not None:
                wanted = -(-n // multiple)  # frames covering this row
                frames[i, :wanted] = align_condition_frames(conditions[i].frames, wanted)
        return cls(padded, padded_targets, mask, frames)


def tbptt_chunks(batch: PaddedBatch, chunk_len: int, cfg: ModelConfig) -> list[PaddedBatch]:
    """The one chunk rule, for `generate`, `validate` and training: `batch`
    cut along time into views of chunk_len output steps rounded up to whole
    top-tier frames of cfg, the last one shorter. Each view's inputs carry the
    lookahead tail a forward over it reads, so chunked forwards see exactly
    what one full forward would."""
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    multiple = cfg.time_multiple
    chunk_len = -(-chunk_len // multiple) * multiple
    chunks = []
    for start in range(0, batch.n_steps, chunk_len):
        stop = start + chunk_len  # past the end for a shorter last chunk; the slices clamp it
        chunks.append(PaddedBatch(
            inputs=batch.inputs[:, start : stop + cfg.lookahead],
            targets=None if batch.targets is None else batch.targets[:, start:stop],
            mask=batch.mask[:, start:stop],
            conditions=None if batch.conditions is None else batch.conditions[:, start // multiple : stop // multiple],
        ))
    return chunks


def _frame_inputs(x: np.ndarray, frame_size: int, n_concat: int, n_steps: int) -> np.ndarray:
    """x [B, length(, dim)] -> [B, n_steps, n_concat * frame_size(* dim)]."""
    batch = x.shape[0]
    parts = []
    for j in range(n_concat):
        seg = x[:, j * frame_size : (j + n_steps) * frame_size]
        parts.append(seg.reshape(batch, n_steps, -1))
    return np.concatenate(parts, axis=2) if len(parts) > 1 else parts[0]


def conditioning_fanout(h: np.ndarray, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Expand tier hidden states into per-lower-step conditioning vectors.

    h [B, T, H_up] with weights [r, H_down, H_up] yields [B, T*r, H_down]:
    each upper step t emits r projections, ordered j = 1..r within t.
    The r projections of all steps are one GEMM against the weights viewed
    as [r * H_down, H_up].
    """
    batch, steps, up = h.shape
    ratio, down, _ = weights.shape
    expanded = h.reshape(-1, up) @ weights.reshape(ratio * down, up).T
    expanded += biases.reshape(-1)
    return expanded.reshape(batch, steps * ratio, down)


def _fanout_backward(d_out: np.ndarray, h: np.ndarray, weights: np.ndarray):
    ratio, down, up = weights.shape
    d2 = d_out.reshape(-1, ratio * down)
    d_weights = (d2.T @ h.reshape(-1, up)).reshape(weights.shape)
    d_biases = d2.sum(axis=0).reshape(ratio, down)
    dh = (d2 @ weights.reshape(ratio * down, up)).reshape(h.shape)
    return d_weights, d_biases, dh


# ---------------------------------------------------------------------------
# Parameter core shared by both architectures
# ---------------------------------------------------------------------------

def _uniform(fan_in: int):
    return lambda shape, rng, dtype: nn.init_uniform(shape, fan_in, rng, dtype)


def _zeros(shape, rng, dtype):
    return np.zeros(shape, dtype=dtype)


def _lstm_biases(shape, rng, dtype):
    return nn.lstm_biases(shape[0] // 4, dtype)


def _affine_layout(prefix: str, n_out: int, n_in: int) -> dict:
    return {f"{prefix}.w": ((n_out, n_in), _uniform(n_in)), f"{prefix}.b": ((n_out,), _zeros)}


def _lstm_layout(prefix: str, hidden: int, n_in: int) -> dict:
    return {
        f"{prefix}.wx": ((4 * hidden, n_in), _uniform(n_in)),
        f"{prefix}.wh": ((4 * hidden, hidden), _uniform(hidden)),
        f"{prefix}.b": ((4 * hidden,), _lstm_biases),
    }


def _embed_layout(embed_dim: int) -> dict:
    return {"embed.table": ((nn.N_LEVELS, embed_dim), _uniform(embed_dim))}


class _Model:
    """Flat name->array parameter registry shared by Srnn and Hrnn.

    Each architecture declares its tensors in `_layout()` as name ->
    (shape, init), in the order initialization draws them from the rng,
    and its recurrent layers in `_lstm_prefixes()` as state key -> prefix.
    With `params`, the model adopts those arrays instead of drawing: names
    and shapes are checked, nothing is random, and an array that already
    has the model's dtype and a C-contiguous layout is not copied.
    """

    def __init__(self, cfg, rng: np.random.Generator | int | None = None, dtype=np.float32, params: dict | None = None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        layout = self._layout()
        if params is None:
            rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
            self.params = {name: init(shape, rng, self.dtype) for name, (shape, init) in layout.items()}
        else:
            _check_params({name: shape for name, (shape, _) in layout.items()}, params)
            self.params = {name: np.ascontiguousarray(params[name], dtype=self.dtype) for name in layout}

    def _affine(self, prefix: str) -> nn.AffineParams:
        return nn.AffineParams(self.params[f"{prefix}.w"], self.params[f"{prefix}.b"])

    def _lstm(self, prefix: str) -> nn.LstmParams:
        return nn.LstmParams(self.params[f"{prefix}.wx"], self.params[f"{prefix}.wh"], self.params[f"{prefix}.b"])

    def _embedding(self) -> nn.EmbeddingTable:
        return nn.EmbeddingTable(self.params["embed.table"])

    def init_state(self, batch_size: int) -> dict:
        """Zero hidden/cell states for every LSTM layer (utterance start)."""
        state = {}
        for key, prefix in self._lstm_prefixes().items():
            zeros = np.zeros((batch_size, self.params[f"{prefix}.wh"].shape[1]), dtype=self.dtype)
            state[key] = (zeros, zeros.copy())
        return state

    def _head_forward(self, prefix: str, x: np.ndarray):
        """Output head `{prefix}ff1` -> ReLU -> `{prefix}ff2` over x; returns (logits, ReLU output)."""
        a = nn.affine(self._affine(f"{prefix}ff1"), x)
        np.maximum(a, 0.0, out=a)  # ReLU; backward masks on a > 0, same as z > 0
        return nn.affine(self._affine(f"{prefix}ff2"), a), a

    def _head_backward(self, prefix: str, x: np.ndarray, a: np.ndarray, dlogits: np.ndarray, grads: dict):
        """Store the head's gradients in `grads`; returns the gradient w.r.t. x."""
        (grads[f"{prefix}ff2.w"], grads[f"{prefix}ff2.b"]), da = nn.affine_backward(self._affine(f"{prefix}ff2"), a, dlogits)
        dz = da * (a > 0)
        (grads[f"{prefix}ff1.w"], grads[f"{prefix}ff1.b"]), dx = nn.affine_backward(self._affine(f"{prefix}ff1"), x, dz)
        return dx

    def load_params(self, values: dict):
        """Copy new values into the existing parameter arrays; names and
        shapes must match exactly."""
        _check_params({name: value.shape for name, value in self.params.items()}, values)
        for name, value in values.items():
            self.params[name][...] = value


def _check_params(shapes: dict, values: dict):
    unknown = set(values) - set(shapes)
    missing = set(shapes) - set(values)
    if unknown or missing:
        raise ValueError(f"parameter name mismatch: unknown={sorted(unknown)}, missing={sorted(missing)}")
    for name, value in values.items():
        if value.shape != shapes[name]:
            raise ValueError(f"shape mismatch for {name!r}: {value.shape} vs {shapes[name]}")


# ---------------------------------------------------------------------------
# HRNN
# ---------------------------------------------------------------------------

class Hrnn(_Model):
    """Hierarchical model; parameters live in a flat name->array dict."""

    def _layout(self) -> dict:
        cfg = self.cfg
        width = cfg.hidden
        layout = _embed_layout(cfg.embed_dim)
        for k, tier in enumerate(cfg.tiers):
            name = f"tier{k + 1}"
            if tier.kind == "sample":
                layout.update(_affine_layout(f"{name}.combine", width, tier.n_concat * cfg.embed_dim))
                layout.update(_affine_layout(f"{name}.ff1", width, width))
                layout.update(_affine_layout(f"{name}.ff2", nn.N_LEVELS, width))
                continue
            if tier.kind == "conditional":
                n_in = cfg.cond_dim
            else:
                n_in = tier.n_concat * tier.frame_size
            if tier.kind == "intermediate":
                layout.update(_affine_layout(f"{name}.combine", width, n_in))
                n_in = width
            layout.update(_lstm_layout(f"{name}.lstm", width, n_in))
            ratio = tier.frame_size // cfg.tiers[k - 1].frame_size
            layout[f"{name}.fanout.w"] = ((ratio, width, width), _uniform(width))
            layout[f"{name}.fanout.b"] = ((ratio, width), _zeros)
        return layout

    def _lstm_prefixes(self) -> dict:
        return {k: f"tier{k + 1}.lstm" for k, tier in enumerate(self.cfg.tiers) if tier.kind != "sample"}

    def _sample_tables(self) -> list:
        """The sample tier's embedding composed with its combine layer.

        Slot j of the concatenated embeddings meets columns
        j*E .. (j+1)*E of the combine weights, so row v of table j is the
        combine output (bias excluded) that level v contributes from
        slot j: one [256, E] x [E, H] product per slot.
        """
        embed_dim = self.cfg.embed_dim
        table = self.params["embed.table"]
        weight = self.params["tier1.combine.w"]
        return [
            nn.EmbeddingTable(table @ weight[:, j * embed_dim : (j + 1) * embed_dim].T)
            for j in range(self.cfg.tiers[0].n_concat)
        ]

    def forward(
        self,
        levels: np.ndarray,
        conditions: np.ndarray | None = None,
        state: dict | None = None,
        cache: bool = True,
    ):
        """Run the hierarchy over a padded batch.

        levels [B, n_steps + lookahead] ints; conditions [B, >=n_frames, d]
        when the top tier is conditional. Returns (logits [B, n_steps, 256],
        cache, state_out); recurrent states carry across consecutive calls.
        With `cache=False` (inference) no activations are kept for
        `backward` and the cache is None.
        """
        cfg = self.cfg
        levels = np.asarray(levels)
        if levels.ndim != 2:
            raise ValueError("levels must be [batch, time]")
        batch, padded_len = levels.shape
        n_steps = padded_len - cfg.lookahead
        if n_steps < cfg.time_multiple or n_steps % cfg.time_multiple != 0:
            raise ValueError(
                f"padded length {padded_len} minus lookahead {cfg.lookahead} must be a"
                f" positive multiple of {cfg.time_multiple}"
            )
        state = state if state is not None else self.init_state(batch)
        state_out = {}
        amplitudes = decode_levels(levels).astype(self.dtype)
        tier_caches = {}

        conditioning = None
        for k in range(len(cfg.tiers) - 1, 0, -1):
            tier = cfg.tiers[k]
            name = f"tier{k + 1}"
            steps_k = n_steps // tier.frame_size
            if tier.kind == "conditional":
                if conditions is None:
                    raise ValueError("model has a conditional tier but no conditions were given")
                conditions = np.asarray(conditions, dtype=self.dtype)
                if conditions.ndim != 3 or conditions.shape[2] != cfg.cond_dim:
                    raise ValueError(f"conditions must be [batch, frames, {cfg.cond_dim}]")
                if conditions.shape[1] < steps_k:
                    raise ValueError(
                        f"conditions too short: {conditions.shape[1]} frames < {steps_k} steps"
                    )
                x_k = conditions[:, :steps_k]
            else:
                x_k = _frame_inputs(amplitudes, tier.frame_size, tier.n_concat, steps_k)
            if tier.kind == "intermediate":
                lstm_in = nn.affine(self._affine(f"{name}.combine"), x_k)
                lstm_in += conditioning
            else:
                lstm_in = x_k
            h0, c0 = state[k]
            h_seq, state_out[k], lstm_cache = nn.lstm_forward(
                self._lstm(f"{name}.lstm"), lstm_in, h0, c0, cache=cache
            )
            conditioning = conditioning_fanout(
                h_seq, self.params[f"{name}.fanout.w"], self.params[f"{name}.fanout.b"]
            )
            if cache:
                tier_caches[k] = {"x": x_k, "lstm": lstm_cache}

        # Sample tier: the combine layer over concatenated embeddings is a
        # sum of one table lookup per slot (see `_sample_tables`).
        i_sample = conditioning
        i_sample += self.params["tier1.combine.b"]
        for j, table in enumerate(self._sample_tables()):
            i_sample += nn.embed(table, levels[:, j : j + n_steps])
        logits, a_hidden = self._head_forward("tier1.", i_sample)
        if not cache:
            return logits, None, state_out
        tier_caches[0] = {"i": i_sample, "a_hidden": a_hidden}
        cache = {"levels": levels, "n_steps": n_steps, "tiers": tier_caches}
        return logits, cache, state_out

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict:
        """Exact gradients of a scalar loss w.r.t. every parameter."""
        cfg = self.cfg
        grads = {}
        tiers = cache["tiers"]
        sample = tiers[0]
        n_steps = cache["n_steps"]

        di = self._head_backward("tier1.", sample["i"], sample["a_hidden"], dlogits, grads)
        # The forward never formed the concatenated embeddings f; gather
        # them again from the cached levels for the combine weights.
        levels = cache["levels"]
        f_sample = _frame_inputs(nn.embed(self._embedding(), levels), 1, cfg.tiers[0].n_concat, n_steps)
        (dw, db), df = nn.affine_backward(self._affine("tier1.combine"), f_sample, di)
        grads["tier1.combine.w"], grads["tier1.combine.b"] = dw, db
        d_conditioning = di  # i = combine(f) + conditioning

        # Concatenated embeddings: overlap-add the frame slots back.
        embed_dim = cfg.embed_dim
        d_vectors = np.zeros((levels.shape[0], levels.shape[1], embed_dim), dtype=df.dtype)
        for j in range(cfg.tiers[0].n_concat):
            d_vectors[:, j : j + n_steps] += df[:, :, j * embed_dim : (j + 1) * embed_dim]
        grads["embed.table"] = nn.embed_backward(self._embedding(), levels, d_vectors)

        for k in range(1, len(cfg.tiers)):
            tier = cfg.tiers[k]
            name = f"tier{k + 1}"
            tc = tiers[k]
            dw_fan, db_fan, dh = _fanout_backward(d_conditioning, tc["lstm"].h, self.params[f"{name}.fanout.w"])
            grads[f"{name}.fanout.w"], grads[f"{name}.fanout.b"] = dw_fan, db_fan
            (dwx, dwh, db), dx, _, _ = nn.lstm_backward(self._lstm(f"{name}.lstm"), tc["lstm"], dh)
            grads[f"{name}.lstm.wx"], grads[f"{name}.lstm.wh"], grads[f"{name}.lstm.b"] = dwx, dwh, db
            if tier.kind == "intermediate":
                (dw, db), _ = nn.affine_backward(self._affine(f"{name}.combine"), tc["x"], dx)
                grads[f"{name}.combine.w"], grads[f"{name}.combine.b"] = dw, db
                d_conditioning = dx  # lstm_in = combine(x) + conditioning
            # Top and conditional tiers consume raw inputs: nothing upstream.
        return grads


# ---------------------------------------------------------------------------
# SRNN
# ---------------------------------------------------------------------------

class Srnn(_Model):
    """Sample-level stack: embedding, two LSTM layers, two FF layers."""

    def _layout(self) -> dict:
        cfg = self.cfg
        layout = _embed_layout(cfg.embed_dim)
        n_in = cfg.embed_dim
        for i in range(1, SRNN_LSTM_LAYERS + 1):
            layout.update(_lstm_layout(f"lstm{i}", cfg.hidden, n_in))
            n_in = cfg.hidden
        layout.update(_affine_layout("ff1", cfg.hidden, cfg.hidden))
        layout.update(_affine_layout("ff2", nn.N_LEVELS, cfg.hidden))
        return layout

    def _lstm_prefixes(self) -> dict:
        return {i: f"lstm{i}" for i in range(1, SRNN_LSTM_LAYERS + 1)}

    def forward(self, levels: np.ndarray, conditions=None, state: dict | None = None, cache: bool = True):
        """As `Hrnn.forward`, over unpadded levels [B, T]."""
        if conditions is not None:
            raise ValueError("SRNN takes no conditions")
        levels = np.asarray(levels)
        if levels.ndim != 2:
            raise ValueError("levels must be [batch, time]")
        state = state if state is not None else self.init_state(levels.shape[0])
        state_out = {}
        x = nn.embed(self._embedding(), levels).astype(self.dtype)
        lstm_caches = {}
        h = x
        for i in range(1, SRNN_LSTM_LAYERS + 1):
            h0, c0 = state[i]
            h, state_out[i], lstm_caches[i] = nn.lstm_forward(self._lstm(f"lstm{i}"), h, h0, c0, cache=cache)
        logits, a = self._head_forward("", h)
        if not cache:
            return logits, None, state_out
        return logits, {"levels": levels, "lstm": lstm_caches, "a": a}, state_out

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict:
        grads = {}
        dh = self._head_backward("", cache["lstm"][SRNN_LSTM_LAYERS].h, cache["a"], dlogits, grads)
        for i in range(SRNN_LSTM_LAYERS, 0, -1):
            (dwx, dwh, dbs), dh, _, _ = nn.lstm_backward(self._lstm(f"lstm{i}"), cache["lstm"][i], dh)
            grads[f"lstm{i}.wx"], grads[f"lstm{i}.wh"], grads[f"lstm{i}.b"] = dwx, dwh, dbs
        grads["embed.table"] = nn.embed_backward(self._embedding(), cache["levels"], dh)
        return grads


def build_model(cfg: ModelConfig, rng=None, dtype=np.float32, params: dict | None = None):
    """Srnn or Hrnn for cfg: drawn from rng, or adopting `params` (see `_Model`)."""
    model_cls = Srnn if isinstance(cfg, SrnnConfig) else Hrnn
    return model_cls(cfg, rng, dtype, params)


# ---------------------------------------------------------------------------
# Generation and latency
# ---------------------------------------------------------------------------

def forward_chunks(model, chunks, cache: bool = True):
    """Yield (chunk, n_valid, logits, cache) per chunk of `chunks`, the list of
    `tbptt_chunks` of one batch, carrying every LSTM state
    into the next; each forward runs on demand, after any update to the one before.

    A row whose mask has ended before a chunk leaves the walk there: the
    chunk holds only the rows still valid at its first position, in batch
    order, and each carried state shrinks to them. Masks are prefixes, so
    a dropped row would add only exact zeros to the loss and gradients.
    The consumer must drop its references to a chunk's logits and cache
    before asking for the next one, so that two never coexist.
    """
    state = None
    n_rows = chunks[0].mask.shape[0]
    live = np.arange(n_rows)  # the batch rows still in the walk
    for chunk in chunks:
        keep = chunk.mask[live, 0]
        if not keep.all():
            live = live[keep]
            if live.size == 0:
                break  # masks are prefixes: nothing valid remains
            if state is not None:
                state = {k: (h[keep], c[keep]) for k, (h, c) in state.items()}
        if live.size < n_rows:
            chunk = dataclasses.replace(
                chunk,
                inputs=chunk.inputs[live],
                targets=None if chunk.targets is None else chunk.targets[live],
                mask=chunk.mask[live],
                conditions=None if chunk.conditions is None else chunk.conditions[live],
            )
        logits, fwd_cache, state = model.forward(chunk.inputs, conditions=chunk.conditions, state=state, cache=cache)
        yield chunk, int(chunk.mask.sum()), logits, fwd_cache
        del logits, fwd_cache


def generate(model, x: QuantizedWaveform, conditions: ConditionTrack | None = None) -> QuantizedWaveform:
    """Map input levels to output levels by argmax decoding.

    The padded utterance is cut by the one chunk rule, `tbptt_chunks` at
    GENERATE_CHUNK samples (4096, or 4160 at a top-tier frame of 160), and
    `forward_chunks` walks the windows uncached: the levels equal those of
    one forward over the whole utterance, whatever the window, and memory
    does not grow with its length. Ties resolve to the lowest level; the
    output is truncated back to the input's length. Purely deterministic.
    """
    cfg = model.cfg
    whole = PaddedBatch.pad([x.levels], cfg, conditions=None if conditions is None else [conditions])
    windows = tbptt_chunks(whole, GENERATE_CHUNK, cfg)
    levels = np.empty(whole.n_steps, dtype=np.int32)
    stop = 0
    for chunk, _, logits, _ in forward_chunks(model, windows, cache=False):
        start, stop = stop, stop + chunk.n_steps
        levels[start:stop] = np.argmax(logits[0], axis=-1)
        del logits
    return QuantizedWaveform(levels[: len(x)], x.sample_rate_hz)


def align_condition_frames(frames: np.ndarray, n_needed: int) -> np.ndarray:
    """Give a track exactly n_needed frames: repeat the final frame if the
    analysis window lost tail frames, else truncate."""
    if len(frames) >= n_needed:
        return frames[:n_needed]
    if len(frames) == 0:
        raise ValueError("empty condition track cannot be aligned")
    pad = np.repeat(frames[-1:], n_needed - len(frames), axis=0)
    return np.concatenate([frames, pad], axis=0)


def max_latency_ms(cfg: ModelConfig, sample_rate_hz: int) -> float:
    """Duration of future input the model may consult per output sample.

    The sample-level model is causal (zero latency). Tier stacks need
    n_concat * frame_size - 1 future samples at the widest tier; a
    conditional tier fed from a windowed analysis additionally waits for
    its window.
    """
    if isinstance(cfg, SrnnConfig):
        return 0.0
    structural = max((t.n_concat * t.frame_size - 1) for t in cfg.tiers)
    latency = structural * 1000.0 / sample_rate_hz
    if cfg.conditional and cfg.cond_window_ms is not None:
        latency = max(latency, cfg.cond_window_ms)
    return latency
