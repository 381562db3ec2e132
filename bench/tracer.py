"""Spans around the public functions of each bwex module.

The benchmark traces from its own files: `Tracer.install` replaces each
listed function with a wrapper, in the namespace where its caller looks
the name up. `bwex.train` binds `make_batch` and `tbptt_chunks` with
`from .data import ...`, so those are patched in `bwex.train` as well as
in `bwex.data`; `cli.cmd_extend` imports its functions at call time, so
patching the defining module is enough there. Methods are patched on the
class.

A span records its layer name, start, end, parent span and request id.
Spans stay in memory until `write_spans`. A layer's self time is the
summed duration of its spans minus the time their child spans cover.
`gflop` figures are computed from tensor shapes (2 flops per
multiply-add of the matrix products), not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _affine_q(args, result):
    p, x = args[0], args[1]
    n_out, n_in = p.weight.shape
    return {"gflop": 2e-9 * (x.size // x.shape[-1]) * n_in * n_out}


def _lstm_forward_q(args, result):
    p, x = args[0], args[1]
    batch, steps, n_in = x.shape
    hidden = p.recurrent_weights.shape[1]
    return {"steps": steps, "gflop": 2e-9 * batch * steps * (n_in + hidden) * 4 * hidden}


def _lstm_backward_q(args, result):
    return {"steps": args[1].h.shape[1]}


def _fanout_q(args, result):
    h, weights = args[0], args[1]
    batch, steps, _ = h.shape
    return {"gflop": 2e-9 * batch * steps * weights.size}


def _upsample_q(args, result):
    return {"samples": len(result)}


def _cli_q(args, result):
    return {"failed": int(result != 0)}


# (module, attribute or Class.method, layer name, quantities from (args, result)).
# Several entries may share a layer name when one function is looked up
# from more than one namespace.
LAYERS = (
    ("bwex.cli", "main", "cli.main", _cli_q),
    ("bwex.train", "load_checkpoint", "train.load_checkpoint", None),
    ("bwex.config", "model_from_checkpoint", "config.model_from_checkpoint", None),
    ("bwex.data", "load_wav", "data.load_wav", None),
    ("bwex.data", "save_wav", "data.save_wav", None),
    ("bwex.data", "build_pair", "data.build_pair", None),
    ("bwex.data", "make_batch", "data.make_batch", None),
    ("bwex.train", "make_batch", "data.make_batch", None),
    ("bwex.train", "tbptt_chunks", "data.tbptt_chunks", None),
    ("bwex.dsp", "upsample2", "dsp.upsample2", _upsample_q),
    ("bwex.dsp", "mulaw_encode", "dsp.mulaw_encode", None),
    ("bwex.metrics", "reconstruct_wideband", "metrics.reconstruct_wideband", None),
    ("bwex.models", "generate", "models.generate", None),
    ("bwex.models", "Hrnn.forward", "models.Hrnn.forward", None),
    ("bwex.models", "Hrnn.backward", "models.Hrnn.backward", None),
    ("bwex.models", "conditioning_fanout", "models.conditioning_fanout", _fanout_q),
    ("bwex.nn", "lstm_forward", "nn.lstm_forward", _lstm_forward_q),
    ("bwex.nn", "lstm_backward", "nn.lstm_backward", _lstm_backward_q),
    ("bwex.nn", "affine", "nn.affine", _affine_q),
    ("bwex.nn", "affine_backward", "nn.affine_backward", None),
    ("bwex.nn", "embed", "nn.embed", None),
    ("bwex.nn", "embed_backward", "nn.embed_backward", None),
    ("bwex.nn", "softmax_ce", "nn.softmax_ce", None),
    ("bwex.nn", "clip_global_norm", "nn.clip_global_norm", None),
    ("bwex.nn", "adam_update", "nn.adam_update", None),
    ("bwex.train", "validate", "train.validate", None),
    ("bwex.train", "train", "train.train", None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


def _owner(module_name: str, attr: str):
    """(object holding the name, name) for "func" or "Class.method"."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; `request` tags the spans that follow."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, request]
        self.request = None
        self.active = True
        self._stack = []
        self._extras = []  # (span index, quantities)
        self._saved = []

    def wrap(self, fn, name, quantities=None):
        """`fn` with a span named `name` around each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.request]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._extras.append((index, {"failed": 1}))
                raise
            span[2] = time.perf_counter()
            self._stack.pop()
            if quantities is not None:
                self._extras.append((index, quantities(args, result)))
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, quantities in LAYERS:
            owner, key = _owner(module_name, attr)
            original = owner.__dict__[key]
            self._saved.append((owner, key, original))
            setattr(owner, key, self.wrap(original, name, quantities))

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def summary(self) -> dict:
        """{layer: {"calls", "self_s", "total_s", quantity: sum, ...}}."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYER_NAMES}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name not in out:  # the benchmark's own spans only shape their parents' self time
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        for index, quantities in self._extras:
            row = out.get(self.spans[index][0], {})
            for key, value in quantities.items():
                row[key] = row.get(key, 0) + value
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent, "request": request})
                    + "\n"
                )
