"""Speech bandwidth extension by hierarchical recurrent waveform models.

The package maps 8 kHz narrowband speech to 16 kHz wideband speech by
predicting mu-law waveform levels sample by sample.  `dsp` holds the
signal path, `nn` the numpy neural toolkit, `models` the sample-level and
hierarchical architectures, `data`/`train` the corpus and training
machinery, and `metrics` the objective evaluation suite.
"""

import importlib

# Public name -> defining submodule. Nothing is imported until first use
# (PEP 562), so `import bwex.cli` loads no numpy and `bwex --threads` can
# still pin the BLAS pools. `bwex.train` is the submodule; the training
# function is `bwex.train.train`.
_EXPORTS = {
    **dict.fromkeys(
        ("ConditionTrack", "FirFilter", "QuantizedWaveform", "Waveform", "mulaw_decode", "mulaw_encode"),
        "dsp",
    ),
    **dict.fromkeys(
        ("Hrnn", "HrnnConfig", "Srnn", "SrnnConfig", "TierSpec", "build_model", "generate", "max_latency_ms"),
        "models",
    ),
    **dict.fromkeys(("CorpusManifest", "UtterancePair", "build_pair", "load_wav", "save_wav"), "data"),
    **dict.fromkeys(("Checkpoint", "TrainConfig", "load_checkpoint", "save_checkpoint", "validate"), "train"),
    **dict.fromkeys(("lsd", "reconstruct_wideband", "snr"), "metrics"),
}
_SUBMODULES = ("cli", "config", "data", "dsp", "metrics", "models", "nn", "train")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
