"""Speech bandwidth extension by hierarchical recurrent waveform models.

The package maps 8 kHz narrowband speech to 16 kHz wideband speech by
predicting mu-law waveform levels sample by sample.  `dsp` holds the
signal path, `nn` the numpy neural toolkit, `models` the sample-level and
hierarchical architectures, `data`/`train` the corpus and training
machinery, and `metrics` the objective evaluation suite.

The error classes below are the CLI's exit codes 1, 2 and 3. They live
here, where importing them loads no numpy, so `cli` can refuse a command
line before `--threads` takes effect.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A bad command line, config text or config value; `bwex` exits 1."""


class DataError(ValueError):
    """Input a command cannot use: audio, manifest, feature file, checkpoint or path; `bwex` exits 2."""


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient; `bwex` exits 3."""
