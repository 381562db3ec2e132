"""Speech bandwidth extension by hierarchical recurrent waveform models.

The package maps 8 kHz narrowband speech to 16 kHz wideband speech by
predicting mu-law waveform levels sample by sample.  `dsp` holds the
signal path, `nn` the numpy neural toolkit, `models` the sample-level and
hierarchical architectures, `data`/`train` the corpus and training
machinery, and `metrics` the objective evaluation suite.
"""

__version__ = "0.1.0"
