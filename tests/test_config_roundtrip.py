"""Round-trip properties: every model config survives serialize ->
parse unchanged, and every file writer's output reads back as written or
the writer raises its documented error."""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from bwex.config import ConfigError, build_run_config, serialize_config  # noqa: E402
from bwex.data import DataError, load_features, load_wav, save_features, save_wav  # noqa: E402
from bwex.dsp import MFCC_TRACK, ConditionTrack, Waveform  # noqa: E402
from bwex.metrics import CSV_HEADER, MetricsReport, UtteranceMetrics, format_report_csv  # noqa: E402
from bwex.models import FieldError, HrnnConfig, SrnnConfig, max_latency_ms  # noqa: E402
from bwex.train import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint  # noqa: E402


@st.composite
def model_fields(draw):
    """(config class, fields) over SRNN and HRNN stacks, with and without
    a conditional tier. A conditional tier draws either source on any
    shift, dim and window, unset ones and the MFCC track's included, so
    some draws break the stack or the MFCC track."""
    shared = {
        "hidden": draw(st.integers(1, 2048)),
        "embed_dim": draw(st.integers(1, 512)),
        "strategy": draw(st.sampled_from(["hf", "wb"])),
        "hf_gain": draw(st.floats(1.0, 64.0, allow_nan=False)),
    }
    source = draw(st.sampled_from([None, None, "mfcc", "file"]))  # None: no conditional tier
    if source is None and draw(st.booleans()):
        return SrnnConfig, shared
    # Frame sizes top-down, each a multiple (>= 2) of the one below.
    ratios = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    sizes = [ratios[0]]
    for ratio in ratios[1:]:
        sizes.append(sizes[-1] * ratio)
    frame_sizes = tuple(reversed(sizes))
    n_concat = draw(st.none() | st.tuples(*[st.integers(1, 8)] * (len(frame_sizes) + 1)))
    fields = dict(frame_sizes=frame_sizes, n_concat=n_concat, **shared)
    if source is not None:
        fields.update(
            cond_source=source,
            cond_frame_shift=draw(
                st.just(MFCC_TRACK["cond_frame_shift"]) | st.integers(2, 20).map(lambda k: frame_sizes[0] * k)
            ),
            cond_dim=draw(st.none() | st.just(MFCC_TRACK["cond_dim"]) | st.integers(1, 100)),
            cond_window_ms=draw(
                st.none() | st.just(MFCC_TRACK["cond_window_ms"]) | st.floats(0.5, 100.0, allow_nan=False)
            ),
        )
    return HrnnConfig, fields


@settings(max_examples=300, deadline=None)
@given(model_fields())
def test_serialized_model_config_parses_back_equal(drawn):
    cls, fields = drawn
    try:
        cfg = cls(**fields)
    except FieldError as exc:
        assert exc.field in ("cond_dim", "cond_frame_shift", "cond_window_ms")
        return
    back = build_run_config(serialize_config(TrainConfig(model=cfg)))
    assert back.model_cfg == cfg
    assert max_latency_ms(back.model_cfg, 16000) == max_latency_ms(cfg, 16000)
    if isinstance(cfg, HrnnConfig):
        assert back.model_cfg.tiers == cfg.tiers
        if cfg.cond_source == "mfcc":
            assert {key: getattr(cfg, key) for key in MFCC_TRACK} == MFCC_TRACK


# ---------------------------------------------------------------------------
# Every writer: a drawn value reads back as written, or the writer raises
# its documented error
# ---------------------------------------------------------------------------

READ_BACK_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@READ_BACK_SETTINGS
@given(train_path=st.text(max_size=30), valid_path=st.none() | st.text(max_size=30))
@example(train_path="/data/run #3/t.tsv", valid_path=None)
@example(train_path=" /lead/space.tsv", valid_path="/trail/space.tsv ")
@example(train_path="/data/run#3/t.tsv", valid_path="a\nb.tsv")
def test_manifest_paths_read_back_or_are_refused(train_path, valid_path):
    train_cfg = TrainConfig(model=HrnnConfig.build(hidden=8, embed_dim=4), seed=7)
    manifests = (Path(train_path), None if valid_path is None else Path(valid_path))
    try:
        text = serialize_config(train_cfg, *manifests)
    except ConfigError as exc:
        assert str(exc).startswith(("data.train_manifest: ", "data.valid_manifest: "))
        return
    back = build_run_config(text)
    assert (back.train_manifest, back.valid_manifest) == manifests
    assert back.train_cfg == train_cfg


@READ_BACK_SETTINGS
@given(
    frames=arrays(np.float32, st.tuples(st.integers(0, 12), st.integers(0, 6))),
    shift=st.integers(1, 2**33),
)
@example(frames=np.zeros((0, 3), np.float32), shift=160)
@example(frames=np.zeros((2, 3), np.float32), shift=2**32)
def test_feature_files_read_back_or_are_refused(tmp_path, frames, shift):
    path = tmp_path / "f.bwef"
    try:
        save_features(path, ConditionTrack(frames, shift))
    except DataError:
        assert shift > 0xFFFFFFFF
        return
    back = load_features(path)
    assert back.frame_shift_samples == shift
    assert back.frames.shape == frames.shape and back.frames.tobytes() == frames.tobytes()


# Any code point, lone surrogates included, which UTF-8 cannot encode.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@READ_BACK_SETTINGS
@given(
    params=st.dictionaries(
        ANY_TEXT, arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)), max_size=3
    ),
    metadata=st.dictionaries(ANY_TEXT, ANY_TEXT | st.integers() | st.floats(), max_size=3),
)
@example(params={"w": np.zeros((0, 3), np.float32)}, metadata={"epoch": 3})
@example(params={"w": np.array(1.5, np.float32)}, metadata={})
@example(params={"w": np.zeros((2**32, 0), np.float32)}, metadata={})
@example(params={}, metadata={"note": " padded "})
@example(params={}, metadata={"note": "two\nlines"})
@example(params={}, metadata={"a=b": 1})
@example(params={"\udc80": np.zeros(2, np.float32)}, metadata={})
@example(params={}, metadata={"note": "\udc80"})
def test_checkpoints_read_back_or_are_refused(tmp_path, params, metadata):
    path = tmp_path / "m.bweh"
    tensors_fit = all(
        1 <= tensor.ndim <= 3 and max(tensor.shape) <= 0xFFFFFFFF and _encodes(name) for name, tensor in params.items()
    )
    try:
        save_checkpoint(path, Checkpoint(config_text="model.kind = srnn", params=params, metadata=metadata))
    except DataError as exc:
        assert not tensors_fit or str(exc).startswith("metadata ")
        assert not list(tmp_path.glob("*.tmp"))  # tmp_path is shared by every example
        return
    assert tensors_fit
    back = load_checkpoint(path)
    assert back.config_text == "model.kind = srnn"
    assert back.metadata == {key: str(value) for key, value in metadata.items()}
    assert list(back.params) == list(params)
    for name, tensor in params.items():
        assert back.params[name].shape == tensor.shape and back.params[name].tobytes() == tensor.tobytes()


@READ_BACK_SETTINGS
@given(
    samples=arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=True, allow_infinity=True)),
    rate=st.integers(1, 2**32),
)
@example(samples=np.array([0.5, np.nan]), rate=16000)
@example(samples=np.zeros(3), rate=2**31)
def test_wav_files_read_back_within_one_step_or_are_refused(tmp_path, samples, rate):
    wave_in = Waveform(samples, rate)
    path = tmp_path / "a.wav"
    try:
        save_wav(path, wave_in)
    except DataError:
        assert np.isnan(samples).any() or rate >= 2**31
        return
    back = load_wav(path)
    assert back.sample_rate_hz == rate
    np.testing.assert_allclose(back.samples, wave_in.samples, rtol=0, atol=1 / 32768)


@READ_BACK_SETTINGS
@given(
    ids=st.lists(st.text(max_size=8), max_size=4),
    value=st.none() | st.floats(-1e6, 1e6),
)
@example(ids=["a\rb", "c"], value=1.5)
def test_report_csv_reads_back(ids, value):
    values = {key: value for key in CSV_HEADER.split(",")[1:]}
    report = MetricsReport(rows=[UtteranceMetrics(utt_id, values) for utt_id in ids], means=values, ci95=values)
    cells = ["n/a" if value is None else f"{value:.6f}"] * len(values)
    back = list(csv.reader(io.StringIO(format_report_csv(report), newline="")))
    assert back == [CSV_HEADER.split(","), *([utt_id, *cells] for utt_id in ids), ["mean", *cells]]
