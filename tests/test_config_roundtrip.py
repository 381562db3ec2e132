"""Property: every model config survives serialize -> parse unchanged."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bwex.config import build_run_config, serialize_config  # noqa: E402
from bwex.dsp import MFCC_TRACK  # noqa: E402
from bwex.models import FieldError, HrnnConfig, SrnnConfig, max_latency_ms  # noqa: E402
from bwex.train import TrainConfig  # noqa: E402


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
