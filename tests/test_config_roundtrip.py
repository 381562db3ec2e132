"""Property: every model config survives serialize -> parse unchanged."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bwex.config import build_run_config, serialize_config  # noqa: E402
from bwex.data import MFCC_TRACK  # noqa: E402
from bwex.models import HrnnConfig, SrnnConfig  # noqa: E402
from bwex.train import TrainConfig  # noqa: E402


@st.composite
def model_configs(draw):
    """Model configs over SRNN and HRNN stacks, with and without a
    conditional tier; an `mfcc` source only on the MFCC track, a `file`
    source on any track."""
    shared = {
        "hidden": draw(st.integers(1, 2048)),
        "embed_dim": draw(st.integers(1, 512)),
        "strategy": draw(st.sampled_from(["hf", "wb"])),
        "hf_gain": draw(st.floats(1.0, 64.0, allow_nan=False)),
    }
    if draw(st.booleans()):
        return SrnnConfig(**shared)
    # Frame sizes top-down, each a multiple (>= 2) of the one below.
    ratios = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    sizes = [ratios[0]]
    for ratio in ratios[1:]:
        sizes.append(sizes[-1] * ratio)
    frame_sizes = tuple(reversed(sizes))
    n_concat = draw(st.none() | st.tuples(*[st.integers(1, 8)] * (len(frame_sizes) + 1)))
    if not draw(st.booleans()):
        return HrnnConfig(frame_sizes=frame_sizes, n_concat=n_concat, **shared)
    if draw(st.booleans()):
        shift = MFCC_TRACK["cond_frame_shift"]
        assume(shift % frame_sizes[0] == 0 and shift > frame_sizes[0])
        cond = dict(MFCC_TRACK, cond_source=draw(st.sampled_from(["mfcc", "file"])))
    else:
        cond = {
            "cond_frame_shift": frame_sizes[0] * draw(st.integers(2, 20)),
            "cond_dim": draw(st.integers(1, 100)),
            "cond_window_ms": draw(st.none() | st.floats(0.5, 100.0, allow_nan=False)),
            "cond_source": "file",
        }
    return HrnnConfig(frame_sizes=frame_sizes, n_concat=n_concat, **cond, **shared)


@settings(max_examples=200, deadline=None)
@given(model_configs())
def test_serialized_model_config_parses_back_equal(cfg):
    back = build_run_config(serialize_config(TrainConfig(model=cfg)))
    assert back.model_cfg == cfg
    if isinstance(cfg, HrnnConfig):
        assert back.model_cfg.tiers == cfg.tiers
