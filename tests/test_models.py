"""Model tests: framing algebra, receptive fields, causality, exact
gradients on tiny configs, generation, and latency arithmetic."""

import tracemalloc

import numpy as np
import pytest

from bwex import nn
from bwex.data import UtterancePair, make_batch
from bwex.dsp import ConditionTrack, QuantizedWaveform, Waveform
from bwex.models import (
    GENERATE_CHUNK,
    VALIDATE_CHUNK,
    FieldError,
    Hrnn,
    HrnnConfig,
    PaddedBatch,
    Srnn,
    SrnnConfig,
    TierSpec,
    _frame_inputs,
    align_condition_frames,
    build_model,
    conditioning_fanout,
    generate,
    max_latency_ms,
    tbptt_chunks,
)
from bwex.train import validate


def tiny_cfg(frame_sizes=(16, 4), n_concat=(2, 2, 4), hidden=8, embed_dim=4, **kw):
    return HrnnConfig.build(
        frame_sizes=frame_sizes, n_concat=n_concat, hidden=hidden, embed_dim=embed_dim, **kw
    )


def zero_params(model):
    for value in model.params.values():
        value[...] = 0.0


class TestConfig:
    def test_default_reproduces_reference_system(self):
        cfg = HrnnConfig.build()
        sizes = [t.frame_size for t in cfg.tiers]
        concats = [t.n_concat for t in cfg.tiers]
        assert sizes == [1, 4, 16]
        assert concats == [4, 2, 2]
        assert cfg.hidden == 1024 and cfg.embed_dim == 256

    def test_tiers_are_derived_not_settable(self):
        with pytest.raises(TypeError):
            HrnnConfig(tiers=(TierSpec(1, 4, "sample"), TierSpec(4, 2, "top")))
        cfg = HrnnConfig(cond_frame_shift=160, cond_dim=39)
        assert cfg == HrnnConfig(frame_sizes=(16, 4), n_concat=(2, 2, 4), cond_frame_shift=160, cond_dim=39)
        assert cfg.tiers == ((1, 4, "sample"), (4, 2, "intermediate"), (16, 2, "intermediate"), (160, 1, "conditional"))
        with pytest.raises(ValueError, match="frame_sizes"):
            HrnnConfig(frame_sizes=())

    def test_frame_sizes_must_divide_and_increase(self):
        with pytest.raises(ValueError):
            tiny_cfg(frame_sizes=(16, 5))
        with pytest.raises(ValueError):
            tiny_cfg(frame_sizes=(4, 4), n_concat=(1, 1, 1))

    def test_conditional_requires_dim(self):
        with pytest.raises(ValueError):
            tiny_cfg(cond_frame_shift=32)
        cfg = tiny_cfg(cond_frame_shift=32, cond_dim=5)
        assert cfg.conditional and cfg.time_multiple == 32

    def test_cond_source_belongs_to_a_conditional_tier(self):
        assert tiny_cfg().cond_source is None
        assert tiny_cfg(cond_frame_shift=32, cond_dim=5).cond_source == "file"
        # An mfcc source is held to the MFCC track, which a 5-dim track at a 32-sample shift is not.
        with pytest.raises(FieldError):
            tiny_cfg(cond_frame_shift=32, cond_dim=5, cond_source="mfcc")
        with pytest.raises(FieldError, match="^cond_source needs a conditional tier, got 'mfcc'$"):
            tiny_cfg(cond_source="mfcc")
        with pytest.raises(FieldError, match="^cond_source must be mfcc or file, got 'wav'$"):
            tiny_cfg(cond_frame_shift=32, cond_dim=5, cond_source="wav")

    def test_lookahead_covers_all_waveform_tiers(self):
        assert tiny_cfg().lookahead == 16
        # With a conditional top (n_concat 1) the frame tiers still need theirs.
        assert tiny_cfg(cond_frame_shift=32, cond_dim=5).lookahead == 16
        assert tiny_cfg(n_concat=(1, 1, 1)).lookahead == 0

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            tiny_cfg(strategy="both")
        with pytest.raises(ValueError):
            SrnnConfig(strategy="x")


class TestPaddedBatchPad:
    def test_spec_example(self):
        batch = PaddedBatch.pad([np.arange(100) % 256], tiny_cfg())
        assert batch.inputs.shape == (1, 128)  # 112 output region + 16 lookahead
        assert batch.n_steps == 112 and batch.mask.sum(axis=1).tolist() == [100]
        assert batch.mask[0, :100].all() and not batch.mask[0, 100:].any()
        assert np.all(batch.inputs[0, 100:] == 128)
        assert batch.targets is None and batch.conditions is None

    def test_no_padding_when_aligned(self):
        cfg = tiny_cfg(n_concat=(1, 1, 1))
        batch = PaddedBatch.pad([np.zeros(64, dtype=int)], cfg)
        assert batch.inputs.shape == (1, 64) and batch.mask.all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PaddedBatch.pad([np.zeros(0, dtype=int)], tiny_cfg())
        with pytest.raises(ValueError):
            PaddedBatch.pad([np.arange(40), np.zeros(0, dtype=int)], tiny_cfg())
        with pytest.raises(ValueError):
            PaddedBatch.pad([], tiny_cfg())

    def test_srnn_needs_nothing(self):
        batch = PaddedBatch.pad([np.zeros(37, dtype=int)], SrnnConfig())
        assert batch.inputs.shape == (1, 37) and batch.mask.all()

    def test_two_rows_without_targets_align_short_tracks(self):
        # Frames of 8 samples and a lookahead of 4. Row "a" (40 samples) is
        # covered by 5 frames and its track has 3; row "b" (17 samples) by 3
        # frames, and its track has 2.
        cfg = tiny_cfg(frame_sizes=(4, 2), n_concat=(2, 2, 2), cond_frame_shift=8, cond_dim=2)
        tracks = [ConditionTrack(np.arange(6.0).reshape(3, 2) + 1, 8), ConditionTrack(-np.ones((2, 2)) * [1, 2], 8)]
        rows = [np.arange(40) % 256, np.arange(17) + 100]
        batch = PaddedBatch.pad(rows, cfg, conditions=tracks)
        assert batch.targets is None
        assert batch.inputs.shape == (2, 44) and batch.n_steps == 40
        np.testing.assert_array_equal(batch.mask.sum(axis=1), [40, 17])
        for row, levels, n in zip(batch.inputs, rows, (40, 17)):
            np.testing.assert_array_equal(row[:n], levels)
            assert np.all(row[n:] == 128)
        assert batch.mask[1, :17].all() and not batch.mask[1, 17:].any()
        assert batch.conditions.shape == (2, 5, 2) and batch.conditions.dtype == np.float32
        np.testing.assert_array_equal(batch.conditions[0], tracks[0].frames[[0, 1, 2, 2, 2]])
        np.testing.assert_array_equal(batch.conditions[1, :3], tracks[1].frames[[0, 1, 1]])
        assert not batch.conditions[1, 3:].any()

    def test_targets_are_padded_with_the_inputs(self):
        targets = [np.arange(30) + 1, np.arange(20) + 2]
        batch = PaddedBatch.pad([np.arange(30), np.arange(20)], tiny_cfg(), targets=targets)
        assert batch.targets.shape == (2, 32)
        np.testing.assert_array_equal(batch.targets[1, :20], np.arange(20) + 2)
        assert np.all(batch.targets[0, 30:] == 128) and np.all(batch.targets[1, 20:] == 128)


def frame_tier_inputs(values, tier: TierSpec, n_steps: int | None = None) -> np.ndarray:
    """Reference oracle: frame-and-concatenate step inputs for one tier,
    one step at a time.

    values is a padded 1-D sample sequence (or 2-D [length, dim] sequence
    of embedding vectors for the sample tier). Step t concatenates frames
    t .. t+n_concat-1, each of frame_size entries. Raises if the padded
    length cannot supply the lookahead frames.
    """
    values = np.asarray(values)
    size, concat = tier.frame_size, tier.n_concat
    if n_steps is None:
        n_steps = (len(values) - (concat - 1) * size) // size
    needed = (n_steps + concat - 1) * size
    if n_steps < 1 or len(values) < needed:
        raise ValueError(f"insufficient lookahead padding: have {len(values)} entries, need {needed}")
    return np.stack([values[t * size : (t + concat) * size].reshape(-1) for t in range(n_steps)])


class TestFrameTierInputs:
    def test_frame_concat_layout(self):
        tier = TierSpec(frame_size=4, n_concat=2, kind="intermediate")
        x = np.arange(20.0)
        f = frame_tier_inputs(x, tier, n_steps=4)
        assert f.shape == (4, 8)
        np.testing.assert_array_equal(f[0], np.arange(8.0))  # covers samples 1..8
        np.testing.assert_array_equal(f[3], np.arange(12.0, 20.0))

    def test_insufficient_lookahead_rejected(self):
        with pytest.raises(ValueError, match="lookahead"):
            frame_tier_inputs(np.zeros(16), TierSpec(4, 2, "intermediate"), n_steps=4)

    def test_sample_tier_embedding_concat(self):
        tier = TierSpec(frame_size=1, n_concat=4, kind="sample")
        vectors = np.arange(14.0).reshape(7, 2)
        f = frame_tier_inputs(vectors, tier, n_steps=4)
        assert f.shape == (4, 8)
        np.testing.assert_array_equal(f[0], vectors[0:4].reshape(-1))

    def test_default_step_inference(self):
        f = frame_tier_inputs(np.zeros(20), TierSpec(4, 2, "intermediate"))
        assert f.shape == (4, 8)

    @pytest.mark.parametrize("frame_size, n_concat, dim", [(4, 2, None), (16, 2, None), (1, 4, 3), (4, 1, None)])
    def test_forward_framing_matches_the_oracle(self, frame_size, n_concat, dim):
        # `Hrnn.forward` frames a whole batch at once with `_frame_inputs`.
        n_steps = 5
        shape = (2, (n_steps + n_concat - 1) * frame_size) + (() if dim is None else (dim,))
        x = np.random.default_rng(frame_size).standard_normal(shape)
        got = _frame_inputs(x, frame_size, n_concat, n_steps)
        tier = TierSpec(frame_size, n_concat, "intermediate")
        for b in range(2):
            np.testing.assert_array_equal(got[b], frame_tier_inputs(x[b], tier, n_steps))


class TestConditioningFanout:
    def test_ordering_and_length(self):
        h = np.arange(6.0).reshape(1, 3, 2)
        w = np.stack([np.eye(2) * (j + 1) for j in range(4)])
        b = np.zeros((4, 2))
        d = conditioning_fanout(h, w, b)
        assert d.shape == (1, 12, 2)
        # Step t emits j = 1..4 in order: d[(t-1)*4 + j - 1] = W_j h_t.
        np.testing.assert_array_equal(d[0, 0], h[0, 0] * 1)
        np.testing.assert_array_equal(d[0, 3], h[0, 0] * 4)
        np.testing.assert_array_equal(d[0, 4], h[0, 1] * 1)

    def test_ratio_one_is_pointwise(self):
        h = np.random.default_rng(0).standard_normal((2, 5, 3))
        w = np.random.default_rng(1).standard_normal((1, 4, 3))
        d = conditioning_fanout(h, w, np.zeros((1, 4)))
        assert d.shape == (2, 5, 4)
        np.testing.assert_allclose(d[1, 2], w[0] @ h[1, 2])

    def test_constant_h_repeats_with_period_r(self):
        h = np.ones((1, 3, 2))
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 2, 2))
        d = conditioning_fanout(h, w, np.zeros((4, 2)))
        np.testing.assert_array_equal(d[0, :4], d[0, 4:8])
        np.testing.assert_array_equal(d[0, :4], d[0, 8:])

    @pytest.mark.parametrize("ratio", [1, 4])
    def test_matches_einsum_reference(self, ratio):
        # The einsum expressions of the fan-out and its backward serve as
        # the oracle for the GEMM forms. Entries that cancel to near zero
        # differ by an ulp of the O(1) terms, hence the matching atol.
        from bwex.models import _fanout_backward

        rng = np.random.default_rng(ratio)
        batch, steps, up, down = 3, 5, 7, 6
        h = rng.standard_normal((batch, steps, up))
        w = rng.standard_normal((ratio, down, up))
        b = rng.standard_normal((ratio, down))
        expected = (np.einsum("bth,rjh->btrj", h, w) + b).reshape(batch, steps * ratio, down)
        np.testing.assert_allclose(conditioning_fanout(h, w, b), expected, rtol=1e-12, atol=1e-12)
        d_out = rng.standard_normal((batch, steps * ratio, down))
        d4 = d_out.reshape(batch, steps, ratio, down)
        d_weights, d_biases, dh = _fanout_backward(d_out, h, w)
        np.testing.assert_allclose(d_weights, np.einsum("btrj,bth->rjh", d4, h), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_biases, d4.sum(axis=(0, 1)), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dh, np.einsum("btrj,rjh->bth", d4, w), rtol=1e-12, atol=1e-12)


class TestHrnnForward:
    @pytest.mark.parametrize("frame_sizes", [(16, 4), (32, 8), (64, 8)])
    def test_output_length_matches_padded_region(self, frame_sizes):
        cfg = tiny_cfg(frame_sizes=frame_sizes)
        model = Hrnn(cfg, rng=0)
        batch = PaddedBatch.pad([np.arange(200) % 256], cfg)
        logits, _, _ = model.forward(batch.inputs)
        assert logits.shape == (1, batch.n_steps, 256)

    def test_zero_params_uniform_distribution(self):
        model = Hrnn(tiny_cfg(), rng=0)
        zero_params(model)
        logits, _, _ = model.forward(PaddedBatch.pad([np.arange(100) % 256], model.cfg).inputs)
        assert np.all(logits == 0.0)

    def test_resolution_algebra_via_cache(self):
        # Each tier-n step maps to frame_size(n)/frame_size(m) tier-m steps:
        # counted through the emitted conditioning-vector sequence lengths.
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=1)
        batch = PaddedBatch.pad([np.arange(160) % 256], cfg)
        _, cache, _ = model.forward(batch.inputs)
        n_steps = batch.n_steps
        assert cache["tiers"][2]["lstm"].h.shape[1] == n_steps // 16
        assert cache["tiers"][1]["lstm"].h.shape[1] == n_steps // 4
        assert cache["tiers"][1]["lstm"].x.shape[1] == n_steps // 4

    def test_receptive_field_bound(self):
        # Randomized perturbation: changing the input at p leaves every
        # output before (floor(p/16) - 1) * 16 bit-identical.
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=3)
        rng = np.random.default_rng(4)
        levels = rng.integers(0, 256, 160)
        padded = PaddedBatch.pad([levels], cfg).inputs[0]
        base, _, _ = model.forward(padded[None].copy())
        for p in [40, 64, 97, 130]:
            perturbed = padded.copy()
            perturbed[p] = (perturbed[p] + 128) % 256
            out, _, _ = model.forward(perturbed[None])
            safe = (p // 16 - 1) * 16
            assert np.array_equal(out[0, :safe], base[0, :safe])
            assert not np.array_equal(out[0], base[0])  # the sweep is live

    def test_state_carry_changes_outputs(self):
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=5)
        padded = PaddedBatch.pad([np.arange(64) % 256], cfg).inputs
        _, _, state = model.forward(padded)
        fresh, _, _ = model.forward(padded)
        carried, _, _ = model.forward(padded, state=state)
        assert not np.allclose(fresh, carried)

    def test_conditions_required_and_checked(self):
        cfg = tiny_cfg(frame_sizes=(4, 2), n_concat=(1, 1, 1), cond_frame_shift=8, cond_dim=5)
        model = Hrnn(cfg, rng=6)
        padded = PaddedBatch.pad([np.arange(32) % 256], cfg).inputs
        with pytest.raises(ValueError, match="condition"):
            model.forward(padded)
        with pytest.raises(ValueError, match="short"):
            model.forward(padded, conditions=np.zeros((1, 2, 5), np.float32))
        logits, _, _ = model.forward(padded, conditions=np.ones((1, 4, 5), np.float32))
        assert logits.shape == (1, 32, 256)

    def test_bad_length_rejected(self):
        model = Hrnn(tiny_cfg(), rng=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 30), dtype=int))


class TestFoldedSampleTier:
    """The sample tier's pre-activation, computed as one table lookup per
    concatenation slot, against the explicit combine(frame(embed(levels)))."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n_concat", [1, 4])
    def test_matches_explicit_combine(self, dtype, rtol, n_concat):
        cfg = tiny_cfg(n_concat=(2, 2, n_concat), hidden=16, embed_dim=8)
        model = Hrnn(cfg, rng=23, dtype=dtype)
        model.params["tier1.combine.b"][...] = np.random.default_rng(24).uniform(-1, 1, 16)
        n_steps = 64
        levels = np.random.default_rng(25).integers(0, 256, (3, n_steps + cfg.lookahead))
        _, cache, _ = model.forward(levels)

        vectors = model.params["embed.table"][levels]
        f = np.concatenate([vectors[:, j : j + n_steps] for j in range(n_concat)], axis=2)
        combined = nn.affine(nn.AffineParams(model.params["tier1.combine.w"], model.params["tier1.combine.b"]), f)
        conditioning = conditioning_fanout(
            cache["tiers"][1]["lstm"].h, model.params["tier2.fanout.w"], model.params["tier2.fanout.b"]
        )
        got = cache["tiers"][0]["i"]
        assert got.dtype == dtype and got.shape == (3, n_steps, 16)
        expected = combined + conditioning
        # Entries that cancel to near zero get the tolerance of the largest one.
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=rtol * np.abs(expected).max())

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_out_of_range_level_rejected(self, bad):
        cfg = tiny_cfg()
        model = Hrnn(cfg, rng=26)
        levels = np.full((1, 32 + cfg.lookahead), 128)
        levels[0, 5] = bad
        with pytest.raises(ValueError, match="out of range"):
            model.forward(levels)


class TestSrnn:
    def test_causality(self):
        model = Srnn(SrnnConfig(embed_dim=4, hidden=8), rng=0)
        rng = np.random.default_rng(1)
        levels = rng.integers(0, 256, (1, 50))
        base, _, _ = model.forward(levels)
        for u in [10, 25, 49]:
            perturbed = levels.copy()
            perturbed[0, u] = (perturbed[0, u] + 77) % 256
            out, _, _ = model.forward(perturbed)
            assert np.array_equal(out[0, :u], base[0, :u])
            assert not np.array_equal(out[0, u:], base[0, u:])

    def test_length_preserved_no_padding(self):
        model = Srnn(SrnnConfig(embed_dim=4, hidden=8), rng=0)
        logits, _, _ = model.forward(np.zeros((2, 37), dtype=int))
        assert logits.shape == (2, 37, 256)

    def test_zero_params_uniform(self):
        model = Srnn(SrnnConfig(embed_dim=4, hidden=8), rng=0)
        zero_params(model)
        logits, _, _ = model.forward(np.zeros((1, 10), dtype=int))
        assert np.all(logits == 0.0)

    def test_rejects_conditions(self):
        model = Srnn(SrnnConfig(embed_dim=4, hidden=8), rng=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 5), dtype=int), conditions=np.zeros((1, 1, 3)))


def masked_ce_loss_and_grads(model, levels, targets, mask):
    logits, cache, _ = model.forward(levels)
    flat = logits.reshape(-1, logits.shape[-1])
    loss, dflat = nn.softmax_ce(flat, targets.reshape(-1), mask.reshape(-1))
    grads = model.backward(cache, dflat.reshape(logits.shape))
    return loss, grads


class TestGradients:
    def test_full_hrnn_matches_finite_differences(self):
        cfg = tiny_cfg(hidden=8, embed_dim=4)
        model = Hrnn(cfg, rng=7, dtype=np.float64)
        rng = np.random.default_rng(8)
        batch = PaddedBatch.pad([rng.integers(0, 256, 32)], cfg)
        padded, mask = batch.inputs[0], batch.mask[0]
        targets = rng.integers(0, 256, len(mask))

        def loss_and_grads(_params):
            return masked_ce_loss_and_grads(model, padded[None], targets[None], mask[None])

        report = nn.grad_check(
            loss_and_grads, model.params, tolerance=1e-3, rng=rng, max_coords_per_param=5
        )
        assert report.passed, report.per_param

    def test_conditional_hrnn_matches_finite_differences(self):
        cfg = tiny_cfg(
            frame_sizes=(4, 2), n_concat=(2, 2, 2), hidden=6, embed_dim=3,
            cond_frame_shift=8, cond_dim=4,
        )
        model = Hrnn(cfg, rng=9, dtype=np.float64)
        rng = np.random.default_rng(10)
        batch = PaddedBatch.pad([rng.integers(0, 256, 24)], cfg)
        padded, mask = batch.inputs[0], batch.mask[0]
        conditions = rng.standard_normal((1, len(mask) // 8, 4))
        targets = rng.integers(0, 256, len(mask))

        def loss_and_grads(_params):
            logits, cache, _ = model.forward(padded[None], conditions=conditions)
            flat = logits.reshape(-1, 256)
            loss, dflat = nn.softmax_ce(flat, targets, mask)
            return loss, model.backward(cache, dflat.reshape(logits.shape))

        report = nn.grad_check(
            loss_and_grads, model.params, tolerance=1e-3, rng=rng, max_coords_per_param=5
        )
        assert report.passed, report.per_param

    def test_full_srnn_matches_finite_differences(self):
        model = Srnn(SrnnConfig(embed_dim=3, hidden=6), rng=11, dtype=np.float64)
        rng = np.random.default_rng(12)
        levels = rng.integers(0, 256, (1, 12))
        targets = rng.integers(0, 256, (1, 12))
        mask = np.ones((1, 12), bool)

        def loss_and_grads(_params):
            return masked_ce_loss_and_grads(model, levels, targets, mask)

        report = nn.grad_check(
            loss_and_grads, model.params, tolerance=1e-3, rng=rng, max_coords_per_param=5
        )
        assert report.passed, report.per_param

    def test_fanout_rows_without_upstream_signal_get_zero_grad(self):
        from bwex.models import _fanout_backward

        rng = np.random.default_rng(13)
        h = rng.standard_normal((1, 3, 2))
        w = rng.standard_normal((4, 2, 2))
        d_out = rng.standard_normal((1, 12, 2))
        d_out.reshape(1, 3, 4, 2)[:, :, 2] = 0.0  # projection j=3 never signalled
        dw, _, _ = _fanout_backward(d_out, h, w)
        assert not dw[2].any()
        assert dw[0].any()

    def test_masked_tail_contributes_nothing(self):
        cfg = tiny_cfg(hidden=6, embed_dim=3)
        model = Hrnn(cfg, rng=14)
        rng = np.random.default_rng(15)
        levels = rng.integers(0, 256, 40)
        batch = PaddedBatch.pad([levels], cfg)
        padded, valid_len, mask = batch.inputs[0], len(levels), batch.mask[0]
        targets = rng.integers(0, 256, len(mask))
        loss_a, grads_a = masked_ce_loss_and_grads(model, padded[None], targets[None], mask[None])
        # Perturb target values on masked positions only.
        targets_b = targets.copy()
        targets_b[valid_len:] = (targets_b[valid_len:] + 13) % 256
        loss_b, grads_b = masked_ce_loss_and_grads(model, padded[None], targets_b[None], mask[None])
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])


class TestGenerate:
    def test_forced_level_wins_everywhere(self):
        model = Hrnn(tiny_cfg(), rng=16)
        zero_params(model)
        model.params["tier1.ff2.b"][77] = 5.0
        out = generate(model, QuantizedWaveform(np.arange(100) % 256, 16000))
        assert len(out) == 100
        assert np.all(out.levels == 77)

    def test_argmax_ties_take_lowest_level(self):
        model = Hrnn(tiny_cfg(), rng=17)
        zero_params(model)  # all logits equal -> level 0 everywhere
        out = generate(model, QuantizedWaveform(np.zeros(32, dtype=int), 16000))
        assert np.all(out.levels == 0)

    def test_deterministic(self):
        model = Hrnn(tiny_cfg(), rng=18)
        q = QuantizedWaveform(np.arange(321) % 256, 16000)
        a = generate(model, q)
        b = generate(model, q)
        np.testing.assert_array_equal(a.levels, b.levels)

    def test_a_model_without_a_conditional_tier_ignores_a_track(self):
        model = Hrnn(tiny_cfg(), rng=18)
        q = QuantizedWaveform(np.arange(321) % 256, 16000)
        track = ConditionTrack(np.ones((3, 5)), 32)
        np.testing.assert_array_equal(generate(model, q, track).levels, generate(model, q).levels)

    def test_align_condition_frames(self):
        frames = np.arange(6.0).reshape(3, 2)
        out = align_condition_frames(frames, 5)
        assert out.shape == (5, 2)
        np.testing.assert_array_equal(out[3], frames[-1])
        np.testing.assert_array_equal(align_condition_frames(frames, 2), frames[:2])
        with pytest.raises(ValueError):
            align_condition_frames(np.zeros((0, 2)), 3)


def _one_pass_inputs(model, q, conditions=None):
    """(levels [1, padded], conditions [1, frames, d] or None, valid_len)
    for one forward over the whole padded utterance."""
    batch = PaddedBatch.pad([q.levels], model.cfg, conditions=None if conditions is None else [conditions])
    return batch.inputs, batch.conditions, len(q)


def _one_pass_levels(model, q, conditions=None):
    """Argmax of one cached forward over the whole padded utterance."""
    levels, cond, valid_len = _one_pass_inputs(model, q, conditions)
    logits, _, _ = model.forward(levels, conditions=cond)
    return np.argmax(logits[0], axis=-1)[:valid_len]


def _inference_model(kind, dtype, seed=0):
    if kind == "hrnn":
        return Hrnn(HrnnConfig.build(hidden=32, embed_dim=16), rng=seed, dtype=dtype)
    if kind == "srnn":
        return Srnn(SrnnConfig(hidden=32, embed_dim=16), rng=seed, dtype=dtype)
    cfg = HrnnConfig.build(hidden=16, embed_dim=8, cond_frame_shift=160, cond_dim=5)
    return Hrnn(cfg, rng=seed, dtype=dtype)


def _inference_inputs(kind, length, seed=0):
    rng = np.random.default_rng(seed + length)
    q = QuantizedWaveform(rng.integers(0, 256, length), 16000)
    conditions = None
    if kind == "conditional":
        # a track one frame short of the padded region: the last frame repeats
        n_frames = max(1, -(-length // 160) - 1)
        conditions = ConditionTrack(rng.standard_normal((n_frames, 5)), 160)
    return q, conditions


class TestChunkedGenerate:
    """`generate` runs chunked inference forwards with carried state."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["hrnn", "srnn", "conditional"])
    @pytest.mark.parametrize("length", [1, 15, 16, 17, 2047, 2048, 2049, 4111, 20000])
    def test_equals_one_pass_forward(self, length, kind, dtype):
        model = _inference_model(kind, dtype)
        q, conditions = _inference_inputs(kind, length)
        out = generate(model, q, conditions)
        assert out.levels.dtype == np.int32 and len(out) == length
        np.testing.assert_array_equal(out.levels, _one_pass_levels(model, q, conditions))

    @pytest.mark.parametrize("kind", ["hrnn", "srnn", "conditional"])
    def test_uncached_forward_gives_the_cached_logits(self, kind):
        model = _inference_model(kind, np.float32, seed=3)
        levels, cond, _ = _one_pass_inputs(model, *_inference_inputs(kind, 700))
        state = model.init_state(1)
        for value in state.values():  # a carried, nonzero state
            for array in value:
                array[...] = 0.25
        cached, cache, cached_state = model.forward(levels, conditions=cond, state=state)
        logits, none, out_state = model.forward(levels, conditions=cond, state=state, cache=False)
        assert cache is not None and none is None
        np.testing.assert_array_equal(logits, cached)
        for key, (h, c) in cached_state.items():
            np.testing.assert_array_equal(out_state[key][0], h)
            np.testing.assert_array_equal(out_state[key][1], c)

    @staticmethod
    def forwarded_lengths(monkeypatch, model):
        """The output steps of each forward `model` runs from now on."""
        lengths = []
        forward = model.forward

        def spy(levels, **kwargs):
            lengths.append(levels.shape[1] - model.cfg.lookahead)
            return forward(levels, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        return lengths

    @pytest.mark.parametrize("kind, window", [("hrnn", 4096), ("conditional", 4160)])
    def test_windows_are_the_chunk_rule(self, monkeypatch, kind, window):
        """`generate` forwards the windows the one chunk rule cuts at its own
        length: whole top-tier frames (16 or 160 samples) of at least
        GENERATE_CHUNK, the last one shorter."""
        model = _inference_model(kind, np.float32)
        q, conditions = _inference_inputs(kind, 20000)
        lengths = self.forwarded_lengths(monkeypatch, model)
        generate(model, q, conditions)
        whole = PaddedBatch.pad([q.levels], model.cfg, conditions=None if conditions is None else [conditions])
        assert lengths == [w.n_steps for w in tbptt_chunks(whole, GENERATE_CHUNK, model.cfg)]
        assert lengths[:-1] == [window] * (len(lengths) - 1)
        assert 0 < lengths[-1] < window and sum(lengths) == 20000

    @pytest.mark.parametrize("kind, window", [("hrnn", 2048), ("conditional", 2080)])
    def test_validate_windows_are_the_chunk_rule(self, monkeypatch, kind, window):
        """`validate` forwards the windows the one chunk rule cuts at
        VALIDATE_CHUNK, whatever `generate`'s window: the `best_valid_ce`
        that every checkpoint holds depends on them."""
        model = _inference_model(kind, np.float32)
        q, conditions = _inference_inputs(kind, 20000)
        pair = UtterancePair("u", q, q, Waveform(np.zeros(10000), 8000), conditions)
        lengths = self.forwarded_lengths(monkeypatch, model)
        validate(model, [pair])
        whole = make_batch([pair], model.cfg)
        assert lengths == [w.n_steps for w in tbptt_chunks(whole, VALIDATE_CHUNK, model.cfg)]
        assert lengths[:-1] == [window] * (len(lengths) - 1)
        assert 0 < lengths[-1] < window and sum(lengths) == 20000

    def test_peak_memory_is_flat_in_utterance_length(self):
        model = _inference_model("hrnn", np.float32)
        peaks = {}
        for seconds in (1, 4):
            q, _ = _inference_inputs("hrnn", 16000 * seconds)
            tracemalloc.start()
            try:
                generate(model, q)
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.25 * peaks[1]
        assert peaks[4] < 32 * 2**20


class TestLatency:
    def test_reference_hrnn(self):
        assert max_latency_ms(HrnnConfig.build(), 16000) == 1.9375

    def test_srnn_zero(self):
        assert max_latency_ms(SrnnConfig(), 16000) == 0.0

    def test_conditional_with_analysis_window(self):
        cfg = HrnnConfig.build(cond_frame_shift=160, cond_dim=39, cond_window_ms=25.0)
        assert max_latency_ms(cfg, 16000) == 25.0

    def test_conditional_without_window_uses_structure(self):
        cfg = HrnnConfig.build(cond_frame_shift=160, cond_dim=39)
        assert max_latency_ms(cfg, 16000) == (160 - 1) * 1000.0 / 16000


class TestBuildAndLoad:
    def test_build_model_dispatch(self):
        assert isinstance(build_model(SrnnConfig(embed_dim=2, hidden=4), rng=0), Srnn)
        assert isinstance(build_model(tiny_cfg(), rng=0), Hrnn)

    def test_load_params_roundtrip(self):
        model = Hrnn(tiny_cfg(), rng=19)
        snapshot = {k: v.copy() for k, v in model.params.items()}
        other = Hrnn(tiny_cfg(), rng=20)
        other.load_params(snapshot)
        padded = PaddedBatch.pad([np.arange(64) % 256], model.cfg).inputs
        a, _, _ = model.forward(padded)
        b, _, _ = other.forward(padded)
        np.testing.assert_array_equal(a, b)

    def test_load_params_copies_into_existing_arrays(self):
        model = Hrnn(tiny_cfg(), rng=22)
        before = dict(model.params)
        source = {k: v.astype(np.float64) + 1.0 for k, v in Hrnn(tiny_cfg(), rng=23).params.items()}
        model.load_params(source)
        for name, value in model.params.items():
            assert value is before[name] and value.dtype == np.float32
            assert not np.shares_memory(value, source[name])
            np.testing.assert_array_equal(value, source[name].astype(np.float32))

    def test_adopted_params_are_checked(self):
        params = Hrnn(tiny_cfg(), rng=24).params
        with pytest.raises(ValueError, match="missing"):
            build_model(tiny_cfg(), params={k: v for k, v in params.items() if k != "embed.table"})
        bad = dict(params, **{"embed.table": np.zeros((256, 5), np.float32)})
        with pytest.raises(ValueError, match="shape mismatch"):
            build_model(tiny_cfg(), params=bad)

    def test_load_params_validates_names(self):
        model = Hrnn(tiny_cfg(), rng=21)
        bad = {k: v.copy() for k, v in model.params.items()}
        bad["nonsense"] = np.zeros(3)
        with pytest.raises(ValueError, match="nonsense"):
            model.load_params(bad)
