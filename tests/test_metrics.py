"""Metric tests: SNR/LSD oracles, V/UV splits, accuracy, reconstruction,
report formatting, and the scipy modules the package loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwex
from bwex import dsp
from bwex.config import build_run_config
from bwex.data import save_wav
from bwex.dsp import QuantizedWaveform, Waveform
from bwex.metrics import (
    LSD_FRAME_LEN,
    LSD_FRAME_SHIFT,
    MetricsReport,
    UtteranceMetrics,
    accuracy,
    build_report,
    evaluate_utterance,
    format_report_csv,
    format_report_text,
    lsd,
    reconstruct_wideband,
    snr,
    split_metrics,
)
from bwex.models import build_model
from bwex.train import Checkpoint, save_checkpoint


def noise_wave(n=16000, seed=0, amp=0.3, rate=16000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.uniform(-amp, amp, n), rate)


class TestSnr:
    def test_identical_capped(self):
        w = noise_wave()
        assert snr(w, w) == 120.0

    def test_silent_reference_floored(self):
        silent = Waveform(np.zeros(1000), 16000)
        assert snr(silent, noise_wave(1000)) == -120.0

    def test_known_noise_power(self):
        rng = np.random.default_rng(1)
        ref = noise_wave(seed=2)
        noise = rng.uniform(-0.01, 0.01, len(ref))
        deg = Waveform(ref.samples + noise, 16000)
        expected = 10 * np.log10(np.sum(ref.samples**2) / np.sum(noise**2))
        assert abs(snr(ref, deg) - expected) < 0.1

    def test_zero_output_gives_zero_db(self):
        ref = noise_wave()
        assert abs(snr(ref, Waveform(np.zeros(len(ref)), 16000))) < 1e-9

    def test_scalar_scaling_identity(self):
        # snr(x, (1 - delta) x) = -20 log10(delta), exactly.
        ref = noise_wave(seed=3)
        for delta in (0.5, 0.1, 0.01):
            deg = Waveform(ref.samples * (1 - delta), 16000)
            np.testing.assert_allclose(snr(ref, deg), -20 * np.log10(delta), rtol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            snr(noise_wave(100), noise_wave(101))


class TestLsd:
    def test_identical_zero(self):
        w = noise_wave()
        assert lsd(w, w) == 0.0

    def test_half_amplitude_is_6db(self):
        ref = noise_wave(seed=4)
        deg = Waveform(ref.samples * 0.5, 16000)
        np.testing.assert_allclose(lsd(ref, deg), 20 * np.log10(2), atol=0.01)

    def test_matches_straight_line_oracle(self):
        # Independent 64-bit reimplementation, straight from the formula.
        ref = noise_wave(4000, seed=5)
        deg = noise_wave(4000, seed=6)
        window = np.hanning(LSD_FRAME_LEN)
        frames = []
        n_frames = (4000 - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        for i in range(n_frames):
            sl = slice(i * LSD_FRAME_SHIFT, i * LSD_FRAME_SHIFT + LSD_FRAME_LEN)
            spec_r = np.fft.rfft(ref.samples[sl] * window, 512)
            spec_d = np.fft.rfft(deg.samples[sl] * window, 512)
            diff = 20 * np.log10(np.abs(spec_r) + 1e-10) - 20 * np.log10(np.abs(spec_d) + 1e-10)
            frames.append(np.sqrt(np.mean(diff**2)))
        np.testing.assert_allclose(lsd(ref, deg), np.mean(frames), atol=1e-6)

    def test_symmetric(self):
        a = noise_wave(seed=7)
        b = noise_wave(seed=8)
        assert abs(lsd(a, b) - lsd(b, a)) < 1e-9

    def test_band_limited_variant(self):
        ref = noise_wave(seed=9)
        deg = Waveform(ref.samples * 0.5, 16000)
        np.testing.assert_allclose(lsd(ref, deg, fmin_hz=4000, fmax_hz=8000), 6.0206, atol=0.01)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            lsd(noise_wave(100), noise_wave(100))


class TestAccuracy:
    def q(self, levels):
        return QuantizedWaveform(np.asarray(levels), 16000)

    def test_identical_100(self):
        assert accuracy(self.q([1, 2, 3]), self.q([1, 2, 3])) == 100.0

    def test_off_by_one_0(self):
        assert accuracy(self.q([1, 2, 3]), self.q([2, 3, 4])) == 0.0

    def test_half_50(self):
        assert accuracy(self.q([1, 2, 3, 4]), self.q([1, 2, 0, 0])) == 50.0

    def test_mask_restricts(self):
        mask = np.array([True, True, False])
        assert accuracy(self.q([5, 6, 0]), self.q([5, 6, 9]), mask) == 100.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            accuracy(self.q([1]), self.q([1]), np.array([False]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        mask = rng.random(50) < 0.7
        perm = rng.permutation(50)
        assert accuracy(self.q(a), self.q(b), mask) == accuracy(
            self.q(a[perm]), self.q(b[perm]), mask[perm]
        )


class TestSplitMetrics:
    def test_all_voiced_collapses_to_overall(self):
        ref = noise_wave(seed=11)
        deg = Waveform(ref.samples * 0.7, 16000)
        n_frames = (len(ref) - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        out = split_metrics(ref, deg, np.ones(n_frames, bool))
        np.testing.assert_allclose(out["lsd_v"], lsd(ref, deg), atol=1e-9)
        assert out["snr_u"] is None and out["lsd_u"] is None

    def test_distortion_in_unvoiced_half(self):
        # Tone first half (voiced), noise second half (unvoiced); distort
        # only the noise: SNR-V must beat SNR-U.
        rate = 16000
        n = 16384
        rng = np.random.default_rng(12)
        x = np.concatenate(
            [
                0.5 * np.sin(2 * np.pi * 200 * np.arange(n // 2) / rate),
                rng.uniform(-0.4, 0.4, n // 2),
            ]
        )
        ref = Waveform(x, rate)
        deg_samples = x.copy()
        deg_samples[n // 2 :] *= 0.6
        deg = Waveform(deg_samples, rate)
        flags = dsp.frame_vuv(ref, LSD_FRAME_LEN, LSD_FRAME_SHIFT)
        assert flags[:10].all() and not flags[-10:].any()
        out = split_metrics(ref, deg, flags)
        assert out["snr_v"] > out["snr_u"]

    def test_inverted_flags_swap(self):
        ref = noise_wave(seed=13)
        deg = noise_wave(seed=14)
        n_frames = (len(ref) - LSD_FRAME_LEN) // LSD_FRAME_SHIFT + 1
        rng = np.random.default_rng(15)
        flags = rng.random(n_frames) < 0.5
        a = split_metrics(ref, deg, flags)
        b = split_metrics(ref, deg, ~flags)
        assert a["snr_v"] == b["snr_u"] and a["lsd_v"] == b["lsd_u"]

    def test_flag_count_mismatch(self):
        ref = noise_wave()
        with pytest.raises(ValueError, match="framing"):
            split_metrics(ref, ref, np.ones(3, bool))


class TestReconstruct:
    def test_constant_128_returns_upsampled_narrowband(self):
        nb = Waveform(0.4 * np.sin(2 * np.pi * 700 * np.arange(8000) / 8000) * np.hanning(8000), 8000)
        generated = QuantizedWaveform(np.full(16000, 128), 16000)
        out = reconstruct_wideband(nb, generated, strategy="hf", hf_gain=4.0)
        base = dsp.upsample2(nb)
        err = out.samples - base.samples
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(base.samples**2))
        assert 20 * np.log10(rel + 1e-300) <= -40.0

    def test_true_hf_roundtrip_snr(self):
        # Pipeline identity: feed back the amplified true HF levels.
        t = np.arange(16000) / 16000.0
        wb = Waveform(
            (0.45 * np.sin(2 * np.pi * 1000 * t) + 0.1 * np.sin(2 * np.pi * 6000 * t))
            * np.hanning(16000),
            16000,
        )
        nb = dsp.downsample2(wb)
        hf_levels = dsp.mulaw_encode(dsp.make_hf_target(wb, gain=4.0))
        out = reconstruct_wideband(nb, hf_levels, strategy="hf", hf_gain=4.0)
        margin = slice(600, -600)  # outside filter warm-up
        ref = Waveform(wb.samples[margin], 16000)
        deg = Waveform(out.samples[margin], 16000)
        assert snr(ref, deg) >= 30.0

    def test_low_band_untouched(self):
        nb = noise_wave(8000, seed=16, amp=0.3, rate=8000)
        rng = np.random.default_rng(17)
        generated = QuantizedWaveform(rng.integers(0, 256, 16000), 16000)
        out = reconstruct_wideband(nb, generated, strategy="hf", hf_gain=4.0)
        base = dsp.upsample2(nb)
        diff = Waveform(out.samples - base.samples, 16000)
        spec = dsp.stft(diff, 512, 256)
        freqs = np.fft.rfftfreq(512, 1 / 16000)
        low = np.sum(np.abs(spec[:, freqs < 3500]) ** 2)
        base_spec = dsp.stft(base, 512, 256)
        base_low = np.sum(np.abs(base_spec[:, freqs < 3500]) ** 2)
        assert 10 * np.log10(low / base_low) <= -35.0

    def test_linear_in_generated_hf(self):
        nb = noise_wave(4000, seed=18, amp=0.2, rate=8000)
        base = dsp.upsample2(nb)
        rng = np.random.default_rng(19)
        levels = rng.integers(0, 256, 8000)
        out1 = reconstruct_wideband(nb, QuantizedWaveform(levels, 16000), "hf", 4.0)
        hf1 = out1.samples - base.samples
        out2 = reconstruct_wideband(nb, QuantizedWaveform(levels, 16000), "hf", 8.0)
        hf2 = out2.samples - base.samples
        np.testing.assert_allclose(hf1, 2.0 * hf2, atol=1e-9)

    def test_rate_and_length_validation(self):
        nb = noise_wave(4000, rate=8000)
        with pytest.raises(ValueError, match="rate"):
            reconstruct_wideband(nb, QuantizedWaveform(np.zeros(8000, int), 8000))
        with pytest.raises(ValueError, match="length"):
            reconstruct_wideband(nb, QuantizedWaveform(np.zeros(100, int), 16000))


class TestReports:
    def make_report(self, n=3):
        rows = []
        for i in range(n):
            ref = noise_wave(8192, seed=20 + i)
            deg = Waveform(ref.samples * (0.6 + 0.1 * i), 16000)
            rows.append(evaluate_utterance(f"utt{i}", ref, deg))
        return build_report(rows)

    def test_means_within_range(self):
        report = self.make_report()
        for key in ("snr", "lsd", "acc"):
            values = [r.values[key] for r in report.rows]
            assert min(values) <= report.means[key] <= max(values)
            assert report.ci95[key] >= 0

    def test_single_utterance_ci_absent(self):
        report = self.make_report(1)
        assert report.ci95["snr"] is None
        assert "n/a" in format_report_text(report)

    def test_csv_layout(self):
        report = self.make_report()
        csv = format_report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "id,acc,snr,snr_v,snr_u,lsd,lsd_v,lsd_u"
        assert len(lines) == 1 + 3 + 1  # header + utterances + mean
        assert lines[-1].startswith("mean,")

    def test_identical_pair_row(self):
        ref = noise_wave(8192, seed=30)
        row = evaluate_utterance("same", ref, ref)
        assert row.values["snr"] == 120.0
        assert row.values["lsd"] == 0.0
        assert row.values["acc"] == 100.0

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_ci95_equals_the_scipy_stats_t_quantile(self, n):
        scipy_stats = pytest.importorskip("scipy.stats")
        values = np.random.default_rng(n).normal(10.0, 3.0, n)
        rows = [UtteranceMetrics(f"u{i}", {"snr": float(v)}) for i, v in enumerate(values)]
        sem = np.std([float(v) for v in values], ddof=1) / np.sqrt(n)
        expected = float(scipy_stats.t.ppf(0.975, n - 1) * sem)
        assert build_report(rows).ci95["snr"] == expected


def eval_outputs(root: Path) -> tuple[bytes, str]:
    """The CSV and text table `bwex eval` writes for three utterance pairs
    of mixed length, each with voiced and unvoiced frames."""
    from bwex.cli import main

    (root / "ref").mkdir()
    (root / "deg").mkdir()
    rng = np.random.default_rng(40)
    for i, n in enumerate([513, 4000, 48123]):
        t = np.arange(n) / 16000
        x = 0.3 * np.sin(2 * np.pi * 300 * t) * (np.sin(2 * np.pi * 3 * t) > 0) + 0.05 * i * rng.standard_normal(n)
        save_wav(root / "ref" / f"u{i}.wav", Waveform(x, 16000))
        save_wav(root / "deg" / f"u{i}.wav", Waveform(x + 0.02 * rng.standard_normal(n), 16000))
    assert main(["eval", "--ref", str(root / "ref"), "--deg", str(root / "deg"), "--report", str(root / "r.csv")]) == 0
    return (root / "r.csv").read_bytes(), str(root)


# sha256 of the report and of the printed table, taken before the STFT,
# the V/UV gate and the split SNRs shared one framing helper.
EVAL_GOLDEN = (
    "fee19cd47f50b5ca8984fa4b3d32eb7adcfcef57676940303b2e59b292f4403d",
    "4fcc964eb15ebd81e01dccebd3477469b40091e371b829d0a5a017839793f906",
)


def test_eval_report_is_pinned(tmp_path, capsys):
    import hashlib

    csv, root = eval_outputs(tmp_path)
    table = capsys.readouterr().out.replace(root, "")
    assert (hashlib.sha256(csv).hexdigest(), hashlib.sha256(table.encode()).hexdigest()) == EVAL_GOLDEN


# ---------------------------------------------------------------------------
# Import graph: only MFCC and eval's ci95 load scipy, and only when called
# ---------------------------------------------------------------------------

# (file, function, module) of every scipy import in the package
SCIPY_IMPORT_SITES = {("dsp.py", "mfcc", "scipy.fft"), ("metrics.py", "build_report", "scipy.special")}


def scipy_import_sites(source: str) -> set:
    """(enclosing function or None, module) of every scipy import in
    source; None means the import runs when the module loads."""
    sites = set()

    def visit(node, function):
        names = set()
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = {node.module}
            if node.module == "scipy":
                names.update(f"scipy.{alias.name}" for alias in node.names)
        sites.update((function, name) for name in names if name == "scipy" or name.startswith("scipy."))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def scipy_imports(source: str) -> set:
    """Every scipy module named by an import statement in source."""
    return {name for _, name in scipy_import_sites(source)}


def test_scipy_imports_detects_every_form():
    source = "import scipy.stats\nfrom scipy import signal\nfrom scipy.fft import dct\nimport numpy\n"
    assert scipy_imports(source) == {"scipy.stats", "scipy", "scipy.signal", "scipy.fft"}


def test_scipy_import_sites_name_the_enclosing_function():
    source = (
        "import scipy.fft\n"
        "class A:\n    from scipy import signal\n"
        "    def f(self):\n        import scipy.special\n"
        "def g():\n    def inner():\n        from scipy.stats import t\n    import numpy\n"
    )
    assert scipy_import_sites(source) == {
        (None, "scipy.fft"),
        (None, "scipy"),
        (None, "scipy.signal"),
        ("f", "scipy.special"),
        ("inner", "scipy.stats"),
    }


def test_package_imports_only_allowed_scipy_modules():
    # Only MFCC and eval's ci95 use scipy, and they import it when called:
    # one module-level import would load scipy in every command again.
    package = Path(bwex.__file__).parent
    sites = {
        (path.name, *site)
        for path in sorted(package.rglob("*.py"))
        for site in scipy_import_sites(path.read_text(encoding="utf-8"))
    }
    assert sites == SCIPY_IMPORT_SITES


TINY_TRAIN_CONFIG = """\
model.kind = {kind}
model.hidden = 8
model.embed_dim = 4
train.batch_size = 1
train.max_epochs = 1
train.patience = 1
"""


def test_extend_and_eval_leave_scipy_stats_unloaded(tmp_path):
    """extend, train and latency on hrnn and srnn load no scipy module at
    all, and eval then loads scipy.special but not scipy.stats."""
    numpy_only = []
    for kind in ("hrnn", "srnn"):
        text = TINY_TRAIN_CONFIG.format(kind=kind)
        ckpt = tmp_path / f"{kind}.bweh"
        model = build_model(build_run_config(text).model_cfg, rng=0)
        save_checkpoint(ckpt, Checkpoint(config_text=text, params=model.params))
        config = tmp_path / f"{kind}.cfg"
        config.write_text(text + f"data.train_manifest = {tmp_path / 'corpus.tsv'}\n"
                          + f"data.valid_manifest = {tmp_path / 'corpus.tsv'}\n")
        numpy_only += [
            ["extend", "--model", str(ckpt), "--in", str(tmp_path / "nb.wav"), "--out", str(tmp_path / "deg" / f"{kind}.wav")],
            ["train", "--config", str(config), "--out", str(tmp_path / f"{kind}-trained.bweh")],
            ["latency", "--config", str(config)],
        ]
    save_wav(tmp_path / "nb.wav", Waveform(0.3 * np.sin(np.arange(4000) * 0.05), 8000))
    save_wav(tmp_path / "wb.wav", Waveform(0.3 * np.sin(np.arange(2000) * 0.05), 16000))
    (tmp_path / "corpus.tsv").write_text("u0\twb.wav\nu1\twb.wav\n")
    (tmp_path / "deg").mkdir()
    (tmp_path / "ref").mkdir()
    evaluate = ["eval", "--ref", str(tmp_path / "ref"), "--deg", str(tmp_path / "deg"), "--report", str(tmp_path / "r.csv")]
    script = (
        "import contextlib, io, shutil, sys\n"
        "import bwex.cli\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {numpy_only!r}:\n"
        "        assert bwex.cli.main(argv) == 0, argv\n"
        "        assert not scipy_loaded(), (argv[0], scipy_loaded())\n"
        f"    for name in {[str(tmp_path / 'deg' / f'{kind}.wav') for kind in ('hrnn', 'srnn')]!r}:\n"
        f"        shutil.copy(name, {str(tmp_path / 'ref')!r})\n"
        f"    assert bwex.cli.main({evaluate!r}) == 0\n"
        "assert 'scipy.stats' not in sys.modules, scipy_loaded()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bwex.__file__).parents[1]), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r.csv").read_text(encoding="utf-8").startswith("id,")
