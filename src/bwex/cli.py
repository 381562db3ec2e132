"""Command-line entry point.

Subcommands: train, extend, eval, features, latency. Exit codes are part
of the contract: 0 success, 1 configuration error, 2 data error, 3
numeric abort. `--threads N` (or the BWE_THREADS environment variable)
pins the BLAS thread pools before numpy loads; use `--threads 1` for
bit-reproducible runs.

Heavy imports stay inside the command functions so the thread
configuration set in `main` can take effect first.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _set_threads(raw: str | None):
    """Pin the BLAS thread pools to `--threads`, else to BWE_THREADS.

    A value that is not a positive integer raises ValueError before any
    variable is set.
    """
    if raw is None:
        raw = os.environ.get("BWE_THREADS")
        if raw is None:
            return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"thread count must be a positive integer, got {raw!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def cmd_train(args) -> int:
    from . import data
    from .config import build_run_config
    from .train import save_checkpoint, train

    text = Path(args.config).read_text(encoding="utf-8")
    run_cfg = build_run_config(text)
    if run_cfg.train_manifest is None or run_cfg.valid_manifest is None:
        raise data.DataError("config must set data.train_manifest and data.valid_manifest")
    train_manifest = data.load_manifest(run_cfg.train_manifest, split="train")
    valid_manifest = data.load_manifest(run_cfg.valid_manifest, split="valid")
    train_pairs = data.load_pairs(train_manifest, run_cfg.model_cfg)
    valid_pairs = data.load_pairs(valid_manifest, run_cfg.model_cfg)
    result = train(run_cfg.train_cfg, train_pairs, valid_pairs, config_text=text, log=print)
    save_checkpoint(args.out, result.checkpoint)
    print(f"saved best checkpoint (epoch {result.best_epoch}) to {args.out}")
    return EXIT_OK


def cmd_extend(args) -> int:
    from . import data, dsp
    from .config import model_from_checkpoint
    from .metrics import reconstruct_wideband
    from .models import generate
    from .train import load_checkpoint

    ckpt = load_checkpoint(args.model)
    model, run_cfg = model_from_checkpoint(ckpt)
    narrowband = data.load_wav(args.input)
    if narrowband.sample_rate_hz != data.NARROWBAND_RATE:
        raise data.DataError(
            f"{args.input}: expected {data.NARROWBAND_RATE} Hz narrowband input,"
            f" got {narrowband.sample_rate_hz}"
        )
    if len(narrowband) == 0:
        raise data.DataError(f"{args.input}: no samples to extend")
    conditions = data.condition_track(run_cfg.model_cfg, narrowband, args.features, args.input)
    upsampled = dsp.upsample2(narrowband)
    generated = generate(model, dsp.mulaw_encode(upsampled), conditions)
    wideband = reconstruct_wideband(
        narrowband,
        generated,
        strategy=run_cfg.model_cfg.strategy,
        hf_gain=run_cfg.model_cfg.hf_gain,
        upsampled=upsampled,
    )
    data.save_wav(args.out, wideband)
    print(f"wrote {args.out}: {len(wideband)} samples at {wideband.sample_rate_hz} Hz")
    return EXIT_OK


def _wav_map(source) -> dict:
    """id -> wav path, from a manifest file or a directory of <id>.wav."""
    from . import data

    source = Path(source)
    if source.is_dir():
        return {p.stem: p for p in sorted(source.glob("*.wav"))}
    manifest = data.load_manifest(source)
    return {e.utt_id: e.wav_path for e in manifest.entries}


def cmd_eval(args) -> int:
    from . import data
    from .metrics import LSD_FRAME_LEN, build_report, evaluate_utterance, format_report_csv, format_report_text

    ref_map = _wav_map(args.ref)
    deg_map = _wav_map(args.deg)
    missing = sorted(set(ref_map) - set(deg_map))
    extra = sorted(set(deg_map) - set(ref_map))
    if missing or extra:
        raise data.DataError(
            f"utterance id mismatch: missing from --deg: {missing}; not in --ref: {extra}"
        )
    if not ref_map:
        raise data.DataError("no utterances to evaluate")
    rows = []
    for utt_id in sorted(ref_map):
        reference, degraded = data.load_wav(ref_map[utt_id]), data.load_wav(deg_map[utt_id])
        if (len(reference), reference.sample_rate_hz) != (len(degraded), degraded.sample_rate_hz):
            raise data.DataError(
                f"{utt_id}: reference has {len(reference)} samples at {reference.sample_rate_hz} Hz,"
                f" degraded {len(degraded)} samples at {degraded.sample_rate_hz} Hz"
            )
        if len(reference) < LSD_FRAME_LEN:
            raise data.DataError(
                f"{utt_id}: {len(reference)} samples, the metrics need at least {LSD_FRAME_LEN}"
            )
        rows.append(evaluate_utterance(utt_id, reference, degraded))
    report = build_report(rows)
    csv = format_report_csv(report).encode("utf-8")
    data._atomic_write(args.report, lambda handle: handle.write(csv))
    print(format_report_text(report))
    print(f"wrote {args.report}")
    return EXIT_OK


def cmd_features(args) -> int:
    from . import data

    if args.type != "mfcc":
        from .config import ConfigError

        raise ConfigError(f"unsupported feature type {args.type!r}")
    narrowband = data.load_wav(args.input)
    if narrowband.sample_rate_hz != data.NARROWBAND_RATE:
        raise data.DataError(
            f"{args.input}: expected {data.NARROWBAND_RATE} Hz input, got {narrowband.sample_rate_hz}"
        )
    track = data.narrowband_mfcc(narrowband)
    if track.n_frames == 0:
        raise data.DataError(
            f"{args.input}: {len(narrowband)} samples is shorter than one MFCC analysis window"
        )
    data.save_features(args.out, track)
    print(f"wrote {args.out}: {track.n_frames} frames x {track.dim} dims")
    return EXIT_OK


def cmd_latency(args) -> int:
    from .config import build_run_config
    from .data import WIDEBAND_RATE
    from .models import max_latency_ms

    text = Path(args.config).read_text(encoding="utf-8")
    run_cfg = build_run_config(text)
    ms = max_latency_ms(run_cfg.model_cfg, WIDEBAND_RATE)
    print(f"{ms:g} ms")
    return EXIT_OK


class _UsageError(Exception):
    """A command line argparse rejects; exits 1 like any config error."""


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits 2, the data-error code; raise
    # instead so `main` reports one `config error:` line. Subparsers are
    # built from this class too.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bwex", description="Speech bandwidth extension by hierarchical recurrent waveform models"
    )
    parser.add_argument("--threads", default=None, help="BLAS thread count (1 = deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extend", help="extend an 8 kHz WAV to 16 kHz")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--in", dest="input", required=True, help="8 kHz mono input WAV")
    p.add_argument("--out", required=True, help="16 kHz output WAV")
    p.add_argument("--features", default=None, help="condition-feature file for conditional models")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("eval", help="objective metrics for degraded vs reference audio")
    p.add_argument("--ref", required=True, help="reference manifest or directory of WAVs")
    p.add_argument("--deg", required=True, help="directory of degraded/reconstructed WAVs")
    p.add_argument("--report", required=True, help="CSV report output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("features", help="extract condition features from an 8 kHz WAV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--type", default="mfcc", help="feature type (mfcc)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("latency", help="print the model's maximal latency")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_latency)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _set_threads(args.threads)
    except (_UsageError, ValueError) as exc:
        # ConfigError's module loads numpy, which must wait for the threads
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help prints the usage and exits 0
        return exc.code

    from .config import ConfigError
    from .data import DataError
    from .train import CheckpointError, NumericError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
