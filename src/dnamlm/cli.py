"""Command-line interface.

Subcommands: tokenize, mask-stats, pretrain, finetune, analyze.  A JSON
config file supplies defaults, individual flags override it, and the merged
effective config is echoed into every report.  Exit codes: 0 ok, 1 runtime
invariant failure, 2 usage / config error.  Errors are emitted as one JSON
object on stderr.  Under a fixed --seed every command's primary output
files are byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import RunConfig, run_config_from_dict
from .corpus import load_labeled, parse_fasta
from .errors import (
    ConfigInvalid,
    DnaMlmError,
    EmptyDataset,
    EmptyInput,
    InvalidBase,
    KOutOfRange,
    MalformedFasta,
    MissingHeader,
    NonIntegerLabel,
    SequenceTooShort,
)
from .masking import (
    allowed_widths,
    expected_mask_fraction,
    plan_mask,
    span_length_histogram,
)
from .model import init_model, load_checkpoint
from .model.training import FinetuneConfig, finetune_classify
from .pipeline import (
    build_windows,
    model_config_from_run,
    prepare_frames,
    pretrain_run,
    run_diagnostics,
    schedule_from_config,
)
from .rng import PATH_LIMIT, STREAM_MASK, split
from .tokenizer import Strategy, build_vocab, encode

REPORT_DIR_ENV = "DNAMLM_REPORT_DIR"

#: Errors caused by user input or configuration -> exit code 2.
USAGE_ERRORS = (
    ConfigInvalid,
    MalformedFasta,
    InvalidBase,
    EmptyInput,
    EmptyDataset,
    MissingHeader,
    NonIntegerLabel,
    KOutOfRange,
    SequenceTooShort,
)


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def _out_dir(args: argparse.Namespace, kind: str) -> str:
    if getattr(args, "out", None):
        return args.out
    base = os.environ.get(REPORT_DIR_ENV, "runs")
    return os.path.join(base, kind)


def _open_input(path: str):
    """Open a user-supplied input path; missing files are usage errors."""
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path!r}: {exc}") from None


def _open_output(path: str):
    """Open a user-supplied output path; one that cannot be opened is a usage error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write --out {path!r}: {exc}") from None


def _write_output(args: argparse.Namespace, text: str) -> int:
    """Write a command's text output to ``--out``, or else to stdout."""
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with the set flags merged in, checked as one."""
    raw = {}
    if getattr(args, "config", None):
        with _open_input(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigInvalid(f"config file is not valid JSON: {exc}") from None
    # Config flags store under "section.key" dests; merge the set ones, so
    # checks that span sections see the effective values.
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None and isinstance(raw, dict):
            if isinstance(raw.get(section, {}), dict):
                raw[section] = {**raw.get(section, {}), key: value}
    return run_config_from_dict(raw)


# --- tokenize ---------------------------------------------------------------

def cmd_tokenize(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    vocab = build_vocab(run.tokenizer.k)
    strategy = Strategy(run.tokenizer.strategy)
    if args.input == "-":
        records = parse_fasta(sys.stdin, lenient=run.corpus.lenient)
    else:
        with _open_input(args.input) as fh:
            records = parse_fasta(fh, lenient=run.corpus.lenient)
    lines = []
    for rec in records:
        tokens = encode(rec, vocab, strategy)
        lines.append(" ".join(map(str, tokens.ids.tolist())))
    return _write_output(args, "\n".join(lines) + "\n")


# --- mask-stats -------------------------------------------------------------

def cmd_mask_stats(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    total = run.training.total_steps
    schedule = schedule_from_config(run)
    p = run.masking.p
    step = args.step if args.step is not None else total
    if not 1 <= step < PATH_LIMIT:
        raise ConfigInvalid(f"--step must be in [1, 2**32), got {step}")
    if args.samples < 1:
        raise ConfigInvalid(f"--samples must be >= 1, got {args.samples}")
    seq_len = args.seq_len
    widths = allowed_widths(step, schedule)

    width_hist: dict[int, int] = {}
    span_hist: dict[int, int] = {}
    masked_total = 0
    for i in range(args.samples):
        rng = split(run.training.seed, STREAM_MASK, step, i)
        plan = plan_mask(seq_len, step, p, schedule, rng)
        width_hist[plan.width_m] = width_hist.get(plan.width_m, 0) + 1
        row = np.zeros(seq_len, dtype=bool)
        row[plan.mask_ids] = True
        for length, count in span_length_histogram(row).items():
            span_hist[length] = span_hist.get(length, 0) + count
        masked_total += plan.mask_ids.size

    expected = [expected_mask_fraction(p, m, seq_len) for m in widths]
    payload = {
        "step": step,
        "total_steps": total,
        "p": p,
        "mode": run.masking.mode,
        "seq_len": seq_len,
        "samples": args.samples,
        "widths": widths,
        "empirical_fraction": masked_total / (args.samples * seq_len),
        "expected_fraction": float(np.mean([e.sequence_average for e in expected])),
        "expected_interior_by_width": {str(m): e.interior for m, e in zip(widths, expected)},
        "width_histogram": {str(k): width_hist[k] for k in sorted(width_hist)},
        "span_length_histogram": {str(k): span_hist[k] for k in sorted(span_hist)},
    }
    return _write_output(args, json.dumps(payload, indent=2) + "\n")


# --- pretrain ---------------------------------------------------------------

def cmd_pretrain(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    out_dir = _out_dir(args, "pretrain")
    result = pretrain_run(
        run, out_dir, resume_from=args.resume, stop_after_step=args.stop_after
    )
    summary = {
        "report": result.report_json,
        "loss_csv": result.loss_csv,
        "checkpoint": result.checkpoint_dir,
        "steps_run": len(result.report.records),
        "final_loss": result.report.records[-1].loss if result.report.records else None,
        "stage_boundaries": result.report.stage_boundaries,
    }
    print(json.dumps(summary, indent=2))
    return 0


# --- finetune ---------------------------------------------------------------

def cmd_finetune(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    vocab = build_vocab(run.tokenizer.k)
    with _open_input(args.data) as fh:
        examples, num_classes = load_labeled(fh, lenient=run.corpus.lenient)
    if not examples:
        raise EmptyDataset(f"no labeled rows in {args.data!r}")

    if args.checkpoint:
        params = load_checkpoint(args.checkpoint).params
        if params.config.vocab_size != vocab.size:
            raise ConfigInvalid(
                f"checkpoint vocab size {params.config.vocab_size} != 4^k+5 "
                f"for k={run.tokenizer.k}"
            )
    else:
        params = init_model(model_config_from_run(run, vocab))

    # Made before training, so an unusable --out fails before the first epoch.
    out_dir = _out_dir(args, "finetune")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create output directory {out_dir!r}: {exc}") from None

    ft = FinetuneConfig(seed=run.training.seed, **asdict(run.finetune))
    params, metrics = finetune_classify(
        params, examples, num_classes, vocab, ft, Strategy(run.tokenizer.strategy)
    )

    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,mcc\n")
        for m in metrics:
            fh.write(f"{m['epoch']},{m['loss']!r},{m['mcc']!r}\n")
    json_path = os.path.join(out_dir, "metrics.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"config": run.to_dict(), "num_classes": num_classes, "metrics": metrics},
            fh, indent=2,
        )
        fh.write("\n")
    print(json.dumps({"metrics_csv": csv_path, "metrics_json": json_path,
                      "final_mcc": metrics[-1]["mcc"]}, indent=2))
    return 0


# --- analyze ----------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    if args.probe_step is not None and args.probe_step < 1:
        raise ConfigInvalid(f"--probe-step must be >= 1, got {args.probe_step}")
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.run_config is None:
        raise ConfigInvalid(
            "checkpoint has no embedded run config; cannot rebuild probe data"
        )
    run = run_config_from_dict(ckpt.run_config)
    vocab = build_vocab(run.tokenizer.k)
    frames = prepare_frames(
        build_windows(run), vocab, Strategy(run.tokenizer.strategy), run.model.max_len
    )
    probe_step = args.probe_step if args.probe_step is not None else max(1, ckpt.step)
    attention, silhouette = run_diagnostics(ckpt.params, run, frames, probe_step)
    payload = {
        "checkpoint_step": ckpt.step,
        "num_layers": ckpt.params.config.num_layers,
        "silhouette": silhouette,
        **attention,
    }
    return _write_output(args, json.dumps(payload, indent=2) + "\n")


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnamlm",
        description="DNA MLM pre-training: tokenize, mask, train, and analyze.",
    )
    parser.add_argument("--version", action="version", version=f"dnamlm {__version__}")
    sub = parser.add_subparsers(dest="command")

    # Each dest names the "section.key" the flag overrides in the run config.
    def add_tokenizer_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", dest="tokenizer.k", type=int, help="k-mer size")
        p.add_argument("--strategy", dest="tokenizer.strategy",
                       choices=[s.value for s in Strategy])

    def add_config_flags(p: argparse.ArgumentParser, finetune: bool = False) -> None:
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--seed", dest="training.seed", type=int,
                       help="root seed (overrides config)")
        add_tokenizer_flags(p)
        p.add_argument("--p", dest="masking.p", type=float,
                       help="per-position trigger probability")
        p.add_argument("--masking-mode", dest="masking.mode",
                       choices=["randommask", "baseline"])
        p.add_argument("--total-steps", dest="training.total_steps", type=int)
        p.add_argument("--batch-size", dest="training.batch_size", type=int)
        p.add_argument("--lr", dest="training.lr", type=float)
        if finetune:
            p.add_argument("--epochs", dest="finetune.epochs", type=int)
            p.add_argument("--finetune-lr", dest="finetune.lr", type=float)
            p.add_argument("--finetune-batch-size", dest="finetune.batch_size", type=int)
            p.add_argument("--freeze-backbone", dest="finetune.freeze_backbone",
                           action="store_const", const=True)

    p_tok = sub.add_parser("tokenize", help="encode FASTA records as token ids")
    p_tok.add_argument("input", help="FASTA path, or '-' for stdin")
    add_tokenizer_flags(p_tok)
    p_tok.add_argument("--lenient", dest="corpus.lenient", action="store_const", const=True,
                       help="map letters outside ACGTN to N")
    p_tok.add_argument("--out", help="output file (default: stdout)")
    p_tok.set_defaults(func=cmd_tokenize)

    p_ms = sub.add_parser("mask-stats", help="Monte-Carlo masking statistics as JSON")
    add_config_flags(p_ms)
    p_ms.add_argument("--step", type=int, help="training step to probe (default: total)")
    p_ms.add_argument("--seq-len", type=int, default=512)
    p_ms.add_argument("--samples", type=int, default=10_000)
    p_ms.add_argument("--out", help="output file (default: stdout)")
    p_ms.set_defaults(func=cmd_mask_stats)

    p_pt = sub.add_parser("pretrain", help="run MLM pre-training")
    add_config_flags(p_pt)
    p_pt.add_argument("--out", help=f"run directory (default: ${REPORT_DIR_ENV}/pretrain)")
    p_pt.add_argument("--resume", help="checkpoint directory to resume from")
    p_pt.add_argument("--stop-after", type=int,
                      help="halt after this step without changing the schedule")
    p_pt.set_defaults(func=cmd_pretrain)

    p_ft = sub.add_parser("finetune", help="fine-tune a classifier head")
    add_config_flags(p_ft, finetune=True)
    p_ft.add_argument("--checkpoint", help="pre-trained checkpoint directory")
    p_ft.add_argument("--data", required=True, help="labeled CSV (sequence,label)")
    p_ft.add_argument("--out", help=f"run directory (default: ${REPORT_DIR_ENV}/finetune)")
    p_ft.set_defaults(func=cmd_finetune)

    p_an = sub.add_parser("analyze", help="attention and embedding metrics of a checkpoint")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--probe-step", type=int,
                      help="schedule step for probe masking (default: checkpoint step)")
    p_an.add_argument("--out", help="output file (default: stdout)")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        _emit_error(exc)
        return 2
    except DnaMlmError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
