"""End-to-end pre-training pipeline.

Pure, seed-keyed batch assembly (plan masks, corrupt) over the framed
windows that ``tokenizer.prepare_frames`` builds, feeding a serial training
loop.  Every batch item draws from its own generator, keyed by (seed,
stream, step, slot), so a resumed run regenerates exactly the batches of an
uninterrupted one.

``schedule_from_config`` is the only reader of ``masking.mode``: RandomMask
gets its staged schedule, the fixed-width baseline a one-stage schedule of
the tokenizer's width k.  Everything downstream (batches, probes, reports)
sees only the schedule.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (
    RunReport,
    StepRecord,
    attention_cls_mass,
    attention_entropy,
    embedding_silhouette,
    emit_report,
)
from .config import RunConfig, run_config_from_dict
from .corpus import DnaSequence, generate_synthetic, parse_fasta, sample_windows
from .errors import ConfigInvalid
from .masking import (
    CorruptionPolicy,
    IGNORE_LABEL,
    MaskPlan,
    MaskSchedule,
    allowed_widths,
    apply_corruption,
    plan_mask,
)
from .model import (
    Batch,
    ModelConfig,
    ModelParams,
    attention_maps,
    init_model,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .model.training import _keep_freed_heap
from .rng import STREAM_BATCH, STREAM_MASK, STREAM_PROBE, split
from .tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    Strategy,
    Vocabulary,
    build_vocab,
    prepare_frames,
)

CHECKPOINT_DIRNAME = "checkpoint"

#: Sequences in the attention probe batch.
PROBE_SEQUENCES = 16

def schedule_from_config(run: RunConfig) -> MaskSchedule:
    """The run's mask schedule: staged for RandomMask, one stage of width k for the baseline.

    ``RunConfig`` checks on load that both can be built: the stage table in
    either mode, and an even ``tokenizer.k`` in baseline mode.
    """
    if run.masking.mode == "baseline":
        return MaskSchedule(
            total_steps=run.training.total_steps,
            stage_fractions=(1.0,),
            base_width=run.tokenizer.k,
        )
    return run.masking.staged_schedule(run.training.total_steps)


def policy_from_config(run: RunConfig) -> CorruptionPolicy:
    return run.masking.policy


def model_config_from_run(run: RunConfig, vocab: Vocabulary) -> ModelConfig:
    """Encoder shape for a fresh initialisation from the model section."""
    return ModelConfig(vocab_size=vocab.size, seed=run.training.seed, **asdict(run.model))


def build_windows(run: RunConfig) -> list[DnaSequence]:
    """Materialize the pre-training windows described by the corpus section."""
    c = run.corpus
    if c.source == "synthetic":
        sequences = generate_synthetic(c, run.training.seed)
    else:
        try:
            fh = open(c.fasta_path, "r", encoding="utf-8")
        except OSError as exc:
            raise ConfigInvalid(
                f"cannot read corpus.fasta_path {c.fasta_path!r}: {exc}"
            ) from None
        with fh:
            sequences = parse_fasta(fh, lenient=c.lenient)
    windows: list[DnaSequence] = []
    for seq in sequences:
        windows.extend(
            sample_windows(
                seq,
                c.window_length,
                mode="tiled",
                stride=c.window_stride,
                max_n_fraction=c.max_n_fraction,
            )
        )
    if not windows:
        raise ConfigInvalid("corpus produced no usable windows")
    return windows


def _frame_exclusion(ids: np.ndarray) -> np.ndarray:
    """Positions that must never be masked: [CLS], [SEP], and padding."""
    return np.isin(ids, (PAD_ID, CLS_ID, SEP_ID))


def _corrupt_rows(
    frames_ids: np.ndarray,
    chosen: np.ndarray,
    step: int,
    p: float,
    schedule: MaskSchedule,
    policy: CorruptionPolicy,
    vocab: Vocabulary,
    slot_rng: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, list[MaskPlan]]:
    """Plan and corrupt one frame per slot, drawing from ``slot_rng(slot)``."""
    ids_rows, label_rows, plans = [], [], []
    for slot, widx in enumerate(chosen):
        frame = frames_ids[widx]
        rng = slot_rng(slot)
        plan = plan_mask(frame.shape[0], step, p, schedule, rng, _frame_exclusion(frame))
        corrupted, labels = apply_corruption(frame, plan, policy, vocab, rng)
        ids_rows.append(corrupted)
        label_rows.append(labels)
        plans.append(plan)
    return np.stack(ids_rows), np.stack(label_rows), plans


def assemble_batch(
    frames_ids: np.ndarray,
    frames_real: np.ndarray,
    step: int,
    run: RunConfig,
    schedule: MaskSchedule,
    policy: CorruptionPolicy,
    vocab: Vocabulary,
) -> tuple[Batch, list[MaskPlan]]:
    """Deterministically sample and corrupt one training batch for ``step``."""
    tr = run.training
    picker = split(tr.seed, STREAM_BATCH, step)
    chosen = picker.integers(0, frames_ids.shape[0], size=tr.batch_size)
    ids, labels, plans = _corrupt_rows(
        frames_ids, chosen, step, run.masking.p, schedule, policy, vocab,
        lambda slot: split(tr.seed, STREAM_MASK, step, slot),
    )
    return Batch(ids=ids, padding_mask=frames_real[chosen], labels=labels), plans


def attention_probe(
    params: ModelParams,
    run: RunConfig,
    frames: tuple[np.ndarray, np.ndarray],
    step: int,
) -> dict:
    """Attention diagnostics on a deterministic probe batch at ``step``.

    Masks are drawn from the probe stream (not the training stream), the
    attention maps come from the encoder alone (``attention_maps``, no MLM
    logits), and metrics average over masked query positions per the
    under-training analysis.  A probe batch with no masked position (``p``
    of 0, or a tiny ``p``) has no queries to average over: its ``cls_mass``
    and ``entropy`` are None.
    """
    frames_ids, frames_real = frames
    seed = run.training.seed
    chosen = split(seed, STREAM_PROBE, 0).integers(0, frames_ids.shape[0], size=PROBE_SEQUENCES)
    ids, labels, _plans = _corrupt_rows(
        frames_ids, chosen, step, run.masking.p, schedule_from_config(run),
        policy_from_config(run), build_vocab(run.tokenizer.k),
        lambda slot: split(seed, STREAM_PROBE, 1 + slot),
    )
    masked = labels != IGNORE_LABEL
    cls_mass = entropy = None
    if masked.any():
        real = frames_real[chosen]
        maps = attention_maps(params, ids, real)
        cls_mass = [float(v) for v in attention_cls_mass(maps, real, masked)]
        entropy = [float(v) for v in attention_entropy(maps, real, masked)]
    return {
        "cls_mass": cls_mass,
        "entropy": entropy,
        "num_masked_queries": int(masked.sum()),
        "probe_step": int(step),
    }


def run_diagnostics(
    params: ModelParams,
    run: RunConfig,
    frames: tuple[np.ndarray, np.ndarray],
    step: int,
) -> tuple[dict, float | None]:
    """Attention probe at ``step`` and, for 6-mers, the k-mer embedding silhouette."""
    attention = attention_probe(params, run, frames, step)
    silhouette = None
    if run.tokenizer.k == 6:
        silhouette = embedding_silhouette(params["tok_emb"][build_vocab(6).first_kmer_id :])
    return attention, silhouette


@dataclass
class PretrainResult:
    report: RunReport
    report_json: str
    loss_csv: str
    checkpoint_dir: str
    params: ModelParams


def _configs_compatible(saved: dict | None, current: RunConfig) -> bool:
    """Whether a checkpoint's echoed config matches ``current``.

    The saved side goes through the same loader as a config file, so a key
    that loader retires does not count as a difference.
    """
    return saved is None or run_config_from_dict(saved) == current


def pretrain_run(
    run: RunConfig,
    out_dir: str,
    resume_from: str | None = None,
    stop_after_step: int | None = None,
) -> PretrainResult:
    """Pre-train per the config; write a checkpoint and a run report.

    The mask schedule is always keyed to ``training.total_steps``;
    ``stop_after_step`` halts the loop early without changing the schedule,
    so a stopped run can be resumed later.  With ``resume_from``, training
    continues from the checkpoint's step using its optimizer state; the
    regenerated batches match an uninterrupted run exactly, so the loss
    curve is bit-identical.  On glibc the process keeps its freed heap from
    here on (``_keep_freed_heap``).
    """
    _keep_freed_heap()
    vocab = build_vocab(run.tokenizer.k)
    strategy = Strategy(run.tokenizer.strategy)
    schedule = schedule_from_config(run)
    policy = policy_from_config(run)
    windows = build_windows(run)
    frames_ids, frames_real = prepare_frames(windows, vocab, strategy, run.model.max_len)

    end_step = run.training.total_steps
    if stop_after_step is not None:
        if stop_after_step < 1:
            raise ConfigInvalid(f"stop_after_step must be >= 1, got {stop_after_step}")
        end_step = min(end_step, stop_after_step)

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.opt_state is None:
            raise ConfigInvalid(f"checkpoint {resume_from} lacks optimizer state; cannot resume")
        if not _configs_compatible(ckpt.run_config, run):
            raise ConfigInvalid(
                "resume config differs from the checkpoint's; a resumed run must "
                "keep the original corpus/masking/model/training settings"
            )
        params, opt, start_step = ckpt.params, ckpt.opt_state, ckpt.step
        if start_step >= end_step:
            raise ConfigInvalid(
                f"checkpoint already at step {start_step} >= end step {end_step}"
            )
    else:
        params = init_model(model_config_from_run(run, vocab))
        opt = init_optimizer(
            params, lr=run.training.lr, weight_decay=run.training.weight_decay
        )
        start_step = 0

    # Made before the first step, so an unusable out_dir fails before any training.
    ckpt_dir = os.path.join(out_dir, CHECKPOINT_DIRNAME)
    try:
        os.makedirs(ckpt_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create run directory {out_dir!r}: {exc}") from None

    records: list[StepRecord] = []
    for step in range(start_step + 1, end_step + 1):
        batch, _plans = assemble_batch(
            frames_ids, frames_real, step, run, schedule, policy, vocab
        )
        loss = train_step(params, opt, batch)
        records.append(
            StepRecord(
                step=step,
                stage=schedule.stage_of(step),
                widths=allowed_widths(step, schedule),
                loss=float(loss),
            )
        )

    final_step = end_step
    attention, silhouette = run_diagnostics(params, run, (frames_ids, frames_real), final_step)

    report = RunReport(
        config=run.to_dict(),
        seeds={"root": run.training.seed},
        stage_boundaries=schedule.boundaries(),
        records=records,
        attention=attention,
        silhouette=silhouette,
    )
    save_checkpoint(
        ckpt_dir,
        params,
        opt_state=opt,
        step=final_step,
        run_config=run.to_dict(),
    )
    json_path, csv_path = emit_report(report, out_dir)
    return PretrainResult(
        report=report,
        report_json=json_path,
        loss_csv=csv_path,
        checkpoint_dir=ckpt_dir,
        params=params,
    )
