"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale pre-training comparisons (criteria 7 and 8) share one pair
of fixture runs with documented seeds and configuration; they are the
expensive part of this module (several minutes of CPU each, run side by
side in two worker processes).
"""

import itertools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dnamlm.analysis import (
    ConfusionCounts,
    attention_cls_mass,
    attention_entropy,
    mcc,
    stage_jump_detector,
)
from dnamlm.config import run_config_from_dict
from dnamlm.corpus import CorpusSettings, DnaSequence, generate_synthetic
from dnamlm.masking import (
    CorruptionPolicy,
    IGNORE_LABEL,
    MaskSchedule,
    allowed_widths,
    apply_corruption,
    expected_mask_fraction,
    plan_mask,
)
from dnamlm.model import (
    Batch,
    ModelConfig,
    backward,
    init_model,
    init_optimizer,
    train_step,
)
from dnamlm.pipeline import pretrain_run, schedule_from_config
from dnamlm.rng import STREAM_MASK, split
from dnamlm.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    build_vocab,
    decode_overlapping,
    encode_nonoverlapping,
    encode_overlapping,
    encode_same_length,
    wrap_for_model,
)

# --- desk-run configuration (criteria 7, 8, 10): fixed seeds, documented ----
#
# Calibrated so the curriculum run sits near its stage floor before each
# boundary (the jumps are then task-difficulty steps, not descent noise):
# a small memorizable corpus, dense motifs, and an aggressive desk learning
# rate.  Runtime ~8-10 min for the pair on two CPU cores.

DESK_SEED = 7
DESK_RUN = {
    "corpus": {
        "num_sequences": 48,
        "sequence_length": 48,
        "window_length": 48,
        "motifs": [["TATAATGCGC", 0.7], ["GGCCAATCAG", 0.7], ["CACGTGACGT", 0.7]],
    },
    "model": {"num_layers": 3, "max_len": 45},
    "training": {"total_steps": 10_000, "batch_size": 12, "lr": 5e-3, "seed": DESK_SEED},
    "masking": {"p": 0.10},
}


def _desk_config(mode: str):
    cfg = json.loads(json.dumps(DESK_RUN))
    cfg["masking"]["mode"] = mode
    return run_config_from_dict(cfg)


def _timed_desk_run(mode: str, out_dir: str):
    t0 = time.time()
    result = pretrain_run(_desk_config(mode), out_dir)
    return result, time.time() - t0


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The RandomMask and fixed-width-baseline desk pre-training runs.

    The runs are independent, so each trains in its own worker process with
    one BLAS thread.  The network's values do not depend on the BLAS thread
    count, so the results are those of the same runs in this process.
    """
    root = tmp_path_factory.mktemp("desk")
    modes = ("randommask", "baseline")
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read by each worker at start-up
    try:
        with ProcessPoolExecutor(
            len(modes), mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            futures = [pool.submit(_timed_desk_run, m, str(root / m)) for m in modes]
            done = [f.result() for f in futures]
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    runs = {}
    for mode, (result, seconds) in zip(modes, done):
        runs[mode] = result
        runs[mode + "_seconds"] = seconds
    return runs


def _print_pass(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS — {detail}")


# --- criterion 1: tokenizer exactness ---------------------------------------

def test_criterion_01_tokenizer_exactness():
    t0 = time.time()
    v3 = build_vocab(3)
    s = DnaSequence("s", "ATGACG")
    assert [v3.token(i) for i in encode_overlapping(s, v3).ids] == ["ATG", "TGA", "GAC", "ACG"]
    assert [v3.token(i) for i in encode_nonoverlapping(s, v3).ids] == ["ATG", "ACG"]
    assert [v3.token(i) for i in encode_same_length(s, v3).ids] == ["ATG", "ACG", "ATG", "ACG"]

    rng = np.random.default_rng(1)
    for k in range(1, 9):
        vk = build_vocab(k)
        for length in range(k, 65):
            bases = "".join(rng.choice(list("ACGT"), size=length))
            sq = DnaSequence("x", bases)
            n_over = len(encode_overlapping(sq, vk))
            assert n_over == length - k + 1
            assert len(encode_same_length(sq, vk)) == n_over

    v6 = build_vocab(6)
    for _ in range(10_000):
        bases = "".join(rng.choice(list("ACGT"), size=int(rng.integers(6, 40))))
        sq = DnaSequence("x", bases)
        assert decode_overlapping(encode_overlapping(sq, v6), v6).bases == bases
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 exceeded 5 s ({elapsed:.1f} s)"
    _print_pass(1, f"reference examples, length identities, 10^4 round trips in {elapsed:.1f}s")


# --- criterion 2: schedule exactness -----------------------------------------

#: The paper's 500k-step schedule; criterion 3 masks at its step 400,000 too.
REFERENCE_SCHEDULE = MaskSchedule(total_steps=500_000)


def test_criterion_02_schedule_exactness():
    table = [
        ((1, 30_000), [6]),
        ((30_001, 60_000), [6, 8]),
        ((60_001, 100_000), [6, 8, 10]),
        ((100_001, 150_000), [6, 8, 10, 12]),
        ((150_001, 500_000), [6, 8, 10, 12, 14]),
    ]
    for (lo, hi), widths in table:
        for step in (lo, (lo + hi) // 2, hi):
            assert allowed_widths(step, REFERENCE_SCHEDULE) == widths
    for total in (10_000, 50_000, 1_000_000):
        sched = MaskSchedule(total_steps=total)
        assert sched.boundaries() == [round(f * total) for f in (0.06, 0.12, 0.2, 0.3, 1.0)]
        bounds = sched.boundaries()
        assert allowed_widths(bounds[0], sched) == [6]
        assert allowed_widths(bounds[0] + 1, sched) == [6, 8]
        assert allowed_widths(bounds[3] + 1, sched) == [6, 8, 10, 12, 14]
    _print_pass(2, "stage table exact at reference and scaled totals")


# --- criterion 3: span semantics ---------------------------------------------

class _ForcedRng:
    def __init__(self, centers, width_index=0):
        self.centers = set(centers)
        self.width_index = width_index

    def integers(self, low, high=None):
        return self.width_index

    def random(self, n=None):
        r = np.ones(n)
        r[list(self.centers)] = 0.0
        return r


def test_criterion_03_span_semantics():
    plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, _ForcedRng({10}))
    assert plan.mask_ids.tolist() == [8, 9, 10, 11, 12, 13]
    plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, _ForcedRng({0}))
    assert plan.mask_ids.tolist() == [0, 1, 2, 3]

    rng = np.random.default_rng(3)
    for _ in range(1000):
        seq_len = int(rng.integers(6, 100))
        centers = set(rng.integers(0, seq_len, size=rng.integers(0, 7)).tolist())
        width_index = int(rng.integers(0, 5))
        joint = plan_mask(seq_len, 400_000, 0.5, REFERENCE_SCHEDULE,
                          _ForcedRng(centers, width_index))
        union: set[int] = set()
        for c in centers:
            union |= set(
                plan_mask(seq_len, 400_000, 0.5, REFERENCE_SCHEDULE,
                          _ForcedRng({c}, width_index)).mask_ids.tolist()
            )
        assert set(joint.mask_ids.tolist()) == union
    _print_pass(3, "hand traces exact; union property over 1000 random trigger sets")


# --- criterion 4: mask-rate statistics ---------------------------------------

def test_criterion_04_mask_rate_statistics():
    t0 = time.time()
    p, m, seq_len, n = 0.025, 6, 512, 10_000
    sched = MaskSchedule(total_steps=100)  # every step is stage 0: width 6 only
    probe = seq_len // 2  # one interior position per sequence: binomial is exact
    hits = 0
    for i in range(n):
        plan = plan_mask(seq_len, 1, p, sched, split(17, STREAM_MASK, 1, i))
        assert plan.width_m == m
        hits += int(probe in plan.mask_ids)
    expected = expected_mask_fraction(p, m, seq_len).interior
    assert expected == pytest.approx(1 - 0.975 ** 6, abs=1e-12)
    sigma = math.sqrt(expected * (1 - expected) / n)
    rate = hits / n
    elapsed = time.time() - t0
    assert abs(rate - expected) <= 3 * sigma, (
        f"empirical {rate:.5f} vs expected {expected:.5f} (3 sigma = {3 * sigma:.5f})"
    )
    assert elapsed < 30.0, f"criterion 4 exceeded 30 s ({elapsed:.1f} s)"
    _print_pass(4, f"rate {rate:.5f} within 3 sigma of {expected:.5f} in {elapsed:.1f}s")


# --- criterion 5: gradient correctness ----------------------------------------

def test_criterion_05_gradient_correctness():
    t0 = time.time()
    h = 1e-5
    worst_overall = 0.0
    for seed in range(10):
        cfg = ModelConfig(
            vocab_size=21, num_layers=1, num_heads=2, hidden_dim=8, ff_dim=16,
            max_len=12, num_classes=2, dtype="float64", seed=seed,
        )
        params = init_model(cfg)
        rng = np.random.default_rng(100 + seed)
        ids = rng.integers(5, 21, size=(2, 9))
        real = np.ones((2, 9), bool)
        real[0, 7:] = False
        ids[0, 7:] = 0
        labels = np.full((2, 9), IGNORE_LABEL)
        for b in range(2):
            cols = rng.choice(np.flatnonzero(real[b]), size=2, replace=False)
            labels[b, cols] = ids[b, cols]
        batch = Batch(ids=ids, padding_mask=real, labels=labels)
        _, grads = backward(params, batch)
        for name, arr in params.arrays.items():
            flat = arr.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for j in idx:
                orig = flat[j]
                flat[j] = orig + h
                up, _ = backward(params, batch)
                flat[j] = orig - h
                down, _ = backward(params, batch)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                an = grads[name].reshape(-1)[j]
                rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-6)
                worst_overall = max(worst_overall, rel)
    elapsed = time.time() - t0
    assert worst_overall < 1e-4, f"max relative error {worst_overall:.2e}"
    assert elapsed < 60.0, f"criterion 5 exceeded 60 s ({elapsed:.1f} s)"
    _print_pass(5, f"max rel err {worst_overall:.2e} over 10 seeds in {elapsed:.1f}s")


# --- criterion 6: trainability (overfit probe) --------------------------------

def test_criterion_06_overfit_probe():
    t0 = time.time()
    vocab = build_vocab(6)
    corpus = generate_synthetic(CorpusSettings(num_sequences=8, sequence_length=64, motifs=()), 11)
    frames = [wrap_for_model(encode_overlapping(s, vocab), vocab, 61) for s in corpus]
    ids = np.stack([f[0] for f in frames])
    real = np.stack([f[1] for f in frames])
    exclude = np.isin(ids, (PAD_ID, CLS_ID, SEP_ID))

    cfg = ModelConfig(vocab_size=vocab.size, max_len=61, seed=0)  # default 2x64x4
    params = init_model(cfg)
    opt = init_optimizer(params, lr=3e-3, weight_decay=0.0)
    policy = CorruptionPolicy(1.0, 0.0, 0.0)
    sched = MaskSchedule(total_steps=2000)

    reached = None
    window: list[float] = []
    for step in range(1, 2001):
        batch_ids = ids.copy()
        batch_labels = np.full_like(ids, IGNORE_LABEL)
        for j in range(8):
            rng = split(0, STREAM_MASK, step, j)
            plan = plan_mask(61, step, 0.15, sched, rng, exclude[j])
            batch_ids[j], batch_labels[j] = apply_corruption(ids[j], plan, policy, vocab, rng)
        loss = train_step(params, opt, Batch(batch_ids, real, batch_labels))
        window.append(loss)
        if len(window) > 25:
            window.pop(0)
        if len(window) == 25 and sum(window) / 25 < 0.1:
            reached = step
            break
    elapsed = time.time() - t0
    assert reached is not None, f"mean loss stayed >= 0.1 for 2000 steps (last {window[-1]:.3f})"
    assert elapsed < 300.0, f"criterion 6 exceeded 5 min ({elapsed:.0f} s)"
    _print_pass(6, f"loss < 0.1 at step {reached} in {elapsed:.0f}s")


# --- criteria 7 and 8: desk-run dynamics --------------------------------------

@pytest.mark.slow
def test_criterion_07_loss_dynamics(desk_runs):
    rm = desk_runs["randommask"].report
    bl = desk_runs["baseline"].report
    sched = schedule_from_config(_desk_config("randommask"))
    boundaries = sched.boundaries()[:-1]

    rm_steps = [r.step for r in rm.records]
    rm_losses = [r.loss for r in rm.records]
    jumps = stage_jump_detector(rm_steps, rm_losses, sched)
    assert [j.boundary for j in jumps] == boundaries
    for j in jumps:
        assert j.jump > 0, f"RandomMask jump at {j.boundary} is {j.jump:+.4f}"

    # baseline: no comparable jumps — boundary jumps within the noise band
    # estimated from the same statistic at steady-state non-boundary steps
    # (the initial descent would otherwise inflate the band)
    bl_steps = [r.step for r in bl.records]
    bl_losses = [r.loss for r in bl.records]
    bl_jumps = stage_jump_detector(bl_steps, bl_losses, sched)
    window = 100
    arr = np.asarray(bl_losses)
    candidates = [
        s for s in range(1000, len(arr) - window)
        if all(abs(s - b) > 2 * window for b in boundaries)
    ]
    null = np.array([
        arr[s: s + window].mean() - arr[s - window: s].mean() for s in candidates
    ])
    band = np.quantile(np.abs(null), 0.99)
    for j in bl_jumps:
        assert abs(j.jump) <= band, (
            f"baseline jump {j.jump:+.4f} at {j.boundary} exceeds noise band {band:.4f}"
        )
    # the curriculum run's jumps are outside that band: the contrast is real
    assert min(j.jump for j in jumps) > band

    # baseline records a monotone trend: late loss clearly below early loss
    assert np.mean(bl_losses[-500:]) < np.mean(bl_losses[:500])
    secs = desk_runs["randommask_seconds"]
    assert secs < 900, f"RandomMask desk run exceeded 15 min ({secs:.0f} s)"
    detail = ", ".join(f"{j.boundary}:{j.jump:+.3f}" for j in jumps)
    _print_pass(7, f"RM jumps {detail}; baseline within band {band:.4f}")


def _shared_probe_metrics(desk_runs, num_sequences=64):
    """Evaluate both checkpoints on identical masked probe inputs.

    Masks are drawn once (width-6 spans, the only width both models trained
    on) from a probe stream; the two models then see the same corrupted
    batches, so metric differences reflect the learned weights only.
    """
    from dnamlm.model import attention_maps
    from dnamlm.pipeline import build_windows, prepare_frames
    from dnamlm.rng import STREAM_PROBE
    from dnamlm.tokenizer import Strategy

    run = _desk_config("randommask")
    vocab = build_vocab(run.tokenizer.k)
    frames_ids, frames_real = prepare_frames(
        build_windows(run), vocab, Strategy(run.tokenizer.strategy), run.model.max_len
    )
    width6 = schedule_from_config(_desk_config("baseline"))
    picker = split(DESK_SEED, STREAM_PROBE, 1000)
    chosen = picker.integers(0, frames_ids.shape[0], size=num_sequences)
    rows, label_rows = [], []
    policy = CorruptionPolicy(1.0, 0.0, 0.0)
    for slot, widx in enumerate(chosen):
        rng = split(DESK_SEED, STREAM_PROBE, 2000 + slot)
        frame = frames_ids[widx]
        exclude = np.isin(frame, (PAD_ID, CLS_ID, SEP_ID))
        plan = plan_mask(frame.shape[0], 1, run.masking.p, width6, rng, exclude)
        corrupted, labels = apply_corruption(frame, plan, policy, vocab, rng)
        rows.append(corrupted)
        label_rows.append(labels)
    ids = np.stack(rows)
    labels = np.stack(label_rows)
    real = frames_real[chosen]
    masked = labels != IGNORE_LABEL

    out = {}
    for mode in ("randommask", "baseline"):
        maps = attention_maps(desk_runs[mode].params, ids, real)
        out[mode] = {
            "cls_mass": attention_cls_mass(maps, real, masked),
            "entropy": attention_entropy(maps, real, masked),
        }
    return out


@pytest.mark.slow
def test_criterion_08_attention_direction(desk_runs):
    metrics = _shared_probe_metrics(desk_runs)
    layers = len(metrics["randommask"]["cls_mass"])
    middle = list(range(1, layers - 1)) or [0]
    rm_mass = float(np.mean(metrics["randommask"]["cls_mass"][middle]))
    bl_mass = float(np.mean(metrics["baseline"]["cls_mass"][middle]))
    rm_ent = float(np.mean(metrics["randommask"]["entropy"][middle]))
    bl_ent = float(np.mean(metrics["baseline"]["entropy"][middle]))
    assert bl_mass > rm_mass, (
        f"baseline intermediate CLS mass {bl_mass:.4f} not above RandomMask {rm_mass:.4f}"
    )
    assert rm_ent > bl_ent, (
        f"RandomMask intermediate entropy {rm_ent:.4f} not above baseline {bl_ent:.4f}"
    )
    _print_pass(
        8,
        f"cls_mass baseline {bl_mass:.4f} > RM {rm_mass:.4f}; "
        f"entropy RM {rm_ent:.3f} > baseline {bl_ent:.3f}",
    )


# --- criterion 9: MCC correctness ----------------------------------------------

def test_criterion_09_mcc_correctness():
    assert mcc(ConfusionCounts(5, 5, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert mcc(ConfusionCounts(1, 1, 1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert mcc(ConfusionCounts(0, 0, 5, 5)) == pytest.approx(-1.0, abs=1e-12)
    assert mcc(ConfusionCounts(3, 0, 0, 0)) == 0.0

    for tp, tn, fp, fn in itertools.product(range(7), repeat=4):
        a = mcc(ConfusionCounts(tp, tn, fp, fn))
        assert abs(a - mcc(ConfusionCounts(tn, tp, fn, fp))) <= 1e-12
        for c in (2, 3):
            assert abs(a - mcc(ConfusionCounts(c * tp, c * tn, c * fp, c * fn))) <= 1e-12
    _print_pass(9, "formula cases exact; swap/scale invariance exhaustive for counts <= 6")


# --- criterion 10: determinism ---------------------------------------------------

def _determinism_config():
    return run_config_from_dict({
        "corpus": {"num_sequences": 32, "sequence_length": 64, "window_length": 64},
        "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 61},
        "training": {"total_steps": 200, "batch_size": 4, "seed": 9},
    })


def test_criterion_10_determinism(tmp_path):
    run = _determinism_config()
    full = pretrain_run(run, str(tmp_path / "full"))
    half = pretrain_run(run, str(tmp_path / "half"), stop_after_step=100)
    resumed = pretrain_run(run, str(tmp_path / "resumed"),
                           resume_from=str(tmp_path / "half" / "checkpoint"))
    losses_full = [r.loss for r in full.report.records]
    losses_spliced = [r.loss for r in half.report.records] + [
        r.loss for r in resumed.report.records
    ]
    assert losses_full == losses_spliced, "resume changed the loss curve"

    rerun = pretrain_run(run, str(tmp_path / "rerun"))
    assert open(full.report_json, "rb").read() == open(rerun.report_json, "rb").read()
    assert open(full.loss_csv, "rb").read() == open(rerun.loss_csv, "rb").read()
    blob_a = open(f"{full.checkpoint_dir}/params.bin", "rb").read()
    blob_b = open(f"{rerun.checkpoint_dir}/params.bin", "rb").read()
    assert blob_a == blob_b
    _print_pass(10, "200 == 100+resume(100) bit-identical; reruns byte-identical")
