"""The three workloads and their correctness checks.

Each workload has ``setup_once()`` (timed, returns seconds), ``round(index)``
(one unit of identical work; returns operations attempted and failed) and
``end_to_end()``.  Program calls go through module attributes such as
``pipeline.assemble_batch`` so that the tracer and the self-test's planted
faults reach them.  Every check runs outside the timed sections and, in a
traced run, with tracing paused.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import dnamlm.model.checkpoint as checkpoint
import dnamlm.model.training as training
from dnamlm import analysis, corpus, pipeline, tokenizer
from dnamlm.config import run_config_from_dict
from dnamlm.errors import DnaMlmError
from dnamlm.model import ModelConfig, init_model
from dnamlm.model.training import FinetuneConfig
from dnamlm.tokenizer import Strategy

import inputs
import reference
from reference import CLS, IGNORE, MASK, PAD, SEP


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1e3, q))


@contextlib.contextmanager
def paused(tracer):
    """Run a check without recording spans."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def stage_widths(step: int, total_steps: int, fractions, base: int, increment: int) -> tuple:
    """(stage, allowed widths) at ``step``, from the stage fractions alone."""
    bounds = [round(f * total_steps) for f in fractions]
    stage = next((i for i, b in enumerate(bounds) if step <= b), len(bounds) - 1)
    return stage, [base + increment * j for j in range(stage + 1)]


class Workload:
    """Throughput over all rounds and per-operation latency, summarised end to end.

    Rates are pooled (all work over all time) rather than a median of rounds:
    on a machine whose speed switches between a fast and a slow state every
    few seconds, the pooled rate moves smoothly with the share of time spent
    slow, where a median of rounds jumps between the two states.
    """

    name = ""
    counts_items = counts_ops = ""   # what the two rates count, for the summary line
    tail = 99          # highest percentile with >= 10 samples beyond it at min_rounds

    def __init__(self) -> None:
        self.tracer = None
        self.reset()

    def reset(self) -> None:
        self.item_rates: list[float] = []
        self.item_total = 0.0
        self.item_seconds = 0.0
        self.latencies: list[float] = []

    def record(self, items: float, seconds: float, latencies: list[float]) -> None:
        self.item_rates.append(items / seconds)
        self.item_total += items
        self.item_seconds += seconds
        self.latencies.extend(latencies)

    def rate(self) -> float:
        return self.item_total / self.item_seconds

    def end_to_end(self) -> tuple[dict, str]:
        lat = self.latencies
        metrics = {
            "items_per_s": (self.rate(), "1/s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_ms_p50": (percentile_ms(lat, 50), "ms"),
            "latency_ms_tail": (percentile_ms(lat, self.tail), "ms"),
        }
        note = (f"items = {self.counts_items}, ops = {self.counts_ops}, both per second "
                f"over {len(self.item_rates)} rounds (items/s by round "
                f"{[float(f'{r:.4g}') for r in self.item_rates]}); "
                f"latency over {len(lat)} ops, tail = p{self.tail}")
        return metrics, note


# --- pretrain ---------------------------------------------------------------

_IMPORT_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import dnamlm
from dnamlm.config import run_config_from_dict
run_config_from_dict(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


class _StepClock:
    """Start of each batch assembly and end of each train step in pretrain_run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        assemble, step = pipeline.assemble_batch, pipeline.train_step

        def timed_assemble(*args, **kwargs):
            self.starts.append(time.perf_counter())
            return assemble(*args, **kwargs)

        def timed_step(*args, **kwargs):
            loss = step(*args, **kwargs)
            self.ends.append(time.perf_counter())
            return loss

        pipeline.assemble_batch, pipeline.train_step = timed_assemble, timed_step
        try:
            yield self
        finally:
            pipeline.assemble_batch, pipeline.train_step = assemble, step

    def latencies(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]


def check_pretrain(run, result) -> None:
    """Stage table, step-1 loss, loss decrease and checkpoint round trip."""
    n = run.training.total_steps
    m = run.masking
    records = result.report.records
    require([r.step for r in records] == list(range(1, n + 1)), "report steps are not 1..N")
    for r in records:
        stage, widths = stage_widths(r.step, n, m.stage_fractions, m.base_width, m.width_increment)
        require(r.stage == stage and list(r.widths) == widths,
                f"step {r.step}: stage {r.stage} widths {r.widths}, expected {stage} {widths}")
    require({r.stage for r in records} == set(range(len(m.stage_fractions))),
            "the run did not pass through every curriculum stage")

    # Step-1 loss against the float64 reference on the same initial model and batch.
    vocab = tokenizer.build_vocab(run.tokenizer.k)
    frames = pipeline.prepare_frames(
        pipeline.build_windows(run), vocab, Strategy(run.tokenizer.strategy), run.model.max_len
    )
    mc = run.model
    params0 = init_model(ModelConfig(
        vocab_size=vocab.size, num_layers=mc.num_layers, num_heads=mc.num_heads,
        hidden_dim=mc.hidden_dim, ff_dim=mc.ff_dim, max_len=mc.max_len,
        dropout_rate=mc.dropout_rate, tie_embeddings=mc.tie_embeddings, dtype=mc.dtype,
        seed=run.training.seed,
    ))
    batch, _ = pipeline.assemble_batch(
        *frames, 1, run, pipeline.schedule_from_config(run), pipeline.policy_from_config(run), vocab
    )
    hidden = reference.encoder_hidden(params0.arrays, mc.num_layers, mc.num_heads,
                                      batch.ids, batch.padding_mask)
    ref = reference.mlm_loss(params0.arrays, hidden, np.asarray(batch.labels))
    require(abs(records[0].loss - ref) <= 1e-4 * max(1.0, abs(ref)),
            f"step-1 loss {records[0].loss} != reference {ref}")
    require(abs(records[0].loss - math.log(vocab.size)) < 0.1,
            f"step-1 loss {records[0].loss} is not close to ln {vocab.size}")

    losses = np.array([r.loss for r in records])
    t = max(2, n // 10)
    first, last = losses[:t], losses[-t:]
    spread = math.sqrt(first.var(ddof=1) / t + last.var(ddof=1) / t)
    require(first.mean() - last.mean() > max(5.0 * spread, 0.02),
            f"loss did not fall: first tenth {first.mean():.4f}, last {last.mean():.4f}")

    ckpt = checkpoint.load_checkpoint(result.checkpoint_dir)
    require(ckpt.step == n, f"checkpoint step {ckpt.step} != {n}")
    require(set(ckpt.params.arrays) == set(result.params.arrays), "checkpoint tensor names differ")
    for name, arr in result.params.arrays.items():
        got = ckpt.params.arrays[name]
        require(got.dtype == arr.dtype and got.shape == arr.shape
                and got.tobytes() == arr.tobytes(), f"checkpoint tensor {name} differs")
    with open(result.report_json, encoding="utf-8") as fh:
        require(len(json.load(fh)["records"]) == n, "report.json lacks step records")


class Pretrain(Workload):
    """Repeated ``pretrain_run`` calls on the pinned desk configuration."""

    name = "pretrain"
    counts_items = "tokens (steps x batch x max_len) over whole pretrain_run calls"
    counts_ops = "training steps (batch assembly + train step)"
    setups = 5
    min_rounds = inputs.PRETRAIN_MIN_ROUNDS
    tail = 90          # 120-180 steps per run

    def __init__(self, seed: int, workdir: str, steps: int = inputs.PRETRAIN_STEPS):
        self.seed, self.workdir, self.steps = seed, workdir, steps
        super().__init__()

    def setup_once(self) -> float:
        """Import plus config, timed inside a fresh interpreter."""
        cfg = json.dumps(inputs.pretrain_config(self.seed, self.steps))
        if self.tracer is not None:   # a traced run measures no set-up time
            run_config_from_dict(json.loads(cfg))
            return 0.0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(corpus.__file__)))
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, cfg], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.split()[-1])

    def round(self, index: int) -> tuple[int, int]:
        run = run_config_from_dict(
            inputs.pretrain_config(inputs.round_seed(self.seed, index), self.steps)
        )
        out_dir = os.path.join(self.workdir, f"pretrain-{index}")
        clock = _StepClock()
        ctx = clock.installed() if self.tracer is None else contextlib.nullcontext()
        try:
            with ctx:
                t0 = time.perf_counter()
                result = pipeline.pretrain_run(run, out_dir)
                wall = time.perf_counter() - t0
        except DnaMlmError as exc:
            print(f"pretrain round {index} failed: {exc!r}", file=sys.stderr)
            return self.steps, self.steps
        self.record(self.steps * run.training.batch_size * run.model.max_len, wall,
                    clock.latencies())
        with paused(self.tracer):
            check_pretrain(run, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        return self.steps, 0


# --- classify ---------------------------------------------------------------

MARGIN_TOL = 1e-4


def reference_predictions(params, seqs: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Float64 argmax and top-2 margin of the classifier, from raw sequences."""
    cfg = params.config
    framed = [reference.frame(reference.kmer_ids(s, inputs.K), cfg.max_len) for s in seqs]
    order = np.argsort([f[1].sum() for f in framed], kind="stable")
    logits = np.empty((len(seqs), cfg.num_classes))
    for start in range(0, len(order), 64):
        idx = order[start : start + 64]
        width = int(max(framed[i][1].sum() for i in idx))
        ids = np.stack([framed[i][0][:width] for i in idx])
        real = np.stack([framed[i][1][:width] for i in idx])
        hidden = reference.encoder_hidden(params.arrays, cfg.num_layers, cfg.num_heads,
                                          ids, real, cls_only=True)
        logits[idx] = reference.class_logits(params.arrays, hidden)
    top2 = np.sort(logits, axis=1)[:, -2:]
    return logits.argmax(axis=1), top2[:, 1] - top2[:, 0]


def check_classify(params, seqs: list[str], preds: np.ndarray, labels: list[int]) -> int:
    """Predictions against the reference forward; MCC against our own MCC.

    Returns how many predictions were too close to call (margin < tolerance).
    """
    want, margin = reference_predictions(params, seqs)
    sure = margin >= MARGIN_TOL
    bad = np.flatnonzero(sure & (np.asarray(preds) != want))
    require(bad.size == 0, f"{bad.size} predictions differ from the reference argmax "
                           f"(first: sequence {bad[:1].tolist()})")
    got = analysis.multiclass_mcc(list(labels), [int(p) for p in preds])
    ref = reference.mcc(labels, preds)
    require(abs(got - ref) <= 1e-12, f"multiclass_mcc {got} != reference MCC {ref}")
    return int((~sure).sum())


class Classify(Workload):
    """Closed loop, one client: classification requests of mixed batch size."""

    name = "classify"
    counts_items = "sequences classified over request time"
    counts_ops = "requests"
    setups = inputs.CLASSIFY_SETUPS
    min_rounds = inputs.CLASSIFY_MIN_ROUNDS

    def __init__(self, seed: int, workdir: str, mix: dict = inputs.REQUEST_MIX):
        self.seed, self.workdir, self.mix = seed, workdir, mix
        self.seen: set[str] = set()
        self.finetune_seqs, self.finetune_labels = inputs.finetune_set(seed)
        self.seen.update(self.finetune_seqs)
        warm_rng = np.random.default_rng([seed, 4])
        self.warmup = [inputs.labeled_sequences(warm_rng, b)[0] for b in (1, 8)]
        self.params = self.vocab = None
        self.too_close = 0
        self.all_labels: list[int] = []
        self.all_preds: list[int] = []
        super().__init__()

    def serve(self, seqs: list[str]) -> np.ndarray:
        """One request: tokenize, frame, and classify."""
        max_len = self.params.config.max_len
        rows = [
            tokenizer.wrap_for_model(
                tokenizer.encode(corpus.DnaSequence(f"q{i}", s), self.vocab, Strategy.OVERLAPPING),
                self.vocab, max_len,
            )
            for i, s in enumerate(seqs)
        ]
        ids = np.stack([r[0] for r in rows])
        real = np.stack([r[1] for r in rows])
        return training.predict_classes(self.params, ids, real)

    def setup_once(self) -> float:
        """Fine-tune, save, load and warm up a classifier."""
        examples = [corpus.LabeledExample(corpus.DnaSequence(f"ft{i}", s), y)
                    for i, (s, y) in enumerate(zip(self.finetune_seqs, self.finetune_labels))]
        ckpt_dir = os.path.join(self.workdir, "classifier")
        t0 = time.perf_counter()
        vocab = tokenizer.build_vocab(inputs.K)
        params = init_model(ModelConfig(vocab_size=vocab.size, seed=self.seed,
                                        **inputs.CLASSIFY_MODEL))
        params, _epochs = training.finetune_classify(
            params, examples, inputs.CLASSIFY_MODEL["num_classes"], vocab,
            FinetuneConfig(seed=self.seed, **inputs.CLASSIFY_FINETUNE),
        )
        checkpoint.save_checkpoint(ckpt_dir, params)
        loaded = checkpoint.load_checkpoint(ckpt_dir).params
        previous = self.params
        self.params, self.vocab = loaded, vocab
        for seqs in self.warmup:
            self.serve(seqs)
        elapsed = time.perf_counter() - t0
        with paused(self.tracer):
            for name, arr in params.arrays.items():
                require(loaded.arrays[name].tobytes() == arr.tobytes(),
                        f"reloaded classifier tensor {name} differs")
                require(previous is None or previous.arrays[name].tobytes() == arr.tobytes(),
                        f"repeated set-up gave a different classifier tensor {name}")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        return elapsed

    def round(self, index: int) -> tuple[int, int]:
        requests = inputs.request_round(self.seed, index, self.seen, self.mix)
        seqs, preds, labels, latencies = [], [], [], []
        failed = 0
        for j, (batch_seqs, batch_labels) in enumerate(requests):
            if self.tracer is not None:
                self.tracer.op_id = index * len(requests) + j
            t0 = time.perf_counter()
            try:
                out = self.serve(batch_seqs)
            except DnaMlmError as exc:
                print(f"request {index}/{j} failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            seqs.extend(batch_seqs)
            preds.extend(int(p) for p in out)
            labels.extend(batch_labels)
        self.record(len(seqs), sum(latencies), latencies)
        with paused(self.tracer):
            self.too_close += check_classify(self.params, seqs, np.asarray(preds), labels)
        self.all_labels.extend(labels)
        self.all_preds.extend(preds)
        return len(requests), failed

    def end_to_end(self) -> tuple[dict, str]:
        metrics, note = super().end_to_end()
        return metrics, (f"{note}; MCC {reference.mcc(self.all_labels, self.all_preds):.3f}; "
                         f"{self.too_close} predictions within {MARGIN_TOL} of a tie not compared")


# --- genome-data ------------------------------------------------------------

def check_parse(headers, records, seqs) -> None:
    require(len(seqs) == len(records), f"{len(seqs)} FASTA records parsed, {len(records)} written")
    for h, r, s in zip(headers, records, seqs):
        require(s.id == h and s.bases == r.upper(), f"record {h!r} parsed wrongly")


def check_windows(bases: str, windows) -> list[int]:
    """Kept windows equal a separate count of tiled windows with N share <= 0.1."""
    w = inputs.WINDOW
    is_n = np.frombuffer(bases.encode("ascii"), dtype=np.uint8) == ord("N")
    cum = np.concatenate([[0], np.cumsum(is_n)])
    starts = np.arange(0, len(bases) - w + 1, w)
    kept = starts[(cum[starts + w] - cum[starts]) <= inputs.MAX_N_FRACTION * w].tolist()
    require(len(windows) == len(kept), f"{len(windows)} windows kept, expected {len(kept)}")
    for s, win in zip(kept, windows):
        require(win.bases == bases[s : s + w], f"window at {s} has the wrong bases")
    return kept


def check_encodings(ref_ids: np.ndarray, overlapping, nonoverlapping, same_length,
                    framed: np.ndarray) -> None:
    """Token ids and lengths of the three strategies for one window."""
    k, w = inputs.K, inputs.WINDOW
    require(len(overlapping) == w - k + 1, "overlapping length is not L-k+1")
    require(len(nonoverlapping) == w // k, "non-overlapping length is not floor(L/k)")
    require(len(same_length) == w - k + 1, "same-length length is not L-k+1")
    require(np.array_equal(np.asarray(overlapping), ref_ids),
            "overlapping k-mer ids differ from 5 + base-4 value / [UNK]")
    tiled = ref_ids[::k][: w // k]
    require(np.array_equal(np.asarray(nonoverlapping), tiled), "non-overlapping ids differ")
    require(np.array_equal(np.asarray(same_length), np.resize(tiled, w - k + 1)),
            "same-length ids are not the non-overlapping ids tiled")
    require(np.array_equal(framed, reference.frame(ref_ids, w)[0]), "framed ids differ")


class MaskStats:
    """Masking observations of assembled batches, checked against the method."""

    def __init__(self, run) -> None:
        self.run = run
        self.interior: dict[int, list[float]] = {}
        self.expected: dict[int, float] = {}
        self.labeled = self.to_mask = self.kept = 0

    def add(self, step: int, batch, frame_rows: set) -> None:
        run, m = self.run, self.run.masking
        ids = np.asarray(batch.ids)
        labels = np.asarray(batch.labels)
        labeled = labels != IGNORE
        original = np.where(labeled, labels, ids)
        for row, real in zip(original, np.asarray(batch.padding_mask)):
            require(row.tobytes() + real.tobytes() in frame_rows,
                    f"step {step}: a batch row's labels or ids do not restore a corpus frame")
        require(not (labeled & np.isin(original, (PAD, CLS, SEP))).any(),
                f"step {step}: a [CLS], [SEP] or [PAD] position is labeled")
        corrupted = ids[labeled]
        truth = original[labeled]
        require(((corrupted == MASK) | (corrupted == truth) | (corrupted >= 5)).all(),
                f"step {step}: a masked position was replaced by a special token")
        self.labeled += corrupted.size
        self.to_mask += int((corrupted == MASK).sum())
        self.kept += int((corrupted == truth).sum())
        stage, widths = stage_widths(step, run.training.total_steps, m.stage_fractions,
                                     m.base_width, m.width_increment)
        # Positions every allowed width of every stage can reach from inside the
        # frame, and that hold k-mer tokens (1 .. L-k+1).
        half = (m.base_width + m.width_increment * (len(m.stage_fractions) - 1)) // 2
        last_token = inputs.WINDOW - inputs.K + 1
        cols = slice(half, min(run.model.max_len - half, last_token) + 1)
        self.expected[stage] = float(np.mean([1 - (1 - m.p) ** w for w in widths]))
        self.interior.setdefault(stage, []).extend(labeled[:, cols].mean(axis=1).tolist())

    def check(self) -> None:
        for stage, rates in sorted(self.interior.items()):
            r = np.asarray(rates)
            tol = 5.0 * r.std(ddof=1) / math.sqrt(r.size) + 1e-9
            require(abs(r.mean() - self.expected[stage]) <= tol,
                    f"stage {stage}: interior mask rate {r.mean():.4f}, expected "
                    f"{self.expected[stage]:.4f} +/- {tol:.4f}")
        pol = self.run.masking.policy
        n = self.labeled
        random_share = 1.0 - (self.to_mask + self.kept) / n
        for got, want, what in ((self.to_mask / n, pol.p_mask, "[MASK]"),
                                (random_share, pol.p_random, "random k-mer"),
                                (self.kept / n, pol.p_keep, "kept")):
            tol = 5.0 * math.sqrt(max(got * (1 - got), 1e-12) / n) + 1e-3
            require(abs(got - want) <= tol, f"{what} share {got:.4f}, expected {want}")


class GenomeData(Workload):
    """FASTA ingest, windowing, the three encodings, framing and batch assembly."""

    name = "genome-data"
    counts_items = "FASTA bases through parse, windows, three encodings and framing"
    counts_ops = "assemble_batch calls"
    setups = inputs.GENOME_SETUPS
    min_rounds = inputs.GENOME_MIN_ROUNDS
    # p99 of ~1,200 batch latencies follows short CPU-contention bursts on a
    # shared machine (9.9-17.6 ms over six seeds at a steady median); p90 does not.
    tail = 90

    def __init__(self, seed: int, workdir: str, lengths=inputs.GENOME_RECORDS,
                 steps: int = inputs.GENOME_STEPS):
        self.seed, self.lengths, self.steps = seed, lengths, steps
        super().__init__()

    def setup_once(self) -> float:
        """Vocabulary plus config."""
        t0 = time.perf_counter()
        self.vocab = tokenizer.build_vocab(inputs.K)
        self.run = run_config_from_dict(inputs.genome_config(self.seed, self.steps))
        self.schedule = pipeline.schedule_from_config(self.run)
        self.policy = pipeline.policy_from_config(self.run)
        return time.perf_counter() - t0

    def round(self, index: int) -> tuple[int, int]:
        headers, records, text = inputs.genome(self.seed, index, self.lengths)
        vocab, w = self.vocab, inputs.WINDOW
        if self.tracer is not None:
            self.tracer.op_id = index
        t0 = time.perf_counter()
        try:
            seqs = corpus.parse_fasta(text)
        except DnaMlmError as exc:
            print(f"genome round {index}: parse failed: {exc!r}", file=sys.stderr)
            return len(records) + self.steps, len(records) + self.steps
        ingest = time.perf_counter() - t0
        with paused(self.tracer):
            check_parse(headers, records, seqs)

        frames_ids, frames_real = [], []
        for bases, seq in zip(records, seqs):
            t0 = time.perf_counter()
            windows = corpus.sample_windows(seq, w, "tiled", stride=w,
                                            max_n_fraction=inputs.MAX_N_FRACTION)
            ingest += time.perf_counter() - t0
            with paused(self.tracer):
                upper = bases.upper()
                starts = check_windows(upper, windows)
                ref = reference.kmer_ids(upper, inputs.K)
            for start, win in zip(starts, windows):
                t0 = time.perf_counter()
                ov = tokenizer.encode(win, vocab, Strategy.OVERLAPPING)
                no = tokenizer.encode(win, vocab, Strategy.NONOVERLAPPING)
                sl = tokenizer.encode(win, vocab, Strategy.SAME_LENGTH)
                framed, real = tokenizer.wrap_for_model(ov, vocab, w)
                ingest += time.perf_counter() - t0
                with paused(self.tracer):
                    check_encodings(ref[start : start + w - inputs.K + 1],
                                    ov.ids, no.ids, sl.ids, framed)
                frames_ids.append(framed)
                frames_real.append(real)
        t0 = time.perf_counter()
        fi, fr = np.stack(frames_ids), np.stack(frames_real)
        ingest += time.perf_counter() - t0

        frame_rows = {a.tobytes() + b.tobytes() for a, b in zip(fi, fr)}
        stats = MaskStats(self.run)
        failed = 0
        latencies = []
        for step in range(1, self.steps + 1):
            t0 = time.perf_counter()
            try:
                batch, _plans = pipeline.assemble_batch(
                    fi, fr, step, self.run, self.schedule, self.policy, vocab
                )
            except DnaMlmError as exc:
                print(f"genome round {index} step {step} failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            with paused(self.tracer):
                stats.add(step, batch, frame_rows)
        self.record(sum(len(r) for r in records), ingest, latencies)
        with paused(self.tracer):
            stats.check()
        return len(records) + self.steps, failed


WORKLOADS = {cls.name: cls for cls in (Pretrain, Classify, GenomeData)}
