"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs every workload once at a small size and expects it to pass.  Then it
plants one wrong program output at a time, by swapping a program function
for a faulty copy, and expects the workload's checks to reject it: a flipped
prediction, a wrong MCC, a shifted k-mer id, a masked [CLS] and a checkpoint
that does not round-trip.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import time

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import dnamlm.model.training as training
from dnamlm import analysis, pipeline, tokenizer
from dnamlm.tokenizer import Strategy, TokenSequence

from reference import CLS, MASK
from workloads import CheckFailed, Classify, GenomeData, Pretrain


def run_small(name: str, workdir: str) -> None:
    """One set-up and one round of a workload at a small size."""
    if name == "pretrain":
        w = Pretrain(7, workdir, steps=30)
    elif name == "classify":
        w = Classify(7, workdir, mix={1: 2, 2: 2, 8: 1})
    else:
        w = GenomeData(7, workdir, lengths=(40_000, 30_000), steps=40)
    w.setup_once()
    w.round(0)


@contextlib.contextmanager
def planted(module, attr: str, make_faulty):
    original = getattr(module, attr)
    setattr(module, attr, make_faulty(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def flipped_prediction(predict):
    def faulty(params, ids, real, *args, **kwargs):
        preds = predict(params, ids, real, *args, **kwargs).copy()
        preds[0] = 1 - preds[0]
        return preds
    return faulty


def wrong_mcc(mcc):
    return lambda labels, preds: mcc(labels, preds) + 0.01


def shifted_kmer(encode):
    def faulty(seq, vocab, strategy):
        tokens = encode(seq, vocab, strategy)
        if Strategy(strategy) is Strategy.OVERLAPPING:
            ids = list(tokens.ids)
            mid = len(ids) // 2
            ids[mid] = ids[mid] + 1 if 5 <= ids[mid] < vocab.size - 1 else 5
            tokens = TokenSequence(ids=ids, strategy=tokens.strategy, k=tokens.k)
        return tokens
    return faulty


def masked_cls(assemble):
    def faulty(*args, **kwargs):
        batch, plans = assemble(*args, **kwargs)
        batch.labels[0, 0] = CLS
        batch.ids[0, 0] = MASK
        return batch, plans
    return faulty


def lossy_checkpoint(save):
    def faulty(directory, params, *args, **kwargs):
        broken = params.copy()
        broken["pos_emb"][0, 0] += 1e-3
        return save(directory, broken, *args, **kwargs)
    return faulty


FAULTS = (
    ("flipped prediction", "classify", training, "predict_classes", flipped_prediction),
    ("wrong MCC", "classify", analysis, "multiclass_mcc", wrong_mcc),
    ("shifted k-mer id", "genome-data", tokenizer, "encode", shifted_kmer),
    ("masked [CLS]", "genome-data", pipeline, "assemble_batch", masked_cls),
    ("checkpoint not bit-exact", "pretrain", pipeline, "save_checkpoint", lossy_checkpoint),
)


def main() -> int:
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = 0
    try:
        for name in ("pretrain", "classify", "genome-data"):
            t0 = time.perf_counter()
            try:
                run_small(name, workdir)
                print(f"ok    {name}: small run passes its checks "
                      f"({time.perf_counter() - t0:.1f} s)")
            except CheckFailed as exc:
                problems += 1
                print(f"FAIL  {name}: small run failed a check: {exc}")
        for label, name, module, attr, fault in FAULTS:
            try:
                with planted(module, attr, fault):
                    run_small(name, workdir)
                problems += 1
                print(f"FAIL  {label}: not caught by the {name} checks")
            except CheckFailed as exc:
                print(f"ok    {label}: caught by the {name} checks ({exc})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
