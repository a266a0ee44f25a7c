import ctypes
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dnamlm.config import run_config_from_dict
from dnamlm.errors import ConfigInvalid
from dnamlm.masking import IGNORE_LABEL, allowed_widths
from dnamlm.model import training
from dnamlm.pipeline import (
    assemble_batch,
    attention_probe,
    build_windows,
    model_config_from_run,
    policy_from_config,
    prepare_frames,
    pretrain_run,
    schedule_from_config,
)
from dnamlm.tokenizer import CLS_ID, SEP_ID, Strategy, build_vocab


def small_run(**training_overrides):
    training = {"total_steps": 20, "batch_size": 4, "seed": 3}
    training.update(training_overrides)
    return run_config_from_dict({
        "corpus": {"num_sequences": 16, "sequence_length": 48, "window_length": 48},
        "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 45},
        "training": training,
    })


def test_build_windows_shapes():
    run = small_run()
    windows = build_windows(run)
    assert len(windows) == 16
    assert all(len(w) == 48 for w in windows)


def test_window_shorter_than_k_rejected():
    with pytest.raises(ConfigInvalid, match="window_length"):
        run_config_from_dict({
            "corpus": {"num_sequences": 2, "sequence_length": 4, "window_length": 4,
                       "motifs": []},
        })


def test_window_shorter_than_k_rejected_before_reading_the_corpus(tmp_path):
    with pytest.raises(ConfigInvalid, match="window_length"):
        run_config_from_dict({
            "corpus": {"source": "fasta", "fasta_path": str(tmp_path / "absent.fa"),
                       "window_length": 4},
        })


def _stride_run(stride):
    return run_config_from_dict({
        "corpus": {"num_sequences": 3, "sequence_length": 100, "window_length": 30,
                   "window_stride": stride},
    })


def test_null_window_stride_tiles_by_window_length():
    windows = build_windows(_stride_run(None))
    assert [w.id for w in windows] == [
        f"synthetic-{i}:{s}-{s + 30}" for i in range(3) for s in (0, 30, 60)
    ]
    assert windows == build_windows(_stride_run(30))
    assert len(build_windows(_stride_run(10))) == 3 * 8


def test_zero_window_stride_rejected():
    with pytest.raises(ConfigInvalid, match="stride"):
        build_windows(_stride_run(0))


def test_prepare_frames_is_the_tokenizers():
    # One framing path; the benchmark's tracer finds it here by identity.
    from dnamlm import tokenizer

    assert prepare_frames is tokenizer.prepare_frames


def test_prepare_frames_layout():
    run = small_run()
    vocab = build_vocab(6)
    ids, real = prepare_frames(build_windows(run), vocab, Strategy.OVERLAPPING, 45)
    assert ids.shape == (16, 45) and real.shape == (16, 45)
    assert (ids[:, 0] == CLS_ID).all()
    # window of 48 -> 43 tokens + CLS + SEP = 45 real positions, no padding
    assert real.all()
    assert (ids[:, -1] == SEP_ID).all()


def test_assemble_batch_deterministic_and_masked():
    run = small_run()
    vocab = build_vocab(6)
    frames = prepare_frames(build_windows(run), vocab, Strategy.OVERLAPPING, 45)
    sched = schedule_from_config(run)
    policy = policy_from_config(run)
    b1, plans1 = assemble_batch(frames[0], frames[1], 5, run, sched, policy, vocab)
    b2, plans2 = assemble_batch(frames[0], frames[1], 5, run, sched, policy, vocab)
    assert np.array_equal(b1.ids, b2.ids)
    assert np.array_equal(b1.labels, b2.labels)
    assert [p.mask_ids.tolist() for p in plans1] == [p.mask_ids.tolist() for p in plans2]
    # labels only at masked positions; specials never masked
    masked = b1.labels != IGNORE_LABEL
    assert not masked[:, 0].any()
    assert not (b1.ids[masked] == CLS_ID).any()


def test_assemble_batch_differs_across_steps():
    run = small_run()
    vocab = build_vocab(6)
    frames = prepare_frames(build_windows(run), vocab, Strategy.OVERLAPPING, 45)
    sched = schedule_from_config(run)
    policy = policy_from_config(run)
    b1, _ = assemble_batch(frames[0], frames[1], 1, run, sched, policy, vocab)
    b2, _ = assemble_batch(frames[0], frames[1], 2, run, sched, policy, vocab)
    assert not (np.array_equal(b1.ids, b2.ids) and np.array_equal(b1.labels, b2.labels))


def test_attention_probe_contract(tmp_path):
    run = small_run()
    res = pretrain_run(run, str(tmp_path / "r"))
    vocab = build_vocab(6)
    frames = prepare_frames(build_windows(run), vocab, Strategy.OVERLAPPING, 45)
    probe = attention_probe(res.params, run, frames, 20)
    assert len(probe["cls_mass"]) == 1
    assert len(probe["entropy"]) == 1
    assert probe["num_masked_queries"] > 0
    assert 0.0 <= probe["cls_mass"][0] <= 1.0
    probe2 = attention_probe(res.params, run, frames, 20)
    assert probe == probe2


def test_resume_requires_matching_config(tmp_path):
    run = small_run()
    pretrain_run(run, str(tmp_path / "a"), stop_after_step=10)
    other = small_run(seed=99)
    with pytest.raises(ConfigInvalid):
        pretrain_run(other, str(tmp_path / "b"),
                     resume_from=str(tmp_path / "a" / "checkpoint"))


def test_resume_from_checkpoint_with_retired_workers_key(tmp_path):
    full = pretrain_run(small_run(), str(tmp_path / "full"))
    half = pretrain_run(small_run(), str(tmp_path / "a"), stop_after_step=10)
    # Checkpoints written before the key's removal echo it in their config.
    manifest_path = os.path.join(half.checkpoint_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["run_config"]["training"]["workers"] = 2
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    resumed = pretrain_run(small_run(), str(tmp_path / "b"), resume_from=half.checkpoint_dir)
    assert resumed.report.records[0].step == 11
    spliced = [r.loss for r in half.report.records + resumed.report.records]
    assert spliced == [r.loss for r in full.report.records]
    assert np.array_equal(resumed.params["tok_emb"], full.params["tok_emb"])


def test_fasta_corpus_source(tmp_path):
    fa = tmp_path / "c.fa"
    fa.write_text(">chr\n" + "ACGT" * 40 + "\n", encoding="utf-8")
    run = run_config_from_dict({
        "corpus": {"source": "fasta", "fasta_path": str(fa),
                   "window_length": 32, "num_sequences": 0},
        "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 29},
        "training": {"total_steps": 18, "batch_size": 2, "seed": 0},
    })
    windows = build_windows(run)
    assert len(windows) == 5
    res = pretrain_run(run, str(tmp_path / "out"))
    assert len(res.report.records) == 18


def baseline_run(k=6, total_steps=20, **masking):
    return run_config_from_dict({
        "corpus": {"num_sequences": 16, "sequence_length": 48, "window_length": 48},
        "tokenizer": {"k": k},
        "masking": {"mode": "baseline", **masking},
        "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 45},
        "training": {"total_steps": total_steps, "batch_size": 4, "seed": 3},
    })


@pytest.mark.parametrize("k", [4, 6])
def test_baseline_schedule_is_one_stage_of_width_k(k):
    sched = schedule_from_config(baseline_run(k=k, total_steps=20))
    assert sched.boundaries() == [20]
    for step in (1, 20, 21):
        assert sched.stage_of(step) == 0
        assert allowed_widths(step, sched) == [k]


def test_baseline_rejects_odd_k_and_bad_stage_table():
    with pytest.raises(ConfigInvalid):
        schedule_from_config(baseline_run(k=5))
    with pytest.raises(ConfigInvalid):
        schedule_from_config(baseline_run(stage_fractions=[0.5, 0.3, 1.0]))
    with pytest.raises(ConfigInvalid):
        schedule_from_config(baseline_run(base_width=5))


def test_baseline_report_lists_only_width_k(tmp_path):
    res = pretrain_run(baseline_run(total_steps=20), str(tmp_path / "bl"))
    assert res.report.stage_boundaries == [20]
    assert [r.step for r in res.report.records] == list(range(1, 21))
    assert all(r.stage == 0 and r.widths == [6] for r in res.report.records)


def test_model_config_from_run_keeps_every_model_key():
    model = {"num_layers": 1, "num_heads": 2, "hidden_dim": 16, "ff_dim": 32,
             "max_len": 45, "tie_embeddings": True, "dtype": "float64"}
    run = run_config_from_dict({"model": model, "training": {"seed": 11}})
    cfg = model_config_from_run(run, build_vocab(6))
    assert cfg.vocab_size == 4101
    assert (cfg.num_layers, cfg.num_heads, cfg.hidden_dim, cfg.ff_dim, cfg.max_len) == (
        1, 2, 16, 32, 45)
    assert cfg.tie_embeddings and cfg.dropout_rate == 0.0
    assert cfg.dtype == "float64" and cfg.seed == 11
    # dropout_rate is the one key without a runnable non-default value.
    with pytest.raises(ConfigInvalid, match="dropout_rate"):
        run_config_from_dict({"model": {**model, "dropout_rate": 0.1}})


def _glibc_mallopt() -> bool:
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Two pretrain_run calls at the benchmark's shape (batch 16 x 128, hidden 64,
# ff 256, 6-mers); prints the second call's minor page faults per step.
_PRETRAIN_FAULTS_PER_STEP = """
import os, resource, tempfile
from dnamlm.config import run_config_from_dict
from dnamlm.pipeline import pretrain_run
STEPS = 10
run = run_config_from_dict({
    "corpus": {"num_sequences": 32, "sequence_length": 512, "window_length": 512},
    "tokenizer": {"k": 6},
    "masking": {"stage_fractions": [1.0]},
    "model": {"num_layers": 2, "num_heads": 4, "hidden_dim": 64, "ff_dim": 256,
              "max_len": 128},
    "training": {"total_steps": STEPS, "batch_size": 16, "seed": 1},
})
with tempfile.TemporaryDirectory() as out:
    pretrain_run(run, os.path.join(out, "first"))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pretrain_run(run, os.path.join(out, "second"))
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / STEPS)
"""

# Two finetune_classify calls at about the classify benchmark's shape (64
# rows of 40-131 bp, 2 epochs of batch 32, hidden 64, ff 256, max_len 128);
# prints the second call's minor page faults per training step.
_FINETUNE_FAULTS_PER_STEP = """
import resource
import numpy as np
from dnamlm.corpus import DnaSequence, LabeledExample
from dnamlm.model import ModelConfig, init_model
from dnamlm.model.training import FinetuneConfig, finetune_classify
from dnamlm.tokenizer import build_vocab
rng = np.random.default_rng(0)
vocab = build_vocab(6)
examples = [
    LabeledExample(DnaSequence(f"s{i}", "".join(rng.choice(list("ACGT"), rng.integers(40, 132)))),
                   i % 2)
    for i in range(64)
]
def finetune():
    params = init_model(ModelConfig(vocab_size=vocab.size, num_layers=2, num_heads=4,
                                    hidden_dim=64, ff_dim=256, max_len=128, num_classes=2))
    finetune_classify(params, examples, 2, vocab, FinetuneConfig(epochs=2, batch_size=32))
finetune()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
finetune()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


def _faults_per_step(script: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
def test_pretrain_steps_reuse_the_freed_heap():
    """Once a run has grown the heap, a second run faults almost no page in.

    With glibc's default trimming and mmap threshold, the second run took
    about 2,600 minor faults per step at this shape; reusing the freed heap
    takes under one.
    """
    assert _faults_per_step(_PRETRAIN_FAULTS_PER_STEP) < 250


@pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
def test_finetune_steps_reuse_the_freed_heap():
    """The same for fine-tuning: glibc's defaults took about 15,500 minor
    faults per step of the second call at this shape; reusing the freed
    heap takes about 11.
    """
    assert _faults_per_step(_FINETUNE_FAULTS_PER_STEP) < 1500


class _LibcWithoutMallopt:
    def __init__(self, name):
        pass


def _no_libc(name):
    raise OSError("cannot load the C library")


@pytest.mark.parametrize("cdll", [_LibcWithoutMallopt, _no_libc])
def test_keep_freed_heap_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(training.ctypes, "CDLL", cdll)
    assert training._keep_freed_heap() is None


def test_keep_freed_heap_turns_trimming_and_mmap_off(monkeypatch):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: Libc())
    training._keep_freed_heap()
    assert calls == [(-1, -1), (-4, 0)]  # M_TRIM_THRESHOLD -1, M_MMAP_MAX 0
