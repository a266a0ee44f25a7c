"""The float32 encoder against the benchmark's independent float64 reference.

``perfbench/reference.py`` recomputes the forward pass and the MLM loss from
their definitions, sharing no code with the program.  It is loaded here by
file path, so these checks run in the test suite as well as in the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dnamlm.masking import IGNORE_LABEL
from dnamlm.model import Batch, ModelConfig, backward, forward, init_model

pytest.importorskip("scipy.special")   # the reference's GELU uses erf

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

MAX_LEN = 16
#: Body lengths of the batch rows: one full frame and two padded ones.
BODY_LENGTHS = (MAX_LEN - 2, 9, 4)


def _batch(vocab_size: int, seed: int):
    """Framed rows of random k-mer ids, and MLM labels on about a third of each body."""
    rng = np.random.default_rng(seed)
    rows = [reference.frame(rng.integers(reference.FIRST_KMER, vocab_size, size=n), MAX_LEN)
            for n in BODY_LENGTHS]
    ids = np.stack([r[0] for r in rows])
    real = np.stack([r[1] for r in rows])
    labels = np.full(ids.shape, IGNORE_LABEL, dtype=np.int64)
    for row, n in enumerate(BODY_LENGTHS):
        picked = 1 + rng.choice(n, size=max(1, n // 3), replace=False)
        labels[row, picked] = rng.integers(reference.FIRST_KMER, vocab_size, size=picked.size)
    return ids, real, labels


@pytest.mark.parametrize("tie_embeddings", [False, True])
def test_float32_encoder_matches_float64_reference(tie_embeddings):
    cfg = ModelConfig(vocab_size=5 + 4 ** 3, num_layers=2, num_heads=4, hidden_dim=32,
                      ff_dim=64, max_len=MAX_LEN, tie_embeddings=tie_embeddings,
                      dtype="float32", seed=4)
    params = init_model(cfg)
    ids, real, labels = _batch(cfg.vocab_size, seed=9)
    assert not real.all()    # a padded row is part of the check
    assert reference.IGNORE == IGNORE_LABEL

    want = reference.encoder_hidden(params.arrays, cfg.num_layers, cfg.num_heads, ids, real)
    got = forward(params, ids, real).hidden
    assert got.dtype == np.float32
    assert np.abs(got[real] - want[real]).max() <= 1e-4

    ref_loss = reference.mlm_loss(params.arrays, want, labels)
    loss, _grads = backward(params, Batch(ids=ids, padding_mask=real, labels=labels))
    assert abs(loss - ref_loss) <= 1e-4 * max(1.0, abs(ref_loss))
