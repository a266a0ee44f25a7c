import os
import subprocess
import sys

import numpy as np
import pytest

from dnamlm.errors import ConfigInvalid, LengthExceeded
from dnamlm.masking import IGNORE_LABEL
from dnamlm.model import (
    Batch,
    ModelConfig,
    attention_maps,
    backward,
    forward,
    init_model,
)
from dnamlm.model.network import _contract


def closed_form_param_count(cfg: ModelConfig) -> int:
    d, f, v, m, c = cfg.hidden_dim, cfg.ff_dim, cfg.vocab_size, cfg.max_len, cfg.num_classes
    per_layer = 4 * d * d + d * f + f + f * d + d + 4 * d
    mlm = (0 if cfg.tie_embeddings else d * v) + v
    return v * d + m * d + cfg.num_layers * per_layer + mlm + d * c + c


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_size=21, num_layers=1, num_heads=2, hidden_dim=8, ff_dim=16,
        max_len=12, num_classes=3, dtype="float64", seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_mlm_batch(cfg: ModelConfig, seed: int, batch=2, length=9) -> Batch:
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(batch, length))
    real = np.ones((batch, length), dtype=bool)
    real[0, length - 2 :] = False
    ids[0, length - 2 :] = 0
    labels = np.full((batch, length), IGNORE_LABEL, dtype=np.int64)
    for b in range(batch):
        cols = rng.choice(np.flatnonzero(real[b]), size=2, replace=False)
        labels[b, cols] = ids[b, cols]
    return Batch(ids=ids, padding_mask=real, labels=labels)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(vocab_size=21, hidden_dim=63, num_heads=4)

    def test_max_len_floor(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(vocab_size=21, max_len=2)

    def test_dtype_validated(self):
        with pytest.raises(ConfigInvalid):
            ModelConfig(vocab_size=21, dtype="float16")

    def test_param_count_default_closed_form(self):
        cfg = ModelConfig(vocab_size=4101)
        assert closed_form_param_count(cfg) == 636_807
        assert sum(a.size for a in init_model(cfg).arrays.values()) == 636_807

    def test_param_count_matches_arrays(self):
        for cfg in (tiny_config(), tiny_config(tie_embeddings=True)):
            params = init_model(cfg)
            assert sum(a.size for a in params.arrays.values()) == closed_form_param_count(cfg)


class TestInit:
    def test_deterministic_bit_identical(self):
        a = init_model(tiny_config(seed=5))
        b = init_model(tiny_config(seed=5))
        assert list(a.arrays) == list(b.arrays)
        for name in a.arrays:
            assert np.array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        a = init_model(tiny_config(seed=5))
        b = init_model(tiny_config(seed=6))
        assert any(not np.array_equal(a[n], b[n]) for n in a.arrays)

    def test_truncated_normal_bounds_and_layernorm_init(self):
        params = init_model(ModelConfig(vocab_size=4101, seed=1))
        assert np.abs(params["tok_emb"]).max() <= 2 * 0.02 + 1e-12
        assert (params["layer0.ln1_g"] == 1.0).all()
        assert (params["layer0.ln2_b"] == 0.0).all()
        assert (params["mlm_b"] == 0.0).all()

    def test_dtype_respected(self):
        assert init_model(tiny_config(dtype="float64"))["tok_emb"].dtype == np.float64
        cfg32 = tiny_config(dtype="float32")
        assert init_model(cfg32)["tok_emb"].dtype == np.float32


class TestForward:
    def test_attention_rows_sum_to_one_over_real_keys(self):
        cfg = tiny_config(num_layers=2)
        params = init_model(cfg)
        batch = random_mlm_batch(cfg, 1)
        trace = forward(params, batch.ids, batch.padding_mask)
        sums = trace.attentions.sum(-1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_padded_keys_get_exactly_zero(self):
        cfg = tiny_config()
        params = init_model(cfg)
        batch = random_mlm_batch(cfg, 2)
        trace = forward(params, batch.ids, batch.padding_mask)
        pad_cols = ~batch.padding_mask[0]
        assert (trace.attentions[:, 0, :, :, pad_cols] == 0.0).all()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_attention_maps_are_the_forward_attentions(self, dtype):
        cfg = tiny_config(num_layers=2, dtype=dtype)
        params = init_model(cfg)
        batch = random_mlm_batch(cfg, 3)
        maps = attention_maps(params, batch.ids, batch.padding_mask)
        trace = forward(params, batch.ids, batch.padding_mask)
        assert maps.dtype == trace.attentions.dtype
        assert maps.shape == trace.attentions.shape
        assert maps.tobytes() == trace.attentions.tobytes()

    def test_length_exceeded(self):
        cfg = tiny_config(max_len=8)
        params = init_model(cfg)
        with pytest.raises(LengthExceeded):
            forward(params, np.full((1, 9), 5), np.ones((1, 9), bool))

    def test_trace_shapes(self):
        cfg = tiny_config()
        params = init_model(cfg)
        trace = forward(params, np.full((1, 6), 5), np.ones((1, 6), bool))
        assert trace.logits.shape == (1, 6, cfg.vocab_size)
        assert trace.hidden.shape == (1, 6, cfg.hidden_dim)
        assert trace.attentions.shape == (1, 1, 2, 6, 6)

    @pytest.mark.parametrize("ids,mask,words", [
        (np.full(6, 5), np.ones(6, bool), "ids must be 2-D"),
        (np.full((1, 6), 5), np.ones(6, bool), "padding_mask shape"),
        (np.full((1, 6), 5), None, "padding_mask shape"),
    ])
    @pytest.mark.parametrize("run", ["forward", "backward"])
    def test_only_a_masked_2d_batch_is_accepted(self, ids, mask, words, run):
        params = init_model(tiny_config())
        with pytest.raises(ConfigInvalid, match=words):
            if run == "forward":
                forward(params, ids, mask)
            else:
                backward(params, Batch(ids, mask, labels=np.full(ids.shape, IGNORE_LABEL)))

    def test_permutation_equivariance_without_positions(self):
        cfg = tiny_config(num_layers=2)
        params = init_model(cfg)
        params["pos_emb"][:] = 0.0
        rng = np.random.default_rng(0)
        ids = rng.integers(5, cfg.vocab_size, size=(1, 8))
        real = np.ones((1, 8), bool)
        trace = forward(params, ids, real)
        perm_ids = ids.copy()
        perm_ids[0, 2], perm_ids[0, 6] = ids[0, 6], ids[0, 2]
        trace_p = forward(params, perm_ids, real)
        assert np.allclose(trace.logits[0, 2], trace_p.logits[0, 6], atol=1e-10)
        assert np.allclose(trace.logits[0, 6], trace_p.logits[0, 2], atol=1e-10)
        assert np.allclose(trace.logits[0, 0], trace_p.logits[0, 0], atol=1e-10)

    def test_padding_invisibility(self):
        # real-position outputs do not depend on the content of PAD slots
        cfg = tiny_config()
        params = init_model(cfg)
        rng = np.random.default_rng(3)
        ids = rng.integers(5, cfg.vocab_size, size=(1, 10))
        real = np.ones((1, 10), bool)
        real[0, 7:] = False
        trace_a = forward(params, ids, real)
        ids_b = ids.copy()
        ids_b[0, 7:] = rng.integers(5, cfg.vocab_size, size=3)
        trace_b = forward(params, ids_b, real)
        assert np.allclose(trace_a.logits[0, :7], trace_b.logits[0, :7], atol=1e-12)

    def test_invalid_ids_rejected(self):
        cfg = tiny_config()
        params = init_model(cfg)
        with pytest.raises(ConfigInvalid):
            forward(params, np.full((1, 4), cfg.vocab_size), np.ones((1, 4), bool))

    def test_nonzero_dropout_rejected_at_forward(self):
        # The trainer runs no dropout, so the config cannot be built with any.
        with pytest.raises(ConfigInvalid, match="dropout_rate"):
            tiny_config(dropout_rate=0.1)


def _with_head(cfg: ModelConfig, weight: float, bias: np.ndarray):
    """Fresh params whose MLM head scores every position with ``bias`` alone."""
    params = init_model(cfg)
    params["mlm_w"][:] = weight
    params["mlm_b"][:] = bias
    return params


class TestMlmLoss:
    """The training loss, the sparse head inside ``backward``, on labelled batches."""

    def test_uniform_logits_equal_log_vocab(self):
        cfg = tiny_config(vocab_size=4101)
        params = _with_head(cfg, 0.0, 0.0)
        ids = np.full((1, 3), 7)
        labels = np.array([[7, IGNORE_LABEL, 9]])
        loss, _ = backward(params, Batch(ids, np.ones((1, 3), bool), labels))
        assert loss == pytest.approx(np.log(4101), rel=1e-12)

    def test_one_hot_limit(self):
        cfg = tiny_config(vocab_size=10)
        bias = np.full(10, -30.0)
        bias[7] = 30.0
        params = _with_head(cfg, 0.0, bias)
        ids = np.full((1, 2), 6)
        loss, _ = backward(params, Batch(ids, np.ones((1, 2), bool), np.full((1, 2), 7)))
        assert loss < 1e-8

    def test_all_ignored_is_zero(self):
        cfg = tiny_config(vocab_size=10)
        ids = np.random.default_rng(0).integers(5, 10, size=(2, 4))
        labels = np.full((2, 4), IGNORE_LABEL)
        loss, _ = backward(init_model(cfg), Batch(ids, np.ones((2, 4), bool), labels))
        assert loss == 0.0

    def test_loss_near_log_vocab_at_init(self):
        cfg = ModelConfig(vocab_size=4101, seed=0, max_len=64)
        params = init_model(cfg)
        rng = np.random.default_rng(1)
        ids = rng.integers(5, 4101, size=(4, 40))
        loss, _ = backward(params, Batch(ids, np.ones((4, 40), bool), ids.copy()))
        assert abs(loss - np.log(4101)) / np.log(4101) < 0.01


def relative_error(a: float, fd: float) -> float:
    return abs(a - fd) / max(abs(a) + abs(fd), 1e-6)


def finite_difference_check(cfg: ModelConfig, batch: Batch, samples_per_param=12,
                            h=1e-5, seed=0) -> float:
    params = init_model(cfg)
    loss, grads = backward(params, batch)
    assert np.isfinite(loss)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in params.arrays.items():
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(samples_per_param, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            up, _ = backward(params, batch)
            flat[j] = orig - h
            down, _ = backward(params, batch)
            flat[j] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, relative_error(grads[name].reshape(-1)[j], fd))
    return worst


class TestBackward:
    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            cfg = tiny_config(seed=seed)
            batch = random_mlm_batch(cfg, seed + 50)
            assert finite_difference_check(cfg, batch, seed=seed) < 1e-4

    def test_gradients_tied_embeddings(self):
        cfg = tiny_config(seed=3, tie_embeddings=True)
        batch = random_mlm_batch(cfg, 53)
        assert finite_difference_check(cfg, batch, seed=3) < 1e-4

    def test_classifier_gradients(self):
        cfg = tiny_config(seed=4)
        params = init_model(cfg)
        rng = np.random.default_rng(9)
        ids = rng.integers(5, cfg.vocab_size, size=(3, 7))
        batch = Batch(ids=ids, padding_mask=np.ones((3, 7), bool),
                      class_labels=np.array([0, 2, 1]))
        loss, grads = backward(params, batch)
        h = 1e-5
        worst = 0.0
        for name, arr in params.arrays.items():
            flat = arr.reshape(-1)
            for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + h
                up, _ = backward(params, batch)
                flat[j] = orig - h
                down, _ = backward(params, batch)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, relative_error(grads[name].reshape(-1)[j], fd))
        assert worst < 1e-4

    def test_pad_only_parameters_get_zero_gradient(self):
        cfg = tiny_config(max_len=12)
        params = init_model(cfg)
        rng = np.random.default_rng(11)
        length = 6  # positions 6..11 of pos_emb never used
        ids = rng.integers(5, cfg.vocab_size, size=(2, length))
        labels = np.full((2, length), IGNORE_LABEL)
        labels[:, 3] = ids[:, 3]
        loss, grads = backward(params, Batch(ids, np.ones((2, length), bool), labels))
        assert (grads["pos_emb"][length:] == 0.0).all()
        assert (grads["pos_emb"][:length] != 0.0).any()
        unused_token_rows = np.setdiff1d(np.arange(cfg.vocab_size), ids.reshape(-1))
        assert (grads["tok_emb"][unused_token_rows] == 0.0).all()

    def test_no_labeled_positions_zero_loss_and_grads(self):
        cfg = tiny_config()
        params = init_model(cfg)
        ids = np.full((1, 5), 6)
        labels = np.full((1, 5), IGNORE_LABEL)
        loss, grads = backward(params, Batch(ids, np.ones((1, 5), bool), labels))
        assert loss == 0.0
        assert all((g == 0.0).all() for g in grads.values())

    def test_exactly_one_loss_selected(self):
        cfg = tiny_config()
        params = init_model(cfg)
        ids = np.full((1, 5), 6)
        with pytest.raises(ConfigInvalid):
            backward(params, Batch(ids, np.ones((1, 5), bool)))

    def test_sparse_head_loss_matches_forward_logits(self):
        cfg = tiny_config(num_layers=2, seed=8)
        params = init_model(cfg)
        batch = random_mlm_batch(cfg, 77)
        loss, _ = backward(params, batch)
        logits = forward(params, batch.ids, batch.padding_mask).logits
        keep = batch.labels != IGNORE_LABEL
        rows = logits[keep] - logits[keep].max(-1, keepdims=True)
        logp = rows - np.log(np.exp(rows).sum(-1, keepdims=True))
        dense = -logp[np.arange(rows.shape[0]), batch.labels[keep]].mean()
        assert loss == pytest.approx(dense, rel=1e-12)


# Gradients of a desk-sized float32 batch: the weight gradients sum over
# 12 x 45 = 540 positions and the MLM head over the 4101-token vocabulary,
# both long enough for BLAS to split the sum differently by thread count.
_GRADIENT_DIGEST = """
import hashlib
import numpy as np
from dnamlm.masking import IGNORE_LABEL
from dnamlm.model import Batch, ModelConfig, backward, init_model
cfg = ModelConfig(vocab_size=4101, num_layers=1, max_len=45, seed=3)
rng = np.random.default_rng(0)
ids = rng.integers(5, 4101, size=(12, 45))
labels = np.where(rng.random((12, 45)) < 0.5, ids, IGNORE_LABEL)
_, grads = backward(init_model(cfg), Batch(ids, np.ones((12, 45), bool), labels))
digest = hashlib.sha256()
for name in sorted(grads):
    digest.update(grads[name].tobytes())
print(digest.hexdigest())
"""


class TestContract:
    @pytest.mark.parametrize("k", [1, 448, 449, 700, 896, 897, 2048])
    def test_matches_float64_product(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((5, k)).astype(np.float32)
        b = rng.standard_normal((k, 7)).astype(np.float32)
        got = _contract(a, b)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, a.astype(np.float64) @ b.astype(np.float64), atol=1e-5 * k)

    def test_gradients_independent_of_blas_threads(self):
        digests = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _GRADIENT_DIGEST],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                         PYTHONPATH=os.pathsep.join(sys.path)),
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1
