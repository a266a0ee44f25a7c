import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dnamlm.errors import ConfigInvalid, LengthExceeded
from dnamlm.masking import IGNORE_LABEL, MaskSchedule, plan_mask
from dnamlm.model import (
    Batch,
    ModelConfig,
    attention_maps,
    backward,
    forward,
    init_model,
)
from dnamlm.model import network
from dnamlm.model.network import (
    _ERF_CHUNK,
    _ERF_P,
    _ERF_Q,
    _ERF_T,
    _ERF_U,
    _contract,
    _erf,
)

try:
    from scipy.special import erf as scipy_erf
except ImportError:  # the program does not need scipy; these tests then use digests
    scipy_erf = None


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


def _span_batch(cfg, batch, length, width, seed, p=0.05) -> Batch:
    """A batch masked by RandomMask's planner at span ``width``, with
    every other row padded at its end."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(batch, length))
    real = np.ones((batch, length), dtype=bool)
    for row in range(1, batch, 2):
        real[row, length - 1 - row % length // 2 :] = False
    ids[~real] = 0
    schedule = MaskSchedule(total_steps=1, stage_fractions=(1.0,), base_width=width)
    labels = np.full((batch, length), IGNORE_LABEL, dtype=np.int64)
    for row in range(batch):
        plan = plan_mask(length, 1, p, schedule, rng, exclude=~real[row])
        labels[row, plan.mask_ids] = ids[row, plan.mask_ids]
    return Batch(ids=ids, padding_mask=real, labels=labels)


def _mlm_config(head_width=16, num_heads=2, **overrides) -> ModelConfig:
    base = dict(vocab_size=69, num_layers=2, num_heads=num_heads,
                hidden_dim=head_width * num_heads, ff_dim=64, max_len=128,
                dtype="float32", seed=head_width)
    base.update(overrides)
    return ModelConfig(**base)


class TestMlmRowCut:
    """``backward`` runs the last layer on the masked rows; every byte equals the full pass."""

    @staticmethod
    def _cut_and_full(params, batch, monkeypatch):
        """Backward as it runs and with the row cut refused; asserts both give
        the same bytes and returns the last layer's rows of the first (or None)."""
        seen = []
        encode = network._encode

        def spy(params, ids, real, rows=None):
            seen.append(rows)
            return encode(params, ids, real, rows)

        monkeypatch.setattr(network, "_encode", spy)
        loss, grads = backward(params, batch)
        with monkeypatch.context() as refused:
            refused.setattr(network, "_cut_rows_exact", lambda *args: False)
            full_loss, full_grads = backward(params, batch)
        assert seen[1] is None
        assert np.float64(loss).tobytes() == np.float64(full_loss).tobytes()
        assert list(grads) == list(full_grads)
        for name in grads:
            assert grads[name].dtype == full_grads[name].dtype, name
            assert grads[name].tobytes() == full_grads[name].tobytes(), name
        return seen[0]

    @pytest.mark.parametrize("batch_size", [1, 2, 16])
    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("head_width", [8, 16, 24, 32])
    def test_gradients_equal_the_full_pass(self, head_width, tie, batch_size, monkeypatch):
        params = init_model(_mlm_config(head_width, tie_embeddings=tie))
        batch = _span_batch(params.config, batch_size, 64, 10, seed=head_width + batch_size)
        rows = self._cut_and_full(params, batch, monkeypatch)
        if rows is not None:
            keep = batch.labels != IGNORE_LABEL
            assert rows.shape[1] % 8 == 0 and rows.shape[1] < 64
            assert (np.diff(rows, axis=1) > 0).all()
            for row in range(batch_size):
                assert set(np.flatnonzero(keep[row])) <= set(rows[row].tolist())

    @pytest.mark.parametrize("width", [6, 8, 10, 12, 14])
    def test_each_stage_width_at_the_benchmark_layout(self, width, monkeypatch):
        """The pretrain benchmark's model and batch shape, at p 0.025."""
        params = init_model(_mlm_config(16, num_heads=4, ff_dim=256, vocab_size=4101))
        batch = _span_batch(params.config, 16, 128, width, seed=width, p=0.025)
        rows = self._cut_and_full(params, batch, monkeypatch)
        assert rows is not None  # the cut ran

    @pytest.mark.parametrize("case", ["none", "one", "empty_row", "full_row"])
    @pytest.mark.parametrize("batch_size", [1, 2, 16])
    def test_sparse_and_full_masks(self, case, batch_size, monkeypatch):
        params = init_model(_mlm_config(16))
        batch = _span_batch(params.config, batch_size, 40, 6, seed=batch_size)
        labels = batch.labels
        if case in ("none", "one"):
            labels[:] = IGNORE_LABEL
        if case == "one":
            labels[-1, 3] = batch.ids[-1, 3]
        if case == "empty_row":
            labels[0] = IGNORE_LABEL
        if case == "full_row":
            labels[0] = np.where(batch.padding_mask[0], batch.ids[0], IGNORE_LABEL)
        rows = self._cut_and_full(params, batch, monkeypatch)
        if case == "full_row":
            assert rows is None  # 40 rows round up to the whole width

    @pytest.mark.parametrize("overrides", [dict(dtype="float64"), dict(num_layers=1),
                                           dict(num_layers=3, tie_embeddings=True)])
    def test_other_layouts(self, overrides, monkeypatch):
        params = init_model(_mlm_config(16, **overrides))
        batch = _span_batch(params.config, 8, 96, 12, seed=5)
        self._cut_and_full(params, batch, monkeypatch)

    def test_check_runs_once_per_key(self, monkeypatch):
        monkeypatch.setattr(network, "_CUT_ROWS", {})
        calls = []
        check = network._attention_rows_exact

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return check(*args, **kwargs)

        monkeypatch.setattr(network, "_attention_rows_exact", counted)
        params = init_model(_mlm_config(16))
        batch = _span_batch(params.config, 16, 64, 6, seed=1)
        n = -(-(batch.labels != IGNORE_LABEL).sum(1).max() // 8) * 8
        for _ in range(3):
            backward(params, batch)
        assert len(calls) == 1
        assert list(network._CUT_ROWS) == [(32, 2, 64, "float32", 16, 64, int(n))]
        backward(params, _span_batch(params.config, 4, 64, 6, seed=1))
        assert len(calls) == 2  # a new batch size is a new key

    def test_refused_key_takes_the_full_pass(self, monkeypatch):
        params = init_model(_mlm_config(16))
        batch = _span_batch(params.config, 16, 64, 6, seed=2)
        n = int(-(-(batch.labels != IGNORE_LABEL).sum(1).max() // 8) * 8)
        key = (32, 2, 64, "float32", 16, 64, n)
        monkeypatch.setattr(network, "_CUT_ROWS", {key: False})
        assert self._cut_and_full(params, batch, monkeypatch) is None

    def test_row_count_a_product_changes_bits_at_takes_the_full_pass(self, monkeypatch):
        """A stand-in BLAS whose position-wise products change their last bit
        below 64 rows: the check refuses those row counts, and only those."""
        monkeypatch.setattr(network, "_CUT_ROWS", {})
        mm = network._mm

        def small_rows_differ(x, w):
            out = mm(x, w)
            if x.size // x.shape[-1] < 64:
                out = np.nextafter(out, np.inf)
            return out

        monkeypatch.setattr(network, "_mm", small_rows_differ)
        params = init_model(_mlm_config(16))
        small = _span_batch(params.config, 2, 64, 6, seed=3)  # 2 x 8 or 2 x 16 rows
        large = _span_batch(params.config, 16, 64, 6, seed=3)
        assert self._cut_and_full(params, small, monkeypatch) is None
        assert self._cut_and_full(params, large, monkeypatch) is not None
        assert sorted(network._CUT_ROWS.values()) == [False, True]

    def test_too_wide_batch_is_refused_before_the_check(self, monkeypatch):
        monkeypatch.setattr(network, "_CUT_ROWS", {})
        params = init_model(_mlm_config(16, max_len=32))
        batch = _span_batch(params.config, 4, 33, 6, seed=6)
        with pytest.raises(LengthExceeded):
            backward(params, batch)
        assert network._CUT_ROWS == {}

    def test_rows_up_to_the_width_skip_the_check(self, monkeypatch):
        monkeypatch.setattr(network, "_CUT_ROWS", {})
        params = init_model(_mlm_config(16))
        batch = _span_batch(params.config, 2, 12, 6, seed=4)
        batch.labels[0, 1] = batch.ids[0, 1]  # 12 positions: 8 rows at most
        batch.labels[1, :] = IGNORE_LABEL
        batch.labels[1, :9] = batch.ids[1, :9]  # 9 masked round up to 16 >= 12
        assert self._cut_and_full(params, batch, monkeypatch) is None
        assert network._CUT_ROWS == {}


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


def _cephes_erf(x: float) -> float:
    """Cephes ndtr.c's erf on one Python float, with libm's exp: scipy's float64 erf."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_cephes_erf(-x)
    if x <= 1.0:
        z = x * x
        t = _ERF_T[0]
        for c in _ERF_T[1:]:
            t = t * z + c
        u = z + _ERF_U[0]
        for c in _ERF_U[1:]:
            u = u * z + c
        return x * t / u
    if x >= 8.0:  # erfc(x) < 1.2e-29 here, so 1 - erfc(x) is 1.0
        return 1.0
    p = _ERF_P[0]
    for c in _ERF_P[1:]:
        p = p * x + c
    q = x + _ERF_Q[0]
    for c in _ERF_Q[1:]:
        q = q * x + c
    return 1.0 - math.exp(-x * x) * p / q


def _cephes32(x: np.ndarray) -> np.ndarray:
    return np.array([_cephes_erf(float(v)) for v in x.ravel()]).astype(np.float32)


_FLT = np.finfo(np.float32)
_ONE = np.float32(1)
_EDGES = np.array(
    [0.0, 1.0, np.nextafter(_ONE, np.float32(0)), np.nextafter(_ONE, np.float32(2)),
     _FLT.smallest_subnormal, _FLT.smallest_normal - _FLT.smallest_subnormal,
     _FLT.smallest_normal, _FLT.max, np.inf, *np.linspace(5.9, 9.0, 32)],
    dtype=np.float32,
)
_EDGES = np.concatenate([_EDGES, -_EDGES, np.array([np.nan], np.float32)])


class TestErf:
    """``network._erf`` is scipy's Cephes erf to the bit on float32 inputs.

    The fingerprinted runs feed the GELU values with |x| < 0.6, so they
    never reach the |x| > 1 branch; these tests do.  Each float32 check
    holds without scipy: against a sha256 digest of scipy's output, or
    against ``_cephes_erf`` above.
    """

    # (first bit pattern, end, stride) -> sha256 of scipy.special.erf's float32 output
    # (scipy 1.17.1).  A stride of 4,099 samples every binade of both signs,
    # inf and NaN; [1, 4) is every float32 there, where exp decides the bits.
    @pytest.mark.parametrize("lo, hi, step, digest", [
        (0, 2**32, 4099, "acc3c54d02b77dc4eb94e74a87a8b8dde71e3af96e6b8488d43471bb2a003375"),
        (0x3F800000, 0x40800000, 1,
         "b4c9d4639189530d2e7ee532dbcfef95bbec82fcc68ef61741b8a6aaec6012e9"),
    ], ids=["every-binade", "one-to-four"])
    def test_float32_matches_scipy_digest(self, lo, hi, step, digest):
        sha = hashlib.sha256()
        block = 1 << 22
        for start in range(lo, hi, block * step):
            bits = np.arange(start, min(hi, start + block * step), step, dtype=np.uint64)
            x = bits.astype(np.uint32).view(np.float32)
            with np.errstate(invalid="ignore"):  # signalling NaNs warn when widened
                got = _erf(x, np.empty_like(x))
                if scipy_erf is not None:
                    assert got.tobytes() == scipy_erf(x).tobytes()
            sha.update(got.tobytes())
        assert sha.hexdigest() == digest

    def test_edge_values(self):
        got = _erf(_EDGES, np.empty_like(_EDGES))
        assert got.tobytes() == _cephes32(_EDGES).tobytes()
        if scipy_erf is not None:
            assert got.tobytes() == scipy_erf(_EDGES).tobytes()
        for v, e in zip(_EDGES[:-1].tolist(), got[:-1].tolist()):
            assert math.copysign(1.0, e) == math.copysign(1.0, v)  # -0.0 gives -0.0
            if v == 0.0 or abs(v) >= 5.9:  # inf included
                assert e == (0.0 if v == 0.0 else math.copysign(1.0, v))
        assert got[-1:].view(np.uint32)[0] == 0x7FC00000  # the canonical NaN, as scipy gives

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_with_large_inputs(self, dtype):
        """``_encode`` calls ``_erf(a, out=a)``: the |x| > 1 indices must be
        found before the output overwrites the input, in every chunk."""
        x = (np.random.default_rng(3).standard_normal(3 * _ERF_CHUNK + 5) * 2.0).astype(dtype)
        assert (np.abs(x) > 1).mean() > 0.3
        expected = _erf(x, np.empty_like(x))
        a = x.copy()
        assert _erf(a, out=a) is a
        assert a.tobytes() == expected.tobytes()
        if dtype is np.float32:
            assert a.tobytes() == _cephes32(x).tobytes()

    def test_non_contiguous_and_one_element(self):
        x = (np.random.default_rng(4).standard_normal((40, 600)) * 1.5).astype(np.float32)
        for view in (lambda a: a[:, ::3], lambda a: a.T, lambda a: a[::-1]):
            v = view(x)
            expected = _erf(np.ascontiguousarray(v), np.empty(v.shape, np.float32))
            assert _erf(v, np.empty(v.shape, np.float32)).tobytes() == expected.tobytes()
            a = view(x.copy())
            assert _erf(a, out=a) is a
            assert np.ascontiguousarray(a).tobytes() == expected.tobytes()
        for one in (np.array([1.5], np.float32), np.array(-0.25, np.float32)):
            out = np.empty_like(one)
            assert _erf(one, out) is out and out.shape == one.shape
            assert out.tobytes() == _cephes32(one).reshape(one.shape).tobytes()

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (_EDGES, _EDGES.astype(np.float64)):
                _erf(x, np.empty_like(x))
                a = x.copy()
                _erf(a, out=a)

    def test_float64_within_one_ulp(self):
        """numpy's SIMD exp is not libm's, so a float64 value may be 1 ulp off."""
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.standard_normal(4000) * s for s in (0.2, 1.0, 3.0)])
        x = np.concatenate([x, _EDGES[np.isfinite(_EDGES)].astype(np.float64)])
        reference = np.array([_cephes_erf(v) for v in x.tolist()])
        if scipy_erf is not None:
            assert scipy_erf(x).tobytes() == reference.tobytes()
        got = _erf(x, np.empty_like(x))
        assert np.signbit(got).tolist() == np.signbit(reference).tolist()
        assert np.abs(got.view(np.int64) - reference.view(np.int64)).max() <= 1
