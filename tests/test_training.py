import os
import subprocess
import sys

import numpy as np
import pytest

from dnamlm.corpus import DnaSequence, LabeledExample
from dnamlm.errors import (
    ConfigInvalid,
    EmptyDataset,
    LengthExceeded,
    NonFiniteLoss,
    SequenceTooShort,
)
from dnamlm.masking import IGNORE_LABEL
from dnamlm.model import (
    Batch,
    ModelConfig,
    OptimizerState,
    adamw_step,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from dnamlm.model import training
from dnamlm.model.network import _cut_widths, _encode, _exact_widths
from dnamlm.model.training import (
    FinetuneConfig,
    _class_head,
    _class_logits,
    finetune_classify,
    predict_classes,
)
from dnamlm.tokenizer import build_vocab


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_size=21, num_layers=1, num_heads=2, hidden_dim=8, ff_dim=16,
        max_len=16, num_classes=2, dtype="float64", seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def mlm_batch(cfg, seed=0, batch=3, length=8) -> Batch:
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, cfg.vocab_size, size=(batch, length))
    labels = np.full((batch, length), IGNORE_LABEL, dtype=np.int64)
    labels[:, 2] = ids[:, 2]
    labels[:, 5] = ids[:, 5]
    return Batch(ids=ids, padding_mask=np.ones((batch, length), bool), labels=labels)


class TestAdamW:
    def test_matches_torch_reference(self):
        torch = pytest.importorskip("torch")
        rng = np.random.default_rng(0)
        theta0 = rng.normal(size=(7, 5))
        lr, b1, b2, wd, eps = 1e-2, 0.9, 0.999, 0.04, 1e-8

        cfg = tiny_config()
        params = init_model(cfg)
        params.arrays = {"w": theta0.copy()}
        state = OptimizerState(lr=lr, beta1=b1, beta2=b2, weight_decay=wd, eps=eps,
                               m={"w": np.zeros_like(theta0)},
                               v={"w": np.zeros_like(theta0)})

        t_param = torch.nn.Parameter(torch.tensor(theta0, dtype=torch.float64))
        opt = torch.optim.AdamW([t_param], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)

        for step in range(12):
            g = rng.normal(size=theta0.shape)
            adamw_step(params, {"w": g}, state)
            opt.zero_grad()
            t_param.grad = torch.tensor(g, dtype=torch.float64)
            opt.step()
            assert np.allclose(params.arrays["w"], t_param.detach().numpy(),
                               rtol=1e-10, atol=1e-12), f"diverged at step {step}"

    def test_zero_lr_leaves_params_unchanged(self):
        cfg = tiny_config()
        params = init_model(cfg)
        before = {k: v.copy() for k, v in params.arrays.items()}
        opt = init_optimizer(params, lr=0.0)
        train_step(params, opt, mlm_batch(cfg))
        for name in before:
            assert np.array_equal(params[name], before[name])

    def test_only_subset_updated_when_restricted(self):
        cfg = tiny_config()
        params = init_model(cfg)
        before = {k: v.copy() for k, v in params.arrays.items()}
        opt = init_optimizer(params, lr=1e-2)
        ids = np.full((2, 6), 7)
        batch = Batch(ids, np.ones((2, 6), bool), class_labels=np.array([0, 1]))
        train_step(params, opt, batch, only={"cls_w", "cls_b"})
        assert not np.array_equal(params["cls_w"], before["cls_w"])
        assert np.array_equal(params["tok_emb"], before["tok_emb"])
        assert np.array_equal(params["layer0.wq"], before["layer0.wq"])

    def test_hyperparameter_validation(self):
        cfg = tiny_config()
        params = init_model(cfg)
        with pytest.raises(ConfigInvalid):
            init_optimizer(params, lr=-1.0)
        with pytest.raises(ConfigInvalid):
            init_optimizer(params, lr=1e-3, beta1=1.0)


class TestTrainStep:
    def test_two_identical_runs_identical_losses(self):
        def run():
            cfg = tiny_config(dtype="float32")
            params = init_model(cfg)
            opt = init_optimizer(params, lr=1e-3)
            return [train_step(params, opt, mlm_batch(cfg, seed=s)) for s in range(20)]

        assert run() == run()

    def test_loss_decreases_on_fixed_batch(self):
        cfg = tiny_config(dtype="float32")
        params = init_model(cfg)
        opt = init_optimizer(params, lr=5e-3)
        batch = mlm_batch(cfg)
        losses = [train_step(params, opt, batch) for _ in range(120)]
        assert losses[-1] < losses[0] * 0.3

    def test_non_finite_loss_aborts(self):
        cfg = tiny_config()
        params = init_model(cfg)
        params["mlm_b"][:] = np.inf
        opt = init_optimizer(params, lr=1e-3)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                train_step(params, opt, mlm_batch(cfg))


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_exact_round_trip(self, dtype, tied, tmp_path):
        cfg = tiny_config(dtype=dtype, tie_embeddings=tied)
        params = init_model(cfg)
        opt = init_optimizer(params, lr=3e-4, weight_decay=0.01)
        for s in range(5):
            train_step(params, opt, mlm_batch(cfg, seed=s))
        run_cfg = {"training": {"seed": 1}}
        save_checkpoint(str(tmp_path / "ck"), params, opt, step=5, run_config=run_cfg)
        ck = load_checkpoint(str(tmp_path / "ck"))
        assert ck.step == 5
        assert ck.run_config == run_cfg
        assert ck.params.config == params.config
        for name in params.arrays:
            assert np.array_equal(ck.params[name], params[name])
            assert ck.params[name].dtype == params[name].dtype
            assert np.array_equal(ck.opt_state.m[name], opt.m[name])
            assert np.array_equal(ck.opt_state.v[name], opt.v[name])
        assert ck.opt_state.step == opt.step
        assert ck.opt_state.lr == opt.lr

    def test_round_trip_after_head_resize(self, tmp_path):
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden_dim=8,
                          ff_dim=16, max_len=16, dtype="float32", seed=0)
        data = [LabeledExample(DnaSequence(f"s{i}", "ACGTACGTAC"[i:] + "TTGCA"), i % 3)
                for i in range(6)]
        params, _ = finetune_classify(init_model(cfg), data, 3, vocab,
                                      FinetuneConfig(epochs=1, batch_size=3))
        assert params.config.num_classes == 3 and params["cls_b"].shape == (3,)
        save_checkpoint(str(tmp_path / "ck"), params)
        ck = load_checkpoint(str(tmp_path / "ck"))
        assert ck.params.config == params.config
        assert list(ck.params.arrays) == list(params.arrays)
        for name, arr in params.arrays.items():
            assert ck.params[name].tobytes() == arr.tobytes()

    def test_save_leaves_no_temp_file(self, tmp_path):
        params = init_model(tiny_config())
        save_checkpoint(str(tmp_path / "ck"), params, init_optimizer(params, lr=1e-3))
        assert sorted(os.listdir(tmp_path / "ck")) == ["manifest.json", "params.bin"]

    def test_crash_between_the_two_moves_is_refused(self, tmp_path, monkeypatch):
        ck = str(tmp_path / "ck")
        params = init_model(tiny_config())
        save_checkpoint(ck, params, step=1)
        params["pos_emb"][0, 0] += 1.0
        real_replace = os.replace

        def crash_on_manifest(src, dst):
            if dst.endswith("manifest.json"):
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(ck, params, step=2)
        monkeypatch.undo()
        # The new blob now sits beside the old manifest.
        with pytest.raises(ConfigInvalid, match="sha256"):
            load_checkpoint(ck)

    def test_params_only_checkpoint(self, tmp_path):
        cfg = tiny_config()
        params = init_model(cfg)
        save_checkpoint(str(tmp_path / "ck"), params, step=0)
        ck = load_checkpoint(str(tmp_path / "ck"))
        assert ck.opt_state is None
        assert np.array_equal(ck.params["tok_emb"], params["tok_emb"])

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config(dtype="float32")

        def fresh():
            params = init_model(cfg)
            return params, init_optimizer(params, lr=1e-3, weight_decay=0.01)

        params_a, opt_a = fresh()
        losses_a = [train_step(params_a, opt_a, mlm_batch(cfg, seed=s)) for s in range(10)]

        params_b, opt_b = fresh()
        for s in range(5):
            train_step(params_b, opt_b, mlm_batch(cfg, seed=s))
        save_checkpoint(str(tmp_path / "ck"), params_b, opt_b, step=5)
        ck = load_checkpoint(str(tmp_path / "ck"))
        losses_b = [train_step(ck.params, ck.opt_state, mlm_batch(cfg, seed=s))
                    for s in range(5, 10)]
        assert losses_a[5:] == losses_b


def make_separable_dataset(n_per_class=64):
    """Two classes keyed by disjoint planted motifs; separable by design."""
    rng = np.random.default_rng(42)
    examples = []
    for label, motif in ((0, "AAAAAAAAAA"), (1, "GTGTGTGTGT")):
        for _ in range(n_per_class):
            bases = "".join(rng.choice(list("ACGT"), size=30))
            pos = int(rng.integers(0, 21))
            bases = bases[:pos] + motif + bases[pos + 10 :]
            examples.append(LabeledExample(DnaSequence("x", bases), label))
    return examples


class TestFinetune:
    def test_empty_dataset(self):
        cfg = tiny_config()
        params = init_model(cfg)
        with pytest.raises(EmptyDataset):
            finetune_classify(params, [], 2, build_vocab(3))

    def test_single_class_dataset_mcc_zero(self):
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2,
                          hidden_dim=8, ff_dim=16, max_len=16, dtype="float32", seed=0)
        params = init_model(cfg)
        data = [LabeledExample(DnaSequence("a", "ACGTACGT"), 0) for _ in range(6)]
        _, metrics = finetune_classify(params, data, 1, vocab,
                                       FinetuneConfig(epochs=1, batch_size=4))
        assert metrics[0]["mcc"] == 0.0

    def test_separable_dataset_high_mcc(self):
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2,
                          hidden_dim=16, ff_dim=32, max_len=32, dtype="float32", seed=3)
        params = init_model(cfg)
        data = make_separable_dataset()
        _, metrics = finetune_classify(
            params, data, 2, vocab,
            FinetuneConfig(epochs=5, lr=1e-2, batch_size=16, seed=1),
        )
        assert metrics[-1]["mcc"] >= 0.9

    def test_frozen_and_full_modes_both_run(self):
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2,
                          hidden_dim=8, ff_dim=16, max_len=16, dtype="float32", seed=0)
        data = make_separable_dataset(6)
        for frozen in (True, False):
            params = init_model(cfg)
            before = params["layer0.wq"].copy()
            _, metrics = finetune_classify(
                params, data, 2, vocab,
                FinetuneConfig(epochs=1, batch_size=8, freeze_backbone=frozen),
            )
            assert len(metrics) == 1 and {"epoch", "loss", "mcc"} <= set(metrics[0])
            assert np.array_equal(params["layer0.wq"], before) == frozen

    @staticmethod
    def _assert_rejected_untouched(error, config, extra=()):
        # A head resize is pending (2 -> 3 classes) when the call is rejected.
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2,
                          hidden_dim=8, ff_dim=16, max_len=16, num_classes=2,
                          dtype="float32", seed=0)
        params = init_model(cfg)
        data = [LabeledExample(DnaSequence("a", "ACGTACGT"), i % 3) for i in range(9)]
        before = {k: a.tobytes() for k, a in params.arrays.items()}
        with pytest.raises(error):
            finetune_classify(params, data + list(extra), 3, vocab, config)
        assert params.config == cfg
        assert {k: a.tobytes() for k, a in params.arrays.items()} == before

    @pytest.mark.parametrize(
        "bad", [{"lr": -1.0}, {"beta1": 1.0}, {"beta2": -0.1}, {"weight_decay": -0.1}]
    )
    def test_optimizer_settings_checked(self, bad):
        self._assert_rejected_untouched(ConfigInvalid, FinetuneConfig(epochs=1, **bad))

    def test_unframeable_example_leaves_params_untouched(self):
        short = LabeledExample(DnaSequence("b", "AC"), 0)
        self._assert_rejected_untouched(SequenceTooShort, FinetuneConfig(epochs=1), [short])

    def test_head_resized_for_class_count(self):
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2,
                          hidden_dim=8, ff_dim=16, max_len=16, num_classes=2,
                          dtype="float32", seed=0)
        params = init_model(cfg)
        data = [
            LabeledExample(DnaSequence("a", "ACGTACGT"), i % 3) for i in range(9)
        ]
        _, _ = finetune_classify(params, data, 3, vocab, FinetuneConfig(epochs=1))
        assert params.config.num_classes == 3
        assert params["cls_w"].shape == (8, 3)


class TestPredictClasses:
    def test_matches_full_forward_on_padded_mixed_lengths(self):
        cfg = tiny_config(num_classes=3, dtype="float32", seed=4)
        params = init_model(cfg)
        rng = np.random.default_rng(8)
        lengths = [16, 3, 9, 12, 5, 1, 16, 7]
        ids = np.zeros((len(lengths), 16), dtype=np.int64)
        real = np.zeros((len(lengths), 16), dtype=bool)
        for row, n in enumerate(lengths):
            ids[row, :n] = rng.integers(5, cfg.vocab_size, size=n)
            real[row, :n] = True
        trace = forward(params, ids, real)
        want = (trace.hidden[:, 0, :] @ params["cls_w"] + params["cls_b"]).argmax(-1)
        for batch_size in (256, 3, 1):
            got = predict_classes(params, ids, real, batch_size=batch_size)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert len(set(want.tolist())) > 1  # the check compares distinct classes

    def test_input_checks_kept(self):
        params = init_model(tiny_config())
        ids = np.full((2, 4), 5, dtype=np.int64)
        with pytest.raises(ConfigInvalid):
            predict_classes(params, ids, np.zeros((2, 4), dtype=bool))
        with pytest.raises(ConfigInvalid):
            predict_classes(params, ids, np.ones((2, 5), dtype=bool))
        with pytest.raises(ConfigInvalid):
            predict_classes(params, np.full((2, 4), 99, dtype=np.int64), np.ones((2, 4), bool))

    def test_input_checks_see_the_padded_tail(self):
        """The checks run on the whole batch, not on the width it is cut to."""
        params = init_model(tiny_config(max_len=16))
        real = np.zeros((2, 16), dtype=bool)
        real[:, :3] = True
        ids = np.full((2, 16), 5, dtype=np.int64)
        ids[1, 12] = 99  # outside the vocabulary, in a padded position
        with pytest.raises(ConfigInvalid, match="vocabulary"):
            predict_classes(params, ids, real)
        wide = np.zeros((2, 20), dtype=bool)
        wide[:, :3] = True
        with pytest.raises(LengthExceeded):
            predict_classes(params, np.full((2, 20), 5, dtype=np.int64), wide)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        params = init_model(tiny_config())
        ids = np.full((2, 4), 5, dtype=np.int64)
        with pytest.raises(ConfigInvalid, match="batch_size"):
            predict_classes(params, ids, np.ones((2, 4), bool), batch_size=batch_size)

    def test_zero_rows_give_an_empty_array(self):
        params = init_model(tiny_config())
        got = predict_classes(params, np.zeros((0, 8), np.int64), np.zeros((0, 8), bool))
        assert got.shape == (0,) and got.dtype == np.int64


def _mixed_rows(length: int, vocab_size: int, seed: int):
    """Rows of many real lengths, some shorter than 8, one with a hole in its mask."""
    rng = np.random.default_rng(seed)
    lengths = [length, 1, 5, 7, 8, 9, max(1, length - 1), length // 2 + 1]
    lengths += rng.integers(1, length + 1, size=6).tolist()
    ids = np.zeros((len(lengths), length), dtype=np.int64)
    real = np.zeros((len(lengths), length), dtype=bool)
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(5, vocab_size, size=n)
        real[row, :n] = True
    real[0, 1:3] = False  # a non-prefix mask: real positions after a hole
    real[6, length // 3] = False
    return ids, real


class TestLengthBuckets:
    """``predict_classes`` cuts rows to exact widths; its values equal the padded pass."""

    @classmethod
    def _bucketed_model(cls, length, hidden_dim, num_layers=2):
        """A model and mixed rows; the head's bias centres each class's logits
        over the rows, so that the rows fall in more than one class."""
        vocab = build_vocab(3)
        cfg = ModelConfig(vocab_size=vocab.size, num_layers=num_layers, num_heads=2,
                          hidden_dim=hidden_dim, ff_dim=32, max_len=length, num_classes=3,
                          dtype="float32", seed=length)
        params = init_model(cfg)
        ids, real = _mixed_rows(length, vocab.size, seed=length)
        params["cls_b"] = -cls._padded_pass(params, ids, real).mean(0)
        return params, ids, real

    @staticmethod
    def _padded_pass(params, ids, real):
        hidden, _layers = _encode(params, ids, real)
        return _class_head(params, hidden[:, 0, :])

    def _assert_equal_to_padded_pass(self, params, ids, real, monkeypatch):
        """Every batch size and a shuffled order give the padded pass's bits;
        returns (width, last-layer query rows) of each encoder call."""
        want = self._padded_pass(params, ids, real)
        assert len(set(want.argmax(-1).tolist())) > 1  # distinct classes are compared
        order = np.random.default_rng(1).permutation(ids.shape[0])
        want_shuffled = self._padded_pass(params, ids[order], real[order])

        runs = []

        def spy(params, ids, real, *queries):
            hidden, layers = _encode(params, ids, real, *queries)
            runs.append((ids.shape[1], hidden.shape[1]))
            return hidden, layers

        monkeypatch.setattr(training, "_encode", spy)
        for batch_size in (1, 3, 256):
            got = _class_logits(params, ids, real, batch_size)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(predict_classes(params, ids, real, batch_size),
                                  want.argmax(-1))
            shuffled = _class_logits(params, ids[order], real[order], batch_size)
            assert shuffled.tobytes() == want_shuffled.tobytes()
            assert np.array_equal(shuffled.argmax(-1), want.argmax(-1)[order])
        return runs

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("hidden_dim", [32, 16, 48, 64])  # head widths 16, 8, 24 and 32
    @pytest.mark.parametrize("length", [16, 45, 128, 512])
    def test_logits_equal_the_padded_pass(self, length, hidden_dim, num_layers, monkeypatch):
        params, ids, real = self._bucketed_model(length, hidden_dim, num_layers)
        runs = self._assert_equal_to_padded_pass(params, ids, real, monkeypatch)
        widths = [width for width, _rows in runs]
        assert set(widths) <= set(_cut_widths(params, length))
        if hidden_dim in (32, 16):
            assert min(widths) < length  # rows were cut, not run at the padded width

    @pytest.mark.parametrize("hidden_dim", [32, 48, 64])
    @pytest.mark.parametrize("length", [16, 45, 128, 512])
    def test_last_layer_runs_the_allowed_query_rows(self, length, hidden_dim, monkeypatch):
        """The last layer computes min(8, width) query rows where the check
        found that block exact, and every position where it did not."""
        params, ids, real = self._bucketed_model(length, hidden_dim)
        kept = _cut_widths(params, length)
        for width, rows in kept.items():
            assert rows in (min(8, width), width)
        runs = self._assert_equal_to_padded_pass(params, ids, real, monkeypatch)
        for width, rows in runs:
            assert rows == kept[width]
        if (length, hidden_dim) == (128, 32):  # the classify benchmark's head width and length
            assert any(rows == 8 < width for width, rows in kept.items())
            assert any(rows == 8 < width for width, rows in runs)  # the block ran

    @pytest.mark.parametrize("length", [45, 512])
    def test_refused_query_block_runs_every_position(self, length, monkeypatch):
        params, ids, real = self._bucketed_model(length, 32)
        refused = {width: width for width in _cut_widths(params, length)}
        monkeypatch.setattr(training, "_cut_widths", lambda params, length: refused)
        runs = self._assert_equal_to_padded_pass(params, ids, real, monkeypatch)
        assert all(rows == width for width, rows in runs)
        assert any(rows > 8 for _width, rows in runs)

    def test_query_block_is_the_first_rows_of_the_full_layer(self):
        """In value; its bits are checked where ``_cut_widths`` allows the block."""
        params, ids, real = self._bucketed_model(45, 32)
        full, _layers = _encode(params, ids, real)
        block, _layers = _encode(params, ids, real, 8)
        assert block.shape == (ids.shape[0], 8, 32)
        np.testing.assert_allclose(block, full[:, :8], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("length", [5, 45, 200])
    def test_cut_widths_are_checked_exact_widths(self, length):
        params = init_model(tiny_config(hidden_dim=16, max_len=length, dtype="float32"))
        kept = _cut_widths(params, length)
        assert set(kept) <= set(_exact_widths(length))
        assert list(kept)[-1] == length  # the padded width itself always qualifies
        assert _cut_widths(params, length) is kept  # checked once per process

    def test_exact_widths(self):
        assert _exact_widths(5) == [5]
        assert _exact_widths(16) == [8, 16]
        assert _exact_widths(45) == [8, 16, 24, 32, 40, 45]
        assert _exact_widths(512) == list(range(8, 129, 8)) + [256, 512]
        assert _exact_widths(200) == list(range(8, 97, 8)) + [200]

    @pytest.mark.parametrize("length", [16, 45, 128, 129, 200, 512])
    def test_zero_padded_sum_is_unchanged_at_exact_widths(self, length):
        """A zero-padded float32 row sums to the same bits at each exact width;
        cut anywhere else, some sums change."""
        rng = np.random.default_rng(length)
        exact = _exact_widths(length)
        moved = 0
        for width in range(1, length + 1):
            for _ in range(8):
                row = np.zeros(length, dtype=np.float32)
                row[:width] = rng.random(width, dtype=np.float32) + 0.5
                same = row[:width].sum().tobytes() == row.sum().tobytes()
                if width in exact:
                    assert same, f"width {width} of {length}"
                else:
                    moved += not same
        assert moved > 0


# Every row's classifier logits, for three head layouts (hidden width, heads,
# classes): computed alone, then compared byte for byte in the whole batch
# at three encoder batch sizes, shuffled, and in every prefix of 1 to 256
# rows.  Exits 1 at the first difference; prints a digest of the logits.
_HEAD_INVARIANCE = """
import hashlib, sys
import numpy as np
from dnamlm.model import ModelConfig, init_model
from dnamlm.model.training import _class_logits
digest = hashlib.sha256()
for hidden, heads, classes in ((16, 2, 2), (64, 4, 3), (128, 4, 7)):
    cfg = ModelConfig(vocab_size=40, num_layers=1, num_heads=heads, hidden_dim=hidden,
                      ff_dim=32, max_len=16, num_classes=classes, dtype="float32",
                      seed=hidden)
    params = init_model(cfg)
    rng = np.random.default_rng(hidden)
    ids = rng.integers(5, cfg.vocab_size, size=(256, 16))
    real = np.arange(16) < rng.integers(1, 17, size=(256, 1))
    alone = np.concatenate([_class_logits(params, ids[i:i + 1], real[i:i + 1], 1)
                            for i in range(256)])
    runs = {f"batch_size {b}": (_class_logits(params, ids, real, b), alone)
            for b in (1, 7, 256)}
    order = rng.permutation(256)
    runs["shuffled"] = (_class_logits(params, ids[order], real[order], 256), alone[order])
    for n in range(1, 257):
        runs[f"{n} rows"] = (_class_logits(params, ids[:n], real[:n], 256), alone[:n])
    for name, (got, want) in runs.items():
        if got.tobytes() != want.tobytes():
            sys.exit(f"hidden {hidden}, {classes} classes: {name} differs from rows alone")
    digest.update(alone.tobytes())
print(digest.hexdigest())
"""


def test_class_logits_of_a_row_do_not_depend_on_its_batch():
    """A row's logits are its own: alone, batched, shuffled, at 1 and 2 BLAS threads."""
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _HEAD_INVARIANCE],
            capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                     PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
