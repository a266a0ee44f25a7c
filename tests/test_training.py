import numpy as np
import pytest

from dnamlm.corpus import DnaSequence, LabeledExample
from dnamlm.errors import ConfigInvalid, EmptyDataset, NonFiniteLoss, SequenceTooShort
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
from dnamlm.model.training import FinetuneConfig, finetune_classify, predict_classes
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
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = tiny_config(dtype="float32")
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
        want = (trace.pooled @ params["cls_w"] + params["cls_b"]).argmax(-1)
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
