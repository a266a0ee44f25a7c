import itertools
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from dnamlm.analysis import (
    ConfusionCounts,
    RunReport,
    StepRecord,
    attention_cls_mass,
    attention_entropy,
    dinucleotide_groups,
    embedding_silhouette,
    emit_report,
    mcc,
    multiclass_mcc,
    stage_jump_detector,
)
from dnamlm.errors import (
    ConfigInvalid,
    InsufficientHistory,
    KNotSix,
    LengthMismatch,
    NoMaskedPositions,
)
from dnamlm.masking import MaskSchedule


def confusion(labels, preds):
    """Binary confusion counts of label/prediction lists."""
    pairs = list(zip(labels, preds))
    return ConfusionCounts(
        tp=pairs.count((1, 1)), tn=pairs.count((0, 0)),
        fp=pairs.count((0, 1)), fn=pairs.count((1, 0)),
    )


class TestMcc:
    def test_reference_cases(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == pytest.approx(-1.0, abs=1e-12)
        assert mcc(ConfusionCounts(1, 1, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_denominator_convention(self):
        assert mcc(ConfusionCounts(3, 0, 0, 0)) == 0.0
        assert mcc(ConfusionCounts(0, 0, 0, 0)) == 0.0

    def test_label_swap_symmetry_exhaustive(self):
        for tp, tn, fp, fn in itertools.product(range(7), repeat=4):
            a = mcc(ConfusionCounts(tp, tn, fp, fn))
            b = mcc(ConfusionCounts(tn, tp, fn, fp))
            assert abs(a - b) <= 1e-12

    def test_count_scale_invariance_exhaustive(self):
        for tp, tn, fp, fn in itertools.product(range(7), repeat=4):
            base = mcc(ConfusionCounts(tp, tn, fp, fn))
            for c in (2, 3):
                scaled = mcc(ConfusionCounts(c * tp, c * tn, c * fp, c * fn))
                assert abs(base - scaled) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            counts = ConfusionCounts(*rng.integers(0, 40, size=4).tolist())
            assert -1.0 - 1e-12 <= mcc(counts) <= 1.0 + 1e-12

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigInvalid):
            ConfusionCounts(-1, 0, 0, 0)

    def test_sklearn_cross_check(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.integers(0, 2, size=30)
            p = rng.integers(0, 2, size=30)
            ours = mcc(confusion(y.tolist(), p.tolist()))
            theirs = sk.matthews_corrcoef(y, p)
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestMulticlassMcc:
    def test_perfect_binary(self):
        labels = [1] * 5 + [0] * 5
        assert multiclass_mcc(labels, labels) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_any_class_count(self):
        labels = [0, 1, 2, 3, 2, 1, 0, 3]
        assert multiclass_mcc(labels, labels) == pytest.approx(1.0, abs=1e-12)

    def test_binary_reduction_exhaustive(self):
        # every (labels, preds) pair over 6 items / 2 classes
        for labels in itertools.product((0, 1), repeat=6):
            for preds in itertools.product((0, 1), repeat=6):
                lst = multiclass_mcc(list(labels), list(preds))
                conf = mcc(confusion(labels, preds))
                assert abs(lst - conf) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            multiclass_mcc([0, 1], [0])

    def test_single_class_zero(self):
        assert multiclass_mcc([0, 0, 0], [0, 0, 0]) == 0.0

    def test_sklearn_cross_check_multiclass(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.integers(0, 4, size=40)
            p = rng.integers(0, 4, size=40)
            assert multiclass_mcc(y.tolist(), p.tolist()) == pytest.approx(
                sk.matthews_corrcoef(y, p), abs=1e-12
            )


class TestAttentionMetrics:
    def test_uniform_attention_mass_is_one_over_n(self):
        b, h, l = 2, 3, 10
        attn = np.full((2, b, h, l, l), 1.0 / l)
        real = np.ones((b, l), bool)
        masked = np.zeros((b, l), bool)
        masked[:, 4] = True
        out = attention_cls_mass(attn, real, masked)
        assert np.allclose(out, 1.0 / l, atol=1e-12)
        ent = attention_entropy(attn, real, masked)
        assert np.allclose(ent, math.log(l), atol=1e-9)

    def test_one_hot_on_cls(self):
        b, h, l = 1, 2, 6
        attn = np.zeros((3, b, h, l, l))
        attn[..., 0] = 1.0
        real = np.ones((b, l), bool)
        masked = np.zeros((b, l), bool)
        masked[0, 3] = True
        assert np.allclose(attention_cls_mass(attn, real, masked), 1.0)
        assert np.allclose(attention_entropy(attn, real, masked), 0.0, atol=1e-12)

    def test_no_masked_positions(self):
        attn = np.full((1, 1, 1, 4, 4), 0.25)
        real = np.ones((1, 4), bool)
        with pytest.raises(NoMaskedPositions):
            attention_cls_mass(attn, real, np.zeros((1, 4), bool))

    def test_entropy_bound_per_row(self):
        rng = np.random.default_rng(3)
        b, h, l = 3, 2, 12
        raw = rng.random((2, b, h, l, l))
        real = np.ones((b, l), bool)
        real[1, 9:] = False
        raw[:, 1, :, :, 9:] = 0.0
        attn = raw / raw.sum(-1, keepdims=True)
        masked = np.zeros((b, l), bool)
        masked[:, 2] = True
        ent = attention_entropy(attn, real, masked)
        assert (ent <= math.log(l) + 1e-9).all()
        assert (ent >= 0.0).all()

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (1, 4)])
    def test_masked_must_match_the_padding_mask(self, shape):
        attn = np.full((1, 1, 1, 5, 5), 0.2)
        real = np.ones((1, 5), bool)
        with pytest.raises(ConfigInvalid, match="masked shape"):
            attention_cls_mass(attn, real, np.ones(shape, bool))

    def test_averages_only_over_masked_real_queries(self):
        b, h, l = 1, 1, 5
        attn = np.full((1, b, h, l, l), 1.0 / l)
        attn[0, 0, 0, 2] = np.eye(l)[0]  # masked query 2 is one-hot on CLS
        real = np.ones((b, l), bool)
        masked = np.zeros((b, l), bool)
        masked[0, 2] = True
        assert attention_cls_mass(attn, real, masked)[0] == pytest.approx(1.0)


class TestEmbeddingSilhouette:
    def test_constructed_tight_blobs_score_high(self):
        rng = np.random.default_rng(4)
        groups = dinucleotide_groups()
        emb = np.zeros((4096, 16))
        emb[np.arange(4096), groups] = 10.0
        emb += rng.normal(scale=0.01, size=emb.shape)
        assert embedding_silhouette(emb) > 0.9

    def test_identical_embeddings_zero(self):
        assert embedding_silhouette(np.ones((4096, 8))) == 0.0

    def test_random_gaussian_near_zero(self):
        for seed in range(10):
            emb = np.random.default_rng(seed).normal(size=(4096, 16))
            assert abs(embedding_silhouette(emb)) < 0.05

    def test_wrong_shape_rejected(self):
        with pytest.raises(KNotSix):
            embedding_silhouette(np.zeros((256, 8)))

    @staticmethod
    def full_matrix_silhouette(embeddings):
        """The silhouette from the whole 4096 x 4096 distance matrix at once."""
        emb = np.asarray(embeddings, dtype=np.float64)
        groups = dinucleotide_groups()
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        unit = np.divide(emb, norms, out=np.zeros_like(emb), where=norms > 0)
        dist = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
        onehot = np.zeros((4096, 16))
        onehot[np.arange(4096), groups] = 1.0
        counts = onehot.sum(0)
        sums = dist @ onehot
        rows = np.arange(4096)
        a = (sums[rows, groups] - np.diag(dist)) / (counts[groups] - 1.0)
        mean_other = sums / counts
        mean_other[rows, groups] = np.inf
        b = mean_other.min(axis=1)
        denom = np.maximum(a, b)
        return float(np.divide(b - a, denom, out=np.zeros_like(a), where=denom > 0).mean())

    @pytest.mark.parametrize("kind", ["random", "clustered", "all_ones", "near_duplicate",
                                      "zero_row"])
    def test_blocks_equal_the_full_matrix(self, kind):
        rng = np.random.default_rng(6)
        if kind == "random":
            emb = rng.normal(size=(4096, 64)).astype(np.float32)
        elif kind == "clustered":
            emb = rng.normal(size=(4096, 64)) + 2.0 * np.eye(64)[dinucleotide_groups()]
        elif kind == "all_ones":
            emb = np.ones((4096, 64))
        elif kind == "near_duplicate":
            emb = rng.normal(size=64) + 1e-9 * rng.normal(size=(4096, 64))
        else:
            emb = rng.normal(size=(4096, 64))
            emb[17] = 0.0
        assert embedding_silhouette(emb) == self.full_matrix_silhouette(emb)

    def test_peak_memory_is_one_block(self):
        emb = np.random.default_rng(7).normal(size=(4096, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            embedding_silhouette(emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full 4096 x 4096 float64 distance matrix alone is 128 MB
        assert peak < 64 * 2**20

    def test_sklearn_cross_check(self):
        skm = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(5)
        groups = dinucleotide_groups()
        emb = rng.normal(size=(4096, 12)) + 0.8 * np.eye(16)[groups][:, :12]
        ours = embedding_silhouette(emb)
        theirs = skm.silhouette_score(emb, groups, metric="cosine")
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_groups_partition(self):
        groups = dinucleotide_groups()
        counts = np.bincount(groups)
        assert counts.shape == (16,) and (counts == 256).all()

    def test_groups_are_central_dinucleotide_rank(self):
        # Written out independently: 6-mers and dinucleotides in lex order.
        pairs = ["".join(p) for p in itertools.product("ACGT", repeat=2)]
        kmers = ["".join(p) for p in itertools.product("ACGT", repeat=6)]
        want = [pairs.index(kmer[2:4]) for kmer in kmers]
        groups = dinucleotide_groups()
        assert groups.dtype == np.int64 and groups.tolist() == want


class TestStageJumpDetector:
    def schedule(self):
        return MaskSchedule(total_steps=1000)  # boundaries 60,120,200,300,1000

    def test_injected_step_up_detected(self):
        sched = self.schedule()
        steps = list(range(1, 1001))
        losses = [4.0 if s <= 200 else 4.5 for s in steps]
        jumps = {j.boundary: j
                 for j in stage_jump_detector(steps, losses, sched, window=50)}
        assert jumps[200].jump == pytest.approx(0.5)
        assert jumps[60].jump == pytest.approx(0.0)
        assert jumps[120].jump == pytest.approx(0.0)
        assert jumps[300].jump == pytest.approx(0.0)

    def test_constant_series_zero_jump(self):
        sched = self.schedule()
        steps = list(range(1, 1001))
        jumps = stage_jump_detector(steps, [2.5] * 1000, sched, window=50)
        assert len(jumps) == 4
        assert all(j.jump == 0.0 for j in jumps)

    def test_window_means(self):
        sched = self.schedule()
        steps = list(range(1, 501))
        losses = [float(s) for s in steps]
        jumps = {j.boundary: j for j in stage_jump_detector(steps, losses, sched, window=10)}
        assert jumps[60].pre_mean == pytest.approx(np.mean(range(51, 61)))
        assert jumps[60].post_mean == pytest.approx(np.mean(range(61, 71)))

    def test_partial_history_skips_uncovered(self):
        # needs a full window on both sides of a boundary to count it
        sched = self.schedule()
        steps = list(range(1, 151))
        jumps = stage_jump_detector(steps, [1.0] * 150, sched, window=30)
        assert [j.boundary for j in jumps] == [60, 120]

    def test_insufficient_history(self):
        sched = self.schedule()
        with pytest.raises(InsufficientHistory):
            stage_jump_detector([1, 2, 3], [1.0, 1.0, 1.0], sched)


class TestRunReport:
    def make_report(self) -> RunReport:
        return RunReport(
            config={"training": {"seed": 3}},
            seeds={"root": 3},
            stage_boundaries=[60, 120, 200, 300, 1000],
            records=[
                StepRecord(step=1, stage=0, widths=[6], loss=8.25),
                StepRecord(step=2, stage=0, widths=[6], loss=8.0624),
                StepRecord(step=61, stage=1, widths=[6, 8], loss=7.5),
            ],
            attention={"cls_mass": [0.1, 0.2], "entropy": [3.0, 2.5]},
            silhouette=0.01,
        )

    def test_round_trip(self):
        report = self.make_report()
        assert json.loads(report.to_json()) == asdict(report)

    def test_empty_run_valid(self):
        report = RunReport(config={}, seeds={}, stage_boundaries=[10], records=[])
        assert json.loads(report.to_json()) == asdict(report)

    def test_csv_header_and_rows(self):
        csv_text = self.make_report().loss_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "step,loss,stage,width_max"
        assert lines[1] == "1,8.25,0,6"
        assert lines[3] == "61,7.5,1,8"

    def test_steps_must_increase(self):
        with pytest.raises(ConfigInvalid):
            RunReport(
                config={}, seeds={}, stage_boundaries=[1],
                records=[
                    StepRecord(step=2, stage=0, widths=[6], loss=1.0),
                    StepRecord(step=1, stage=0, widths=[6], loss=1.0),
                ],
            )

    def test_emit_and_load(self, tmp_path):
        report = self.make_report()
        json_path, csv_path = emit_report(report, str(tmp_path / "run"))
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh) == asdict(report)
        text = open(csv_path, encoding="utf-8").read()
        assert text.startswith("step,loss,stage,width_max\n")

    def test_emit_deterministic_bytes(self, tmp_path):
        report = self.make_report()
        p1, c1 = emit_report(report, str(tmp_path / "a"))
        p2, c2 = emit_report(report, str(tmp_path / "b"))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(c1, "rb").read() == open(c2, "rb").read()
