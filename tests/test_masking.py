import math

import numpy as np
import pytest

from dnamlm.errors import ConfigInvalid, IndexOutOfFrame, StepOutOfRange
from dnamlm.masking import (
    CorruptionPolicy,
    IGNORE_LABEL,
    MaskSchedule,
    allowed_widths,
    apply_corruption,
    expected_mask_fraction,
    plan_mask,
    span_length_histogram,
)
from dnamlm.rng import split
from dnamlm.tokenizer import MASK_ID, build_vocab

#: The paper's 500k-step schedule.
REFERENCE_SCHEDULE = MaskSchedule(total_steps=500_000)


class ForcedRng:
    """Stub generator: fixed width index and an explicit trigger set."""

    def __init__(self, centers, width_index=0):
        self.centers = set(centers)
        self.width_index = width_index

    def integers(self, low, high=None):
        return self.width_index

    def random(self, n=None):
        if n is None:
            return 0.99
        r = np.ones(n)
        r[list(self.centers)] = 0.0
        return r


class TestSchedule:
    def test_reference_boundaries(self):
        assert REFERENCE_SCHEDULE.boundaries() == [30_000, 60_000, 100_000, 150_000, 500_000]

    def test_stage_table_exact(self):
        cases = [
            (1, [6]), (15_000, [6]), (30_000, [6]),
            (30_001, [6, 8]), (45_000, [6, 8]), (60_000, [6, 8]),
            (60_001, [6, 8, 10]), (100_000, [6, 8, 10]),
            (100_001, [6, 8, 10, 12]), (150_000, [6, 8, 10, 12]),
            (150_001, [6, 8, 10, 12, 14]), (200_000, [6, 8, 10, 12, 14]),
            (500_000, [6, 8, 10, 12, 14]),
        ]
        for step, widths in cases:
            assert allowed_widths(step, REFERENCE_SCHEDULE) == widths

    def test_scaled_fractions(self):
        sched = MaskSchedule(total_steps=10_000)
        assert sched.boundaries() == [600, 1200, 2000, 3000, 10_000]
        assert allowed_widths(600, sched) == [6]
        assert allowed_widths(601, sched) == [6, 8]
        assert allowed_widths(3001, sched) == [6, 8, 10, 12, 14]

    def test_step_below_one_rejected(self):
        with pytest.raises(StepOutOfRange):
            allowed_widths(0, REFERENCE_SCHEDULE)

    def test_step_beyond_total_clamps_to_final_stage(self):
        assert allowed_widths(600_000, REFERENCE_SCHEDULE) == [6, 8, 10, 12, 14]

    def test_curriculum_monotonicity(self):
        rng = np.random.default_rng(0)
        steps = np.sort(rng.integers(1, 500_001, size=60))
        for s1, s2 in zip(steps, steps[1:]):
            w1 = set(allowed_widths(int(s1), REFERENCE_SCHEDULE))
            w2 = set(allowed_widths(int(s2), REFERENCE_SCHEDULE))
            assert w1 <= w2

    def test_schedule_validation(self):
        with pytest.raises(ConfigInvalid):
            MaskSchedule(total_steps=100, stage_fractions=(0.5, 0.4, 1.0))
        with pytest.raises(ConfigInvalid):
            MaskSchedule(total_steps=100, stage_fractions=(0.5, 0.9))
        with pytest.raises(ConfigInvalid):
            MaskSchedule(total_steps=100, base_width=5)


class TestPlanMask:
    def test_hand_trace_center_10(self):
        plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({10}))
        assert plan.mask_ids.tolist() == [8, 9, 10, 11, 12, 13]
        assert plan.width_m == 6

    def test_hand_trace_center_0_clipped(self):
        plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({0}))
        assert plan.mask_ids.tolist() == [0, 1, 2, 3]

    def test_right_edge_clipped(self):
        plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({19}))
        assert plan.mask_ids.tolist() == [17, 18, 19]

    def test_p_zero_empty(self):
        plan = plan_mask(64, 1, 0.0, REFERENCE_SCHEDULE, split(0, 1))
        assert plan.mask_ids.size == 0

    def test_p_one_masks_everything(self):
        plan = plan_mask(64, 1, 1.0, REFERENCE_SCHEDULE, split(0, 2))
        assert plan.mask_ids.tolist() == list(range(64))

    def test_span_size_and_trigger_inside(self):
        # unclipped span has exactly m indices and contains the trigger
        for m_index, step in ((0, 1), (4, 400_000)):
            widths = allowed_widths(step, REFERENCE_SCHEDULE)
            m = widths[min(m_index, len(widths) - 1)]
            center = 40
            plan = plan_mask(80, step, 0.5, REFERENCE_SCHEDULE, ForcedRng({center}, m_index))
            assert plan.width_m == m
            assert plan.mask_ids.size == m
            assert center in plan.mask_ids

    def test_union_property_random_trigger_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            seq_len = int(rng.integers(8, 80))
            n_trig = int(rng.integers(0, 6))
            centers = set(rng.integers(0, seq_len, size=n_trig).tolist())
            width_index = int(rng.integers(0, 5))
            joint = plan_mask(seq_len, 400_000, 0.5, REFERENCE_SCHEDULE,
                              ForcedRng(centers, width_index))
            union = set()
            for c in centers:
                single = plan_mask(seq_len, 400_000, 0.5, REFERENCE_SCHEDULE,
                                   ForcedRng({c}, width_index))
                union |= set(single.mask_ids.tolist())
            assert set(joint.mask_ids.tolist()) == union

    def test_exclusion_mask_removed_after_union(self):
        exclude = np.zeros(20, bool)
        exclude[[0, 9]] = True
        plan = plan_mask(20, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({10}), exclude)
        assert plan.mask_ids.tolist() == [8, 10, 11, 12, 13]

    def test_determinism_same_key(self):
        a = plan_mask(128, 42, 0.1, REFERENCE_SCHEDULE, split(3, 3, 42, 0))
        b = plan_mask(128, 42, 0.1, REFERENCE_SCHEDULE, split(3, 3, 42, 0))
        assert a.mask_ids.tolist() == b.mask_ids.tolist()
        assert a.width_m == b.width_m

    def test_width_uniform_over_stage_set(self):
        sched = MaskSchedule(total_steps=100)
        counts: dict[int, int] = {}
        for i in range(4000):
            plan = plan_mask(16, 100, 0.0, sched, split(9, i))
            counts[plan.width_m] = counts.get(plan.width_m, 0) + 1
        assert set(counts) == {6, 8, 10, 12, 14}
        expected = 4000 / 5
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 25  # chi-square(4) 99.99th percentile ~ 23.5


def one_stage(k=6, total_steps=1):
    """The fixed-width baseline's schedule: one stage whose only width is k."""
    return MaskSchedule(total_steps=total_steps, stage_fractions=(1.0,), base_width=k)


class TestBaseline:
    def test_hand_trace(self):
        plan = plan_mask(20, 1, 0.5, one_stage(), ForcedRng({10}))
        assert plan.mask_ids.tolist() == [8, 9, 10, 11, 12, 13]

    def test_p_zero(self):
        assert plan_mask(64, 1, 0.0, one_stage(), split(1, 5)).mask_ids.size == 0

    def test_equivalence_with_degenerate_schedule(self):
        # a run-length one-stage schedule draws, at any step, what the
        # one-step schedule draws at step 1
        degenerate = MaskSchedule(total_steps=1000, stage_fractions=(1.0,))
        for i in range(50):
            a = plan_mask(48, 1, 0.1, one_stage(), split(2, 7, i))
            b = plan_mask(48, 1 + 37 * i, 0.1, degenerate, split(2, 7, i))
            assert a.mask_ids.tolist() == b.mask_ids.tolist()
            assert a.width_m == b.width_m == 6

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigInvalid):
            plan_mask(20, 1, 0.1, one_stage(5), split(0, 0))


class TestExpectedMaskFraction:
    def test_interior_closed_form(self):
        e = expected_mask_fraction(0.025, 6, 512)
        assert e.interior == pytest.approx(1 - 0.975 ** 6, abs=1e-12)

    def test_p_zero_and_one(self):
        assert expected_mask_fraction(0.0, 8, 64).interior == 0.0
        assert expected_mask_fraction(0.0, 8, 64).sequence_average == 0.0
        assert expected_mask_fraction(1.0, 8, 64).interior == 1.0
        assert expected_mask_fraction(1.0, 8, 64).sequence_average == 1.0

    def test_monte_carlo_cross_check_per_position(self):
        # per-position masked frequency over many independent plans matches
        # the exact per-position probability the closed form integrates
        p, m, seq_len, n = 0.05, 8, 40, 120_000
        sched = MaskSchedule(total_steps=10, stage_fractions=(1.0,), base_width=m)
        hits = np.zeros(seq_len)
        for i in range(n):
            plan = plan_mask(seq_len, 1, p, sched, split(13, i))
            hits[plan.mask_ids] += 1
        emp_avg = hits.mean() / n
        expected = expected_mask_fraction(p, m, seq_len)
        assert emp_avg == pytest.approx(expected.sequence_average, abs=0.002)
        # positions whose m potential centers all lie inside the sequence
        interior = np.arange(m // 2, seq_len - m // 2 + 1)
        emp_interior = hits[interior].mean() / n
        assert emp_interior == pytest.approx(expected.interior, abs=0.002)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            expected_mask_fraction(0.1, 5, 64)
        with pytest.raises(ConfigInvalid):
            expected_mask_fraction(0.1, 8, 6)


class TestCorruption:
    def setup_method(self):
        self.vocab = build_vocab(3)

    def test_empty_plan_is_identity(self):
        ids = np.array([2, 7, 8, 9, 3], dtype=np.int64)
        plan = plan_mask(5, 1, 0.0, REFERENCE_SCHEDULE, split(0, 4))
        out, labels = apply_corruption(ids, plan, CorruptionPolicy(), self.vocab, split(0, 5))
        assert out.tolist() == ids.tolist()
        assert (labels == IGNORE_LABEL).all()

    def test_pure_mask_policy(self):
        ids = np.array([2, 7, 8, 9, 3], dtype=np.int64)
        plan = plan_mask(5, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({2, 3}))
        plan.mask_ids = np.array([2, 3])
        out, labels = apply_corruption(ids, plan, CorruptionPolicy(1.0, 0.0, 0.0), self.vocab, split(0, 6))
        assert out.tolist() == [2, 7, MASK_ID, MASK_ID, 3]
        assert labels.tolist() == [IGNORE_LABEL, IGNORE_LABEL, 8, 9, IGNORE_LABEL]

    def test_keep_policy_still_labels(self):
        ids = np.array([2, 7, 8, 9, 3], dtype=np.int64)
        plan = plan_mask(5, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({2}))
        plan.mask_ids = np.array([2, 3])
        out, labels = apply_corruption(
            ids, plan, CorruptionPolicy(p_mask=0.0, p_random=0.0, p_keep=1.0),
            self.vocab, split(0, 7),
        )
        assert out.tolist() == ids.tolist()
        assert labels.tolist() == [IGNORE_LABEL, IGNORE_LABEL, 8, 9, IGNORE_LABEL]

    def test_random_replacement_only_kmer_ids(self):
        ids = np.full(200, 10, dtype=np.int64)
        plan = plan_mask(200, 1, 1.0, REFERENCE_SCHEDULE, split(0, 8))
        out, _ = apply_corruption(
            ids, plan, CorruptionPolicy(p_mask=0.0, p_random=1.0, p_keep=0.0),
            self.vocab, split(0, 9),
        )
        assert out.min() >= self.vocab.first_kmer_id
        assert out.max() < self.vocab.size

    def test_corruption_mix_statistics(self):
        ids = np.full(30_000, 10, dtype=np.int64)
        plan = plan_mask(30_000, 1, 1.0, REFERENCE_SCHEDULE, split(0, 10))
        policy = CorruptionPolicy()  # 0.8 / 0.1 / 0.1
        out, labels = apply_corruption(ids, plan, policy, self.vocab, split(0, 11))
        n = ids.size
        frac_mask = (out == MASK_ID).mean()
        frac_keep = (out == 10).mean()
        assert frac_mask == pytest.approx(0.8, abs=0.01)
        # keeps plus random draws that happen to hit id 10
        assert frac_keep == pytest.approx(0.1 + 0.1 / 64, abs=0.01)
        assert (labels == 10).all()

    def test_index_out_of_frame(self):
        ids = np.array([2, 7, 3], dtype=np.int64)
        plan = plan_mask(5, 1, 0.5, REFERENCE_SCHEDULE, ForcedRng({4}))
        with pytest.raises(IndexOutOfFrame):
            apply_corruption(ids, plan, CorruptionPolicy(), self.vocab, split(0, 12))

    def test_policy_validation(self):
        with pytest.raises(ConfigInvalid):
            CorruptionPolicy(p_mask=0.9, p_random=0.2, p_keep=0.1)
        with pytest.raises(ConfigInvalid):
            CorruptionPolicy(p_mask=-0.1, p_random=1.0, p_keep=0.1)


class TestStatisticalRate:
    def test_interior_rate_within_three_binomial_sigma(self):
        # One interior position per sequence keeps the trials independent,
        # so the binomial sigma is exact.
        p, m, seq_len, n = 0.025, 6, 512, 10_000
        sched = MaskSchedule(total_steps=100)  # stage 0 everywhere below 6
        probe = seq_len // 2
        hits = 0
        for i in range(n):
            plan = plan_mask(seq_len, 1, p, sched, split(21, i))
            assert plan.width_m == 6
            hits += int(probe in plan.mask_ids)
        q = expected_mask_fraction(p, m, seq_len).interior
        sigma = math.sqrt(q * (1 - q) / n)
        assert abs(hits / n - q) <= 3 * sigma


def test_span_length_histogram():
    mask = np.array([1, 1, 0, 1, 1, 1, 0, 0, 1], dtype=bool)
    assert span_length_histogram(mask) == {2: 1, 3: 1, 1: 1}
    assert span_length_histogram(np.zeros(5, bool)) == {}
