import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng, as_labels
from densedml.das import (
    DasConfig,
    FrequencyRecorder,
    TransformationBank,
    combine_factors,
    draw_scales,
    draw_shifts,
    produce,
    produced_backward,
)
from densedml.errors import (
    ConfigError,
    KOutOfRangeError,
    LabelOutOfRangeError,
    ShapeMismatchError,
    ZeroNormError,
)

from conftest import finite_difference, max_rel_error, random_unit_rows
import oracles
from oracles import apply_factors, das_produce, scaling_factor, shifting_factor


class TestFrequencyRecorder:
    def test_counting_example(self):
        rec = FrequencyRecorder(2, 4)
        rec.update([[0.9, 0.1, 0.4, 0.1]], [0], k=2)
        np.testing.assert_array_equal(rec.counts[0], [1, 0, 1, 0])
        rec.update([[0.1, 0.8, 0.6, 0.0]], [0], k=2)
        np.testing.assert_array_equal(rec.counts[0], [1, 1, 2, 0])

    def test_row_isolation(self):
        rec = FrequencyRecorder(2, 4)
        rec.update([[0.9, 0.1, 0.4, 0.1]], [1], k=2)
        np.testing.assert_array_equal(rec.counts[0], np.zeros(4))

    def test_label_out_of_range(self):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(LabelOutOfRangeError):
            rec.update([[1.0, 0.0, 0.0, 0.0]], [2], k=1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_row_sums_are_k_times_occurrences(self, seed):
        r = SeededRng(seed)
        rec = FrequencyRecorder(3, 6)
        k = 2
        seen = np.zeros(3, dtype=int)
        for _ in range(5):
            emb = r.normal(size=(4, 6))
            labels = r.integers(3, size=4)
            rec.update(emb, labels, k)
            for c in labels:
                seen[c] += 1
            np.testing.assert_array_equal(rec.counts.sum(axis=1), k * seen)

    def test_counts_never_decrease(self, rng):
        rec = FrequencyRecorder(2, 5)
        prev = rec.counts.copy()
        for _ in range(10):
            rec.update(rng.normal(size=(3, 5)), rng.integers(2, size=3), k=2)
            assert np.all(rec.counts >= prev)
            prev = rec.counts.copy()


class TestMask:
    def test_tie_rule_example(self):
        rec = FrequencyRecorder(1, 4)
        rec.counts[0] = [1, 1, 2, 0]
        np.testing.assert_array_equal(rec.mask(2)[0], [1, 0, 1, 0])

    def test_all_zero_row_takes_first_k(self):
        rec = FrequencyRecorder(1, 5)
        np.testing.assert_array_equal(rec.mask(3)[0], [1, 1, 1, 0, 0])

    def test_k_equals_d_all_ones(self):
        rec = FrequencyRecorder(2, 4)
        rec.counts[:] = np.arange(8).reshape(2, 4)
        np.testing.assert_array_equal(rec.mask(4), np.ones((2, 4)))

    def test_rows_have_exactly_k_ones(self, rng):
        rec = FrequencyRecorder(4, 8)
        rec.update(rng.normal(size=(20, 8)), rng.integers(4, size=20), k=3)
        mask = rec.mask(3)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(4, 3))

    def test_invariant_under_positive_row_scaling(self, rng):
        rec = FrequencyRecorder(2, 6)
        rec.update(rng.normal(size=(10, 6)), rng.integers(2, size=10), k=2)
        base = rec.mask(2)
        rec.counts[0] *= 17
        np.testing.assert_array_equal(rec.mask(2), base)


class TestScalingFactor:
    def test_masked_pattern(self, rng):
        s = scaling_factor([1, 0, 1, 0], 0.5, rng)
        assert s[1] == 1.0 and s[3] == 1.0
        assert 0.5 <= s[0] <= 1.5 and 0.5 <= s[2] <= 1.5

    def test_zero_radius_all_ones(self, rng):
        np.testing.assert_array_equal(
            scaling_factor([1, 1, 0, 1], 0.0, rng), np.ones(4)
        )

    def test_uniform_law(self):
        rng = SeededRng(77)
        rs = 0.01
        draws = np.array([scaling_factor([1, 1], rs, rng) for _ in range(10_000)])
        assert draws.min() >= 1 - rs and draws.max() <= 1 + rs
        assert abs(draws.mean() - 1.0) < 0.001


class TestBank:
    def test_pair_enqueue_order(self):
        bank = TransformationBank(1, 5, 2)
        v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        bank.update([v1, v2], [0, 0])
        assert bank.filled[0] == 2
        np.testing.assert_array_equal(bank.slots[0, 0], v1 - v2)
        np.testing.assert_array_equal(bank.slots[0, 1], v2 - v1)

    def test_fifo_overwrite(self):
        bank = TransformationBank(1, 2, 2)
        t1, t2, t3 = np.array([1.0, 0]), np.array([2.0, 0]), np.array([3.0, 0])
        for t in (t1, t2, t3):
            bank.enqueue(0, t)
        np.testing.assert_array_equal(bank.slots[0, 0], t3)
        np.testing.assert_array_equal(bank.slots[0, 1], t2)
        assert bank.filled[0] == 2

    def test_singleton_group_skipped(self):
        bank = TransformationBank(2, 3, 2)
        bank.update([[1.0, 2.0]], [0])
        assert bank.filled[0] == 0

    def test_label_out_of_range(self):
        bank = TransformationBank(2, 3, 2)
        with pytest.raises(LabelOutOfRangeError):
            bank.enqueue(5, np.zeros(2))

    @pytest.mark.parametrize("n_rows, labels", [(3, [0, 0]), (2, [0, 0, 0])])
    def test_update_length_mismatch(self, n_rows, labels):
        # fewer labels used to bank the first rows and drop the rest;
        # more labels raised numpy's IndexError
        bank = TransformationBank(1, 5, 2)
        with pytest.raises(ShapeMismatchError, match="labels length"):
            bank.update(np.arange(2.0 * n_rows).reshape(n_rows, 2), labels)
        assert bank.filled[0] == 0

    @pytest.mark.parametrize("labels, transforms", [
        ([0, 1], np.zeros(3)),  # not two rows
        ([0, 1], np.zeros(4)),  # two rows' worth, flat
        (0, np.zeros(3)),  # one row, wrong width
        ([0, 1], np.zeros((2, 3))),
    ])
    def test_enqueue_shape_mismatch(self, labels, transforms):
        bank = TransformationBank(2, 3, 2)
        message = f"transforms {transforms.shape} != ({np.size(labels)}, 2)"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            bank.enqueue(labels, transforms)
        assert bank.filled.tolist() == [0, 0]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    def test_matches_bounded_queue_model(self, seed, capacity):
        r = SeededRng(seed)
        bank = TransformationBank(1, capacity, 3)
        model = deque(maxlen=capacity)
        for i in range(int(r.integers(20)) + 1):
            t = r.normal(size=3)
            bank.enqueue(0, t)
            model.append(t)
        stored = bank.slots[0, : bank.filled[0]]
        assert bank.filled[0] == len(model)
        got = sorted(map(tuple, stored))
        want = sorted(map(tuple, model))
        np.testing.assert_allclose(got, want)


class TestBankOracle:
    """The one-call update and the stacked enqueue against one ring write
    per difference."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(0, 4), max_size=14),
        st.lists(st.integers(0, 4), max_size=12),
    )
    def test_update_matches_pair_loop(self, seed, n_classes, capacity, labels, warmup):
        # warm-up writes leave cursors mid-ring; groups of 4+ give q > Z wrap-around
        r = SeededRng(seed)
        labels = [c % n_classes for c in labels]
        got, want = TransformationBank(n_classes, capacity, 3), TransformationBank(n_classes, capacity, 3)
        for c in warmup:
            t = r.normal(size=3)
            got.enqueue(c % n_classes, t)
            oracles.bank_enqueue(want, c % n_classes, t)
        emb = r.normal(size=(len(labels), 3))
        got.update(emb, labels)
        oracles.bank_update(want, emb, labels)
        for name in ("slots", "cursor", "filled"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_wrap_around_and_singletons(self):
        # class 0: 5 members, 20 pairs into a ring of 3; class 1: a singleton
        emb = np.arange(12.0).reshape(6, 2) ** 2
        labels = [0, 1, 0, 0, 0, 0]
        got, want = TransformationBank(2, 3, 2), TransformationBank(2, 3, 2)
        for bank in (got, want):
            bank.cursor[0] = 2
        got.update(emb, labels)
        oracles.bank_update(want, emb, labels)
        np.testing.assert_array_equal(got.slots, want.slots)
        assert got.cursor.tolist() == want.cursor.tolist() == [(2 + 20) % 3, 0]
        assert got.filled.tolist() == want.filled.tolist() == [3, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 6),
           st.lists(st.integers(0, 2), max_size=16))
    def test_stacked_enqueue_equals_one_at_a_time(self, seed, capacity, labels):
        rows = SeededRng(seed).normal(size=(len(labels), 2))
        stacked, single, oracle = (TransformationBank(3, capacity, 2) for _ in range(3))
        stacked.enqueue(labels, rows)
        for c, t in zip(labels, rows):
            single.enqueue(c, t)
            oracles.bank_enqueue(oracle, c, t)
        for bank in (single, oracle):
            for name in ("slots", "cursor", "filled"):
                np.testing.assert_array_equal(getattr(stacked, name), getattr(bank, name))


class TestDrawScales:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        # -1 used to scale with the last class's mask, 3 raised IndexError
        rng = SeededRng(0)
        with pytest.raises(LabelOutOfRangeError):
            draw_scales(np.eye(3, 4), [0, label], 0.01, rng)
        assert rng.uniform() == SeededRng(0).uniform()


class TestShiftingFactor:
    def test_cold_start_zero(self, rng):
        bank = TransformationBank(2, 4, 3)
        np.testing.assert_array_equal(shifting_factor(bank, 1, 0.01, rng), np.zeros(3))

    def test_single_slot_scaling(self, rng):
        bank = TransformationBank(1, 4, 2)
        bank.enqueue(0, np.array([1.0, -1.0]))
        np.testing.assert_allclose(
            shifting_factor(bank, 0, 0.01, rng), [0.01, -0.01], atol=1e-15
        )

    def test_uniform_slot_choice(self):
        bank = TransformationBank(1, 4, 1)
        bank.enqueue(0, np.array([1.0]))
        bank.enqueue(0, np.array([2.0]))
        rng = SeededRng(17)
        hits = {1.0: 0, 2.0: 0}
        for _ in range(10_000):
            hits[float(shifting_factor(bank, 0, 1.0, rng)[0])] += 1
        assert abs(hits[1.0] / 10_000 - 0.5) < 0.02

    def test_unfilled_slots_never_sampled(self):
        bank = TransformationBank(1, 10, 1)
        bank.enqueue(0, np.array([5.0]))
        rng = SeededRng(3)
        for _ in range(200):
            assert shifting_factor(bank, 0, 1.0, rng)[0] == 5.0


class TestDrawShiftsOracle:
    """The single-call draw_shifts against one shifting_factor call per row."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=4),
        st.data(),
    )
    def test_matches_per_row_loop(self, seed, n_classes, capacity, t, data):
        r = SeededRng(seed)
        bank = TransformationBank(n_classes, capacity, 3)
        # some class banks stay empty, others fill partly or wrap around
        for c in range(n_classes):
            for _ in range(data.draw(st.integers(0, 2 * capacity))):
                bank.enqueue(c, r.normal(size=3))
        labels = data.draw(st.lists(st.integers(0, n_classes - 1), max_size=12))
        rows = np.repeat(np.asarray(labels, dtype=np.int64), t)
        rng_got, rng_want = SeededRng(seed, 1), SeededRng(seed, 1)
        got = draw_shifts(bank, rows, 0.01, rng_got)
        want = oracles.draw_shifts(bank, rows, 0.01, rng_want)
        assert got.shape == want.shape == (len(labels) * t, 3)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rng_got.uniform(size=3), rng_want.uniform(size=3))
        assert rng_got.integers(1000) == rng_want.integers(1000)

    def test_empty_banks_give_zero_rows_and_no_draws(self):
        bank = TransformationBank(3, 4, 2)
        bank.enqueue(1, np.array([1.0, 2.0]))
        rng = SeededRng(6)
        got = draw_shifts(bank, [0, 0, 2, 2, 0, 0], 0.5, rng)
        np.testing.assert_array_equal(got, np.zeros((6, 2)))
        assert rng.uniform() == SeededRng(6).uniform()

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        bank = TransformationBank(3, 4, 2)
        bank.enqueue(0, np.array([1.0, 2.0]))
        with pytest.raises(LabelOutOfRangeError):
            draw_shifts(bank, [0, label], 0.01, SeededRng(0))
        with pytest.raises(LabelOutOfRangeError):
            oracles.draw_shifts(bank, [0, label], 0.01, SeededRng(0))


class TestProduce:
    def test_identity_when_degenerate(self):
        cfg = DasConfig(T=4, K=1, Z=3, rs=0.0, rb=0.01)
        bank = TransformationBank(1, 3, 2)  # empty: shift contributes nothing
        v = np.array([1.0, 0.0])
        out = das_produce(v, 0, np.array([1.0, 0.0]), bank, cfg, SeededRng(0))
        assert len(out) == 4
        for vp, label in out:
            np.testing.assert_array_equal(vp, v)
            assert label == 0

    def test_pure_shift_example(self):
        np.testing.assert_allclose(
            apply_factors(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])),
            np.array([1.0, 1.0]) / np.sqrt(2.0),
            atol=1e-12,
        )

    def test_scale_and_shift_arithmetic(self):
        got = apply_factors(
            np.array([0.6, 0.8]), np.array([0.5, 1.0]), np.array([0.1, -0.1])
        )
        np.testing.assert_allclose(got, [0.49614, 0.86824], atol=1e-5)

    def test_collapse_raises_and_batch_drops(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ZeroNormError):
            apply_factors(v, np.array([1.0, 1.0]), np.array([-1.0, 0.0]))
        batch = combine_factors(
            v.reshape(1, 2), [0], [0], np.ones((1, 2)), np.array([[-1.0, 0.0]])
        )
        assert batch.dropped == 1 and len(batch.labels) == 0

    @pytest.mark.parametrize("anchors", [[0], [0, 0, 0], []])
    def test_factor_rows_must_match_anchors(self, anchors):
        v = np.array([[1.0, 0.0]])
        with pytest.raises(ShapeMismatchError):
            combine_factors(v, [0], anchors, np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatchError):
            combine_factors(v, [0], [0, 0], np.ones((2, 2)), np.zeros((3, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_produced_unit_norm(self, seed):
        r = SeededRng(seed)
        anchors = random_unit_rows(r, 3, 5)
        labels = np.array([0, 1, 1])
        rec = FrequencyRecorder(2, 5)
        bank = TransformationBank(2, 4, 5)
        cfg = DasConfig(T=3, K=2, Z=4, rs=0.3, rb=0.3)
        batch = produce(anchors, labels, rec, bank, cfg, r)
        norms = np.linalg.norm(batch.embeddings, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-12)
        np.testing.assert_array_equal(batch.labels, np.repeat(labels, 3)[: len(batch.labels)])

    def test_default_radii_keep_points_near_anchor(self):
        r = SeededRng(99)
        anchors = random_unit_rows(r, 20, 16)
        labels = np.zeros(20, dtype=int)
        rec = FrequencyRecorder(1, 16)
        bank = TransformationBank(1, 10, 16)
        cfg = DasConfig(T=3, K=4, Z=10, rs=0.01, rb=0.01)
        batch = produce(anchors, labels, rec, bank, cfg, r)
        cos = np.sum(batch.embeddings * anchors[batch.anchor_rows], axis=1)
        assert np.all(cos >= 1 - 10 * (cfg.rs + cfg.rb))

    def test_gradient_through_production(self):
        r = SeededRng(4)
        v = random_unit_rows(r, 1, 4)
        scales = 1.0 + 0.3 * r.normal(size=(2, 4))
        shifts = 0.2 * r.normal(size=(2, 4))
        upstream = r.normal(size=(2, 4))

        def probe(flat):
            emb = flat.reshape(1, 4)
            batch = combine_factors(emb, [0], [0, 0], scales, shifts)
            return float(np.sum(upstream * batch.embeddings))

        batch = combine_factors(v, [0], [0, 0], scales, shifts)
        analytic = produced_backward(batch, upstream, 1, 4)
        numeric = finite_difference(probe, v.ravel())
        assert max_rel_error(analytic.ravel(), numeric) < 1e-4


class TestProduceSteps:
    """produce runs DFS then MTS on its own state, in the training-loop order."""

    @staticmethod
    def batch(seed):
        r = SeededRng(seed)
        return random_unit_rows(r, 6, 5), np.array([0, 0, 1, 1, 2, 2])

    def test_matches_phase_by_phase_composition(self):
        anchors, labels = self.batch(12)
        cfg = DasConfig(T=2, K=2, Z=3, rs=0.2, rb=0.3)
        rec, bank = FrequencyRecorder(3, 5), TransformationBank(3, 3, 5)
        rng_got = SeededRng(5, 2)
        got = produce(anchors, labels, rec, bank, cfg, rng_got)

        want_rec, want_bank = FrequencyRecorder(3, 5), TransformationBank(3, 3, 5)
        rng_want = SeededRng(5, 2)
        want_rec.update(anchors, labels, cfg.K)
        rows = np.repeat(np.arange(len(labels)), cfg.T)
        scales = draw_scales(want_rec.mask(cfg.K), labels[rows], cfg.rs, rng_want)
        want_bank.update(anchors, labels)
        shifts = draw_shifts(want_bank, labels[rows], cfg.rb, rng_want)
        want = combine_factors(anchors, labels, rows, scales, shifts)

        np.testing.assert_array_equal(got.embeddings, want.embeddings)
        np.testing.assert_array_equal(got.scales, want.scales)
        np.testing.assert_array_equal(got.anchor_rows, want.anchor_rows)
        np.testing.assert_array_equal(rec.counts, want_rec.counts)
        np.testing.assert_array_equal(bank.slots, want_bank.slots)
        assert rng_got.uniform() == rng_want.uniform()

    @pytest.mark.parametrize(
        "toggles,phases",
        [
            ({}, ["frm", "scale", "transform", "enqueue", "shift", "produce"]),
            ({"rb": 0.0}, ["frm", "scale", "produce"]),
            ({"rs": 0.0}, ["transform", "enqueue", "shift", "produce"]),
        ],
    )
    def test_phases_and_disabled_mechanism(self, toggles, phases):
        anchors, labels = self.batch(3)
        cfg = DasConfig(**{"T": 3, "K": 2, "Z": 4, "rs": 0.2, "rb": 0.2, **toggles})
        rec, bank = FrequencyRecorder(3, 5), TransformationBank(3, 4, 5)
        seen = []
        out = produce(anchors, labels, rec, bank, cfg, SeededRng(1), seen.append)
        assert seen == phases
        assert len(out.labels) == 18
        if cfg.rb == 0:
            assert bank.filled.sum() == 0
        if cfg.rs == 0:
            assert rec.counts.sum() == 0
            np.testing.assert_array_equal(out.scales, np.ones((18, 5)))


class TestDasConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(T=-1), dict(K=0), dict(Z=0), dict(rs=1.0), dict(rs=-0.1), dict(rb=-1.0)],
    )
    def test_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            DasConfig(**kwargs).validate(8)

    def test_k_exceeds_dim(self):
        with pytest.raises(ConfigError):
            DasConfig(K=9).validate(8)


class TestLabelCheck:
    """Each entry point names the first out-of-range label and changes no
    state before it raises."""

    def test_recorder_update(self):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(LabelOutOfRangeError, match="label 5 outside"):
            rec.update(np.eye(4)[:3], [1, 5, -1], k=1)
        assert rec.counts.sum() == 0

    def test_enqueue(self):
        bank = TransformationBank(2, 3, 2)
        with pytest.raises(LabelOutOfRangeError, match="label -1 outside"):
            bank.enqueue(-1, np.ones(2))
        assert bank.filled.sum() == 0

    def test_enqueue_float_label(self):
        bank = TransformationBank(2, 3, 2)
        with pytest.raises(LabelOutOfRangeError, match="label 1.5 is not an integer"):
            bank.enqueue(1.5, np.ones(2))
        assert bank.filled.sum() == 0

    def test_update_bool_labels(self):
        bank = TransformationBank(2, 3, 2)
        with pytest.raises(LabelOutOfRangeError, match="label True is not an integer"):
            bank.update(np.eye(2), [True, True])
        assert bank.filled.sum() == 0

    @pytest.mark.parametrize("labels,named", [([0, 5], "label 5 outside"),
                                              ([0.5, 1], "label 0.5 is not an integer")])
    def test_update_checks_singleton_labels(self, labels, named):
        bank = TransformationBank(2, 3, 2)
        with pytest.raises(LabelOutOfRangeError, match=named):
            bank.update(np.eye(2), labels)

    def test_draw_shifts_float_label_before_the_cast(self):
        bank = TransformationBank(2, 3, 2)
        bank.enqueue(0, np.array([1.0, 2.0]))
        with pytest.raises(LabelOutOfRangeError, match="label 0.7 is not an integer"):
            draw_shifts(bank, [0.7], 0.01, SeededRng(0))

    def test_recorder_update_float_labels(self):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(LabelOutOfRangeError, match="label 0.5 is not an integer"):
            rec.update(np.eye(4)[:2], [0.5, 1.0], 1)
        assert rec.counts.sum() == 0

    def test_draw_shifts(self):
        bank = TransformationBank(3, 4, 2)
        bank.enqueue(0, np.array([1.0, 2.0]))
        rng = SeededRng(4)
        with pytest.raises(LabelOutOfRangeError, match="label 7 outside"):
            draw_shifts(bank, [0, 7, -2], 0.01, rng)
        assert rng.uniform() == SeededRng(4).uniform()


class TestDirectCallerChecks:
    """The checks a training step skips stay for direct callers."""

    @pytest.mark.parametrize("emb, labels, k, error, match", [
        (np.eye(4)[:3], [0, 1], 1, ShapeMismatchError, "labels length"),
        (np.eye(5)[:2], [0, 1], 1, ShapeMismatchError, r"embeddings \(2, 5\) != \(\*, 4\)$"),
        (np.eye(4)[:2], [0, 1], 0, KOutOfRangeError, r"K=0 outside \[1, 4\]"),
        (np.eye(4)[:2], [0, 1], 5, KOutOfRangeError, r"K=5 outside \[1, 4\]"),
    ])
    def test_recorder_update(self, emb, labels, k, error, match):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(error, match=match):
            rec.update(emb, labels, k)
        assert rec.counts.sum() == 0

    @pytest.mark.parametrize("k", [0, 5])
    def test_recorder_mask(self, k):
        with pytest.raises(KOutOfRangeError, match=rf"K={k} outside"):
            FrequencyRecorder(2, 4).mask(k)

    @pytest.mark.parametrize("call", [lambda rec: rec.mask(2.0), lambda rec: rec.mask(True),
                                      lambda rec: rec.update(np.eye(4)[:2], [0, 1], True),
                                      lambda rec: rec.update(np.eye(4)[:2], [0, 1], 1.0),
                                      lambda rec: rec.mask(np.True_),
                                      lambda rec: rec.update(np.eye(4)[:2], [0, 1], np.True_)])
    def test_recorder_k_not_an_integer(self, call):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(KOutOfRangeError, match="must be an integer"):
            call(rec)
        assert rec.counts.sum() == 0

    @pytest.mark.parametrize("k", [np.int64(1), np.uint8(1)])
    def test_recorder_numpy_integer_k(self, k):
        # a numpy integer K was a KOutOfRangeError, though metrics took one as k
        rec = FrequencyRecorder(2, 4)
        rec.update(np.eye(4)[:2], [0, 1], k)
        assert rec.counts.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
        np.testing.assert_array_equal(rec.mask(k), rec.mask(1))

    @pytest.mark.parametrize("anchors", [[0, 9], [-1, 0], [0.0, 1.0], [True, False]])
    def test_combine_anchors_outside_the_rows(self, anchors):
        factors = np.ones((2, 3))
        with pytest.raises(ShapeMismatchError, match=r"integer batch rows in \[0, 4\)"):
            combine_factors(np.eye(4, 3), [0, 1, 2, 3], anchors, factors, factors)

    @pytest.mark.parametrize("grad", [np.ones((3, 3)), np.ones((2, 4)), np.ones(6)])
    def test_backward_gradient_of_wrong_shape(self, grad):
        batch = combine_factors(np.eye(3), [0, 1, 2], [0, 2], np.ones((2, 3)), np.zeros((2, 3)))
        message = f"gradient {grad.shape} != (2, 3)"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            produced_backward(batch, grad, 3, 3)

    def test_backward_gradient_of_wrong_width(self):
        batch = combine_factors(np.eye(3), [0, 1, 2], [0, 2], np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match=r"^produced rows of width 3 != 4$"):
            produced_backward(batch, np.ones((2, 3)), 3, 4)

    @pytest.mark.parametrize("n_anchors", [2, 0])
    def test_backward_anchor_row_outside(self, n_anchors):
        batch = combine_factors(np.eye(3), [0, 1, 2], [0, 2], np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match=rf"outside \[0, {n_anchors}\)"):
            produced_backward(batch, np.ones((2, 3)), n_anchors, 3)

    @pytest.mark.parametrize("grad", [np.zeros((0, 3)), []])
    def test_backward_of_no_produced_rows(self, grad):
        batch = combine_factors(np.ones((2, 3)), [0, 1], [0, 0], np.ones((2, 3)),
                                np.array([[-1.0, -1.0, -1.0]] * 2))
        assert batch.dropped == 2
        np.testing.assert_array_equal(produced_backward(batch, grad, 2, 3), np.zeros((2, 3)))


@st.composite
def label_inputs(draw):
    """Labels as a caller may pass them, of at most one dimension: lists of
    mixed entries, integer arrays of each width and byte order, uint64 at and
    above 2**63, bools, floats, object arrays, 0-d arrays and scalars."""
    small = st.integers(-2, 6)
    kind = draw(st.sampled_from(["list", "ints", "uint64", "bools", "floats", "objects",
                                 "scalar", "0-d"]))
    if kind == "list":
        return draw(st.lists(small | st.floats(-2, 6) | st.booleans() | st.text(max_size=1),
                             max_size=6))
    if kind == "ints":
        dtype = draw(st.sampled_from(["i1", "u1", "i4", ">i4", "i8", ">i8", "u8"]))
        return np.array(draw(st.lists(small, max_size=6)), dtype=np.int64).astype(dtype)
    if kind == "uint64":
        return np.array(draw(st.lists(st.integers(0, 6) | st.integers(2**63, 2**64 - 1),
                                      max_size=6)), dtype=np.uint64)
    if kind == "bools":
        return np.array(draw(st.lists(st.booleans(), max_size=6)), dtype=bool)
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(-2, 6) | st.sampled_from([1.0, np.nan, np.inf]),
                                      max_size=6)), dtype=np.float64)
    if kind == "objects":
        items = draw(st.lists(small | st.integers(2**64, 2**70) | st.none() | st.text(max_size=1)
                              | st.just(np.int64(1)) | st.floats(-2, 6), max_size=6))
        out = np.empty(len(items), dtype=object)
        out[:] = items
        return out
    if kind == "scalar":
        return draw(st.sampled_from([int, np.int64, np.uint8, np.float64, np.bool_]))(
            draw(st.integers(0, 6)))
    return np.array(draw(small | st.floats(-2, 6) | st.booleans()))


class TestCheckLabels:
    """The vectorized label rule, `core.as_labels`, against the per-label
    loop it replaced (tests/oracles.py), with and without a class count: it
    raises exactly when the loop does, naming the same label, and otherwise
    returns the labels as a 1-D int64 array."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(label_inputs(), st.none() | st.integers(0, 6))
    def test_raises_exactly_when_the_loop_does(self, labels, n_classes):
        try:
            oracles.check_labels(labels, n_classes)
        except LabelOutOfRangeError as exc:
            with pytest.raises(LabelOutOfRangeError) as got:
                as_labels(labels, n_classes=n_classes)
            assert str(got.value) == str(exc)
        else:
            got = as_labels(labels, n_classes=n_classes)
            assert got.dtype == np.int64 and got.ndim == 1
            assert got.tolist() == np.asarray(labels).ravel().tolist()

    @pytest.mark.parametrize("labels", [[], np.zeros(0), np.zeros(0, dtype=np.uint8)])
    def test_no_labels_pass(self, labels):
        for n_classes in (3, None):
            got = as_labels(labels, n_classes=n_classes)
            assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("labels", [2, np.int64(2), np.array(2)])
    def test_one_label_is_one_row(self, labels):
        assert as_labels(labels, n_classes=3).tolist() == [2]
        assert as_labels(labels).tolist() == [2]

    def test_int64_labels_pass_through(self):
        labels = np.array([0, 2, 1])
        assert as_labels(labels, n_classes=3) is labels
        assert as_labels(labels, 3) is labels


class TestLabelShape:
    """Labels that are not one vector are a ShapeMismatchError."""

    def test_recorder_update(self):
        # counted every row into both classes
        rec = FrequencyRecorder(4, 4)
        with pytest.raises(ShapeMismatchError, match="1-D array, got shape"):
            rec.update(np.eye(4)[:2], [[0, 1], [1, 0]], 2)
        assert rec.counts.sum() == 0

    def test_draw_scales(self):
        # returned a (2, 2, 4) array
        rng = SeededRng(0)
        with pytest.raises(ShapeMismatchError, match="1-D array, got shape"):
            draw_scales(np.eye(4), [[0, 1], [1, 0]], 0.01, rng)
        assert rng.uniform() == SeededRng(0).uniform()

    def test_bank_update(self):
        # raised numpy's ValueError
        bank = TransformationBank(4, 3, 4)
        with pytest.raises(ShapeMismatchError, match="1-D array, got shape"):
            bank.update(np.eye(4)[:2], [[0, 1], [1, 0]])
        assert bank.filled.sum() == 0


def _produce(emb, labels):
    return produce(emb, labels, FrequencyRecorder(2, 3), TransformationBank(2, 3, 3),
                   DasConfig(T=1, K=1), SeededRng(0))


ROW_CALLS = {
    "recorder_update": lambda emb, labels: FrequencyRecorder(2, 3).update(emb, labels, 1),
    "bank_update": lambda emb, labels: TransformationBank(2, 3, 3).update(emb, labels),
    "enqueue": lambda emb, labels: TransformationBank(2, 3, 3).enqueue(labels, emb),
    "draw_scales": lambda emb, labels: draw_scales(emb, labels, 0.01, SeededRng(0)),
    "combine_factors": lambda emb, labels: combine_factors(emb, labels, [0, 1], np.ones((2, 3)),
                                                           np.zeros((2, 3))),
    "produce": _produce,
}
LABEL_CALLS = {**ROW_CALLS, "draw_shifts": lambda emb, labels: draw_shifts(
    TransformationBank(2, 3, 3), labels, 0.01, SeededRng(0))}


class TestUnconvertibleInput:
    """Ragged or non-numeric rows and ragged labels are a ShapeMismatchError
    at every DAS entry point; numpy's ValueError escaped each of them."""

    @pytest.mark.parametrize("rows", [[[1.0, 0.0, 0.0], [0.0, 1.0]], [["a", "b", "c"]] * 2],
                             ids=["ragged", "strings"])
    @pytest.mark.parametrize("call", sorted(ROW_CALLS))
    def test_rows(self, call, rows):
        with pytest.raises(ShapeMismatchError, match="not a 2-D numeric array"):
            ROW_CALLS[call](rows, [0, 1])

    @pytest.mark.parametrize("call", sorted(ROW_CALLS))
    def test_complex_rows(self, call):
        # numpy's cast kept the real parts, with only a ComplexWarning
        with pytest.raises(ShapeMismatchError, match="complex input"):
            ROW_CALLS[call](np.eye(2, 3) + 1j, [0, 1])

    def test_recorder_counts_no_complex_rows(self):
        rec = FrequencyRecorder(2, 4)
        with pytest.raises(ShapeMismatchError, match="complex input"):
            rec.update(np.eye(4)[:2] + 1j, [0, 1], 1)
        assert rec.counts.sum() == 0

    @pytest.mark.parametrize("call", sorted(LABEL_CALLS))
    def test_ragged_labels(self, call):
        with pytest.raises(ShapeMismatchError, match="not a 1-D numeric array"):
            LABEL_CALLS[call](np.eye(2, 3), [[0], [0, 1]])

    def test_combine_ragged_anchors(self):
        with pytest.raises(ShapeMismatchError):
            combine_factors(np.eye(2, 3), [0, 1], [[0], [0, 1]], np.ones((2, 3)),
                            np.zeros((2, 3)))

    def test_combine_ragged_factor_rows(self):
        with pytest.raises(ShapeMismatchError):
            combine_factors(np.eye(2, 3), [0, 1], [0, 1], [[1.0, 1.0, 1.0], [1.0]],
                            np.zeros((2, 3)))

    def test_combine_factor_rows_as_lists(self):
        # a list raised AttributeError on .shape
        got = combine_factors(np.eye(2, 3), [0, 1], [0, 1], [[2.0] * 3] * 2, [[0.0] * 3] * 2)
        np.testing.assert_array_equal(got.embeddings, np.eye(2, 3))
        np.testing.assert_array_equal(got.scales, np.full((2, 3), 2.0))

    def test_backward_ragged_gradient(self):
        batch = combine_factors(np.eye(3), [0, 1, 2], [0, 2], np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError):
            produced_backward(batch, [[1.0, 0.0, 0.0], [1.0]], 3, 3)


class TestProduceWithoutMechanisms:
    """With both radii zero no DAS function that checks labels runs, so
    produce checks them itself; it returned them as they came."""

    @pytest.mark.parametrize("labels, named", [([7, -1], "label 7"), (["a", "b"], "label 'a'"),
                                               ([0.5, 1], "label 0.5")])
    def test_labels_checked(self, labels, named):
        with pytest.raises(LabelOutOfRangeError, match=named):
            produce(np.eye(2, 3), labels, FrequencyRecorder(2, 3), TransformationBank(2, 1, 3),
                    DasConfig(T=1, K=1, rs=0.0, rb=0.0), SeededRng(0))

    def test_valid_labels_pass(self):
        got = produce(np.eye(2, 3), [1, 0], FrequencyRecorder(2, 3), TransformationBank(2, 1, 3),
                      DasConfig(T=2, K=1, rs=0.0, rb=0.0), SeededRng(0))
        assert got.labels.tolist() == [1, 1, 0, 0]
        np.testing.assert_array_equal(got.embeddings, np.eye(2, 3).repeat(2, axis=0))


class TestLabelLength:
    """produce and combine_factors check the label count against the rows
    before they index the labels; numpy's IndexError escaped both."""

    @pytest.mark.parametrize("labels", [[0, 1], None, np.int64(0), np.array(1)])
    def test_produce(self, labels):
        with pytest.raises(ShapeMismatchError, match="labels length"):
            produce(np.eye(4), labels, FrequencyRecorder(2, 4), TransformationBank(2, 3, 4),
                    DasConfig(T=1, K=1), SeededRng(0))

    @pytest.mark.parametrize("labels", [[0, 1], None, np.int64(0)])
    def test_combine_factors(self, labels):
        with pytest.raises(ShapeMismatchError, match="labels length"):
            combine_factors(np.eye(4), labels, [0, 3], np.ones((2, 4)), np.zeros((2, 4)))
