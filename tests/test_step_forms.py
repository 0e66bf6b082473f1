"""The training step's bodies against the numpy forms they replaced
(tests/oracles.py's step forms), byte for byte: `tobytes()` equality, so a
signed zero that moves fails too.  Each test reaches both sides of the
checks that skip a compaction: rows dropped or not, every drawn bank filled
or not, a class given more than Z rows or not."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng
from densedml.das import (
    TransformationBank,
    combine_factors,
    draw_shifts,
    produced_backward,
)
from densedml.encoder import OptimizerState, encode, init_params, optimizer_step
from densedml.losses import PairSet, TripletSet, contrastive_loss, margin_loss, triplet_loss

import oracles
from conftest import random_unit_rows


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def signed_zeros(r, shape, zero_frac):
    """Normal entries, a share of them replaced by +0.0 or -0.0."""
    x = r.normal(size=shape)
    x[r.random(shape) < zero_frac] = 0.0
    x[r.random(shape) < zero_frac] = -0.0
    return x


@st.composite
def produced_inputs(draw):
    """combine_factors' arguments: anchors in any order, repeated or left
    out, and a drawn share of copies whose shift cancels s*v exactly."""
    r = SeededRng(draw(st.integers(0, 2**31)))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    m = draw(st.integers(0, 20))
    if draw(st.booleans()):  # produce's anchor-major order
        anchors = np.repeat(np.arange(n), m // n)
    else:
        anchors = r.integers(n, size=m)
    emb = random_unit_rows(r, n, d)
    emb[r.random(size=(n, d)) < 0.2] = 0.0
    scales = r.uniform(-1.5, 1.5, size=(len(anchors), d))
    shifts = 0.1 * r.normal(size=scales.shape)
    drop = r.random(len(anchors)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    shifts[drop] = -(scales * emb[anchors])[drop]  # fl(s v) - fl(s v) = +0.0: dropped
    return emb, r.integers(7, size=n), anchors, scales, shifts, r


def same_batch(got, want):
    for name in ("embeddings", "labels", "anchor_rows", "scales", "inv_norms"):
        same_bytes(getattr(got, name), getattr(want, name))
    assert got.dropped == want.dropped


class TestProduction:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(produced_inputs())
    def test_combine_factors(self, inputs):
        emb, labels, anchors, scales, shifts, _ = inputs
        same_batch(combine_factors(emb, labels, anchors, scales, shifts),
                   oracles.combine_factors(emb, labels, anchors, scales, shifts))

    def test_combine_factors_drops_and_keeps(self):
        emb, scales = np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones((3, 2))
        cancel = -emb[[0, 1, 1]] * [[1], [0], [1]]  # the first and last copies collapse
        kept = combine_factors(emb, [0, 1], [0, 1, 1], scales, np.zeros((3, 2)))
        dropped = combine_factors(emb, [0, 1], [0, 1, 1], scales, cancel)
        assert (kept.dropped, dropped.dropped) == (0, 2)
        np.testing.assert_array_equal(dropped.anchor_rows, [1])
        same_batch(dropped, oracles.combine_factors(emb, [0, 1], [0, 1, 1], scales, cancel))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(produced_inputs(), st.sampled_from([0.0, 0.3, 0.9]))
    def test_produced_backward(self, inputs, zero_frac):
        emb, labels, anchors, scales, shifts, r = inputs
        batch = combine_factors(emb, labels, anchors, scales, shifts)
        n, d = emb.shape
        grad = signed_zeros(r, batch.embeddings.shape, zero_frac)
        same_bytes(produced_backward(batch, grad, n, d),
                   oracles.produced_backward(batch, grad, n, d))

    def test_copies_of_negative_zero_sum_to_positive_zero(self):
        batch = combine_factors(np.eye(2), [0, 1], [1, 1, 0], -np.ones((3, 2)), np.zeros((3, 2)))
        got = produced_backward(batch, np.full((3, 2), -0.0), 2, 2)
        same_bytes(got, oracles.produced_backward(batch, np.full((3, 2), -0.0), 2, 2))
        same_bytes(got, np.zeros((2, 2)))


class TestBank:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(2, 4), st.integers(2, 4), st.integers(1, 13),
           st.integers(0, 3))
    def test_update_over_and_under_z(self, seed, p, m, z, warmup):
        # a class gets m (m - 1) rows: 12 at M = 4, over Z = 3, and 2 at M = 2
        r = SeededRng(seed)
        n_classes, d = 6, 3
        got, want = TransformationBank(n_classes, z, d), TransformationBank(n_classes, z, d)
        for c in r.integers(n_classes, size=warmup):
            row = r.normal(size=d)
            got.enqueue(c, row)
            oracles.bank_enqueue(want, c, row)
        labels = np.repeat(r.permutation(n_classes)[:p], m)
        emb = signed_zeros(r, (p * m, d), 0.2)
        got.update(emb, labels)
        oracles.bank_update(want, emb, labels)
        for name in ("slots", "cursor", "filled"):
            same_bytes(getattr(got, name), getattr(want, name))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.integers(1, 5), st.integers(0, 12), st.data())
    def test_draw_shifts_empty_partly_and_all_filled(self, seed, capacity, t, data):
        r = SeededRng(seed)
        n_classes, d = 4, 3
        bank = TransformationBank(n_classes, capacity, d)
        fills = data.draw(st.sampled_from(["none", "some", "all"]))
        for c in range(n_classes):
            count = {"none": 0, "some": int(r.integers(2)) * int(r.integers(1, 2 * capacity)),
                     "all": int(r.integers(1, 2 * capacity))}[fills]
            for _ in range(count):
                bank.enqueue(c, signed_zeros(r, d, 0.3))
        rows = r.integers(n_classes, size=t)
        rng_got, rng_want = SeededRng(seed, 2), SeededRng(seed, 2)
        same_bytes(draw_shifts(bank, rows, 0.5, rng_got),
                   oracles.draw_shifts(bank, rows, 0.5, rng_want))
        np.testing.assert_equal(rng_got.bit_generator.state, rng_want.bit_generator.state)


@st.composite
def loss_inputs(draw):
    """A batch, its distance matrix, and index triples drawn from few rows,
    so a, p and n repeat each other's rows."""
    r = SeededRng(draw(st.integers(0, 2**31)))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    emb = random_unit_rows(r, n, d)
    if draw(st.booleans()):  # duplicate rows: zero distances, zero directions
        emb[r.integers(n, size=n)] = emb[0]
    dist = np.sqrt(np.sum((emb[:, None] - emb[None]) ** 2, axis=-1))
    idx = r.integers(n, size=(3, draw(st.integers(1, 12))))
    margin = draw(st.sampled_from([-5.0, 0.0, 0.2, 3.0]))  # -5: no triplet is active
    return emb, dist, idx, margin


def same_loss(got, want):
    assert (got.value, got.active_count, got.beta_grad) == (
        want.value, want.active_count, want.beta_grad)
    same_bytes(got.grad, want.grad)


class TestLosses:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(loss_inputs())
    def test_triplet_loss(self, inputs):
        emb, dist, (a, p, n), margin = inputs
        triplets = TripletSet(a, p, n)
        got = triplet_loss(emb, triplets, margin, dist)
        same_loss(got, oracles.triplet_loss_add_at(emb, triplets, margin, dist))
        if margin == -5.0:
            assert got.active_count == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(loss_inputs(), st.sampled_from([0.0, 0.5, 1.2]))
    def test_pair_hinge(self, inputs, beta):
        emb, dist, (i, j, flags), margin = inputs
        pairs = PairSet(i, j, flags % 2 == 0)
        alpha = abs(margin)
        same_loss(margin_loss(emb, pairs, alpha, beta, dist),
                  oracles.pair_hinge_add_at(emb, pairs, alpha, beta, dist))
        same_loss(contrastive_loss(emb, pairs, alpha, dist),
                  oracles.pair_hinge_add_at(emb, pairs, np.where(pairs.is_positive, 0.0, alpha),
                                            0.0, dist))


class TestEncoder:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from(["identity", "relu", "tanh"]))
    def test_encode_norms(self, seed, activation):
        r = SeededRng(seed)
        params = init_params([5, 16, 3], activation, r)  # relu: some hidden unit is on
        v, tape = encode(params, r.normal(size=(9, 5)))
        u = tape.pre_acts[-1]
        same_bytes(tape.norms, oracles.row_norms(u))
        same_bytes(v, u / oracles.row_norms(u)[:, None])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31), st.sampled_from([("adam", 0.0), ("sgd", 0.0), ("sgd", 0.9)]),
           st.sampled_from([1e-3, 0.5, 1]))
    def test_optimizer_steps(self, seed, rule, lr):
        r = SeededRng(seed)
        params = init_params([4, 3], "tanh", r)
        theta = params.theta.copy()
        got = OptimizerState(rule[0], lr, rule[1])
        want = copy.deepcopy(got)
        for _ in range(60):
            grad = signed_zeros(r, theta.shape, 0.2) * 10.0 ** r.integers(-8, 3)
            optimizer_step(params, grad, got)
            oracles.optimizer_step(theta, grad, want)
            same_bytes(params.theta, theta)
            assert got.step_count == want.step_count
            assert sorted(got.slots) == sorted(want.slots)
            for name in got.slots:
                same_bytes(got.slots[name], want.slots[name])
