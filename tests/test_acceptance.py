"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact agreement is asserted bitwise for discrete
structures (counters, masks, bank contents, rankings, pair counts) and at
1e-12 for float reductions, where independent summation orders legitimately
differ in the last bits.
"""

import json
import math
import time
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest

from densedml.cli import main as cli_main
from densedml.config import RunConfig
from densedml.core import SeededRng, pairwise_distances
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
from densedml.encoder import backward, encode, init_params
from densedml.losses import (
    LossSpec,
    contrastive_loss,
    margin_loss,
    multi_similarity_loss,
    triplet_loss,
)
from densedml.metrics import f1_score, nmi, recall_at_k
from densedml.sampling import sample_distance_weighted, sample_random_triplets
from densedml.training import ablation_variants, run_comparison, sweep_variants, train

from conftest import finite_difference, max_rel_error, random_unit_rows
from oracles import build_pairs, das_produce, install_replicated_baseline, with_theta


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number}: FAIL ({description})")
        raise
    elapsed = time.time() - start
    print(f"\nACCEPTANCE CRITERION {number}: PASS in {elapsed:.1f}s ({description})")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


# ---------------------------------------------------------------------- 1


def small_run_config(steps, seed):
    cfg = RunConfig()
    cfg.steps = steps
    cfg.seed = seed
    cfg.data.classes = 8
    cfg.data.per_class = 16
    cfg.data.input_dim = 8
    cfg.encoder.hidden = [16]
    cfg.encoder.embed_dim = 8
    cfg.batch.classes_per_batch = 4
    cfg.eval_ks = [1]
    return cfg


def test_criterion_1_algebraic_identity(monkeypatch):
    with criterion(1, "zero-radius production is the identity; zero-radius training "
                      "matches the term-duplicated baseline", budget_s=30):
        rng = SeededRng(101)
        anchors = random_unit_rows(rng, 8, 6)
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        bank = TransformationBank(4, 5, 6)  # stays empty
        cfg = DasConfig(T=3, K=2, Z=5, rs=0.0, rb=0.01)
        mask = np.ones((4, 6))
        # produce fills its own bank, so its half zeroes the shift radius too
        batch = produce(anchors, labels, FrequencyRecorder(4, 6), TransformationBank(4, 5, 6),
                        DasConfig(T=3, K=2, Z=5, rs=0.0, rb=0.0), rng)
        assert batch.dropped == 0 and len(batch.labels) == 24
        diffs = np.abs(batch.embeddings - anchors[batch.anchor_rows])
        assert diffs.max() <= 1e-12
        for v, lab in zip(anchors, labels):
            for vp, lab_out in das_produce(v, lab, mask[lab], bank, cfg, rng):
                assert np.max(np.abs(vp - v)) <= 1e-12
                assert lab_out == lab

        das_cfg = small_run_config(50, 2024)
        das_cfg.das.rs = 0.0
        das_cfg.das.rb = 0.0
        das_params = train(das_cfg).params.theta.copy()
        install_replicated_baseline(monkeypatch)
        diff = np.abs(das_params - train(das_cfg).params.theta.copy())
        assert diff.max() < 1e-9


# ---------------------------------------------------------------------- 2


def oracle_top_k(values, k):
    return sorted(sorted(range(len(values)), key=lambda i: (-values[i], i))[:k])


def test_criterion_2_oracle_equivalence():
    with criterion(2, "FRM/mask/bank/distances/recall/NMI/F1 agree with independent "
                      "oracles over 1000 randomized trials each", budget_s=60):
        # FRM vs a streaming-counter oracle
        for trial in range(1000):
            r = SeededRng(trial)
            d = int(r.integers(10)) + 2
            k = int(r.integers(d)) + 1
            n_classes = int(r.integers(3)) + 1
            rec = FrequencyRecorder(n_classes, d)
            counts = [[0] * d for _ in range(n_classes)]
            for _ in range(int(r.integers(4)) + 1):
                emb = r.normal(size=(int(r.integers(4)) + 1, d))
                labels = r.integers(n_classes, size=emb.shape[0])
                rec.update(emb, labels, k)
                for row, c in zip(emb, labels):
                    for idx in oracle_top_k(list(row), k):
                        counts[c][idx] += 1
            assert rec.counts.tolist() == counts

        # mask vs sort+tie oracle
        for trial in range(1000):
            r = SeededRng(10_000 + trial)
            d = int(r.integers(10)) + 2
            k = int(r.integers(d)) + 1
            rec = FrequencyRecorder(2, d)
            rec.counts[:] = r.integers(5, size=(2, d))
            mask = rec.mask(k)
            for c in range(2):
                want = np.zeros(d)
                want[oracle_top_k(rec.counts[c].tolist(), k)] = 1
                assert mask[c].tolist() == want.tolist()

        # bank vs bounded-queue oracle
        for trial in range(1000):
            r = SeededRng(20_000 + trial)
            z = int(r.integers(5)) + 1
            bank = TransformationBank(1, z, 3)
            model = deque(maxlen=z)
            for _ in range(int(r.integers(12)) + 1):
                t = r.normal(size=3)
                bank.enqueue(0, t)
                model.append(t)
            stored = sorted(map(tuple, bank.slots[0, : bank.filled[0]]))
            assert stored == sorted(map(tuple, model))

        # pairwise distances vs scalar loop (float reductions: 1e-12)
        for trial in range(1000):
            r = SeededRng(30_000 + trial)
            n = int(r.integers(11)) + 2
            d = int(r.integers(6)) + 2
            x = r.normal(size=(n, d))
            got = pairwise_distances(x)
            for i in range(n):
                for j in range(i, n):
                    acc = 0.0
                    for kk in range(d):
                        acc += (x[i, kk] - x[j, kk]) ** 2
                    assert abs(got[i, j] - math.sqrt(acc)) <= 1e-12

        # recall@k vs exhaustive ranking oracle (exact fractions)
        for trial in range(1000):
            r = SeededRng(40_000 + trial)
            n = int(r.integers(9)) + 4
            emb = r.normal(size=(n, 3))
            labels = r.integers(3, size=n)
            ks = [1, 2, min(3, n - 1)]
            got = recall_at_k(emb, labels, ks)
            dist = pairwise_distances(emb)
            for k in ks:
                hits = 0
                for i in range(n):
                    ranked = sorted(
                        (j for j in range(n) if j != i), key=lambda j: (dist[i, j], j)
                    )
                    hits += any(labels[j] == labels[i] for j in ranked[:k])
                assert got[k] == hits / n

        # NMI (1e-12) and pairwise F1 (exact) vs contingency/pair oracles
        for trial in range(1000):
            r = SeededRng(50_000 + trial)
            n = int(r.integers(11)) + 2
            a = r.integers(3, size=n)
            b = r.integers(3, size=n)
            tp = fp = fn = 0
            for i in range(n):
                for j in range(i + 1, n):
                    same_c, same_l = a[i] == a[j], b[i] == b[j]
                    tp += same_c and same_l
                    fp += same_c and not same_l
                    fn += same_l and not same_c
            if tp + fp == 0 or tp + fn == 0:
                want_f1 = 0.0
            else:
                p, rec_ = tp / (tp + fp), tp / (tp + fn)
                want_f1 = 0.0 if p + rec_ == 0 else 2 * p * rec_ / (p + rec_)
            assert f1_score(a, b) == want_f1

            # entropy/information oracle in pure python
            def dist_of(xs):
                out = {}
                for v in xs:
                    out[int(v)] = out.get(int(v), 0) + 1
                return out

            pa, pb = dist_of(a), dist_of(b)
            joint = {}
            for x, y in zip(a, b):
                joint[(int(x), int(y))] = joint.get((int(x), int(y)), 0) + 1
            h_a = -sum(c / n * math.log(c / n) for c in pa.values())
            h_b = -sum(c / n * math.log(c / n) for c in pb.values())
            if h_a == 0 or h_b == 0:
                want_nmi = 0.0
            else:
                info = sum(
                    c / n * math.log((c * n) / (pa[x] * pb[y]))
                    for (x, y), c in joint.items()
                )
                want_nmi = min(max(info / math.sqrt(h_a * h_b), 0.0), 1.0)
            assert abs(nmi(a, b) - want_nmi) <= 1e-12


# ---------------------------------------------------------------------- 3


def _loss_instance(which, r):
    emb = random_unit_rows(r, 5, 3)
    labels = np.array([0, 0, 0, 1, 1])
    if which == "contrastive":
        pairs = build_pairs(labels)
        fn = lambda e: contrastive_loss(e, pairs, 0.5)
    elif which == "triplet":
        trip = sample_random_triplets(labels, r)
        fn = lambda e: triplet_loss(e, trip, 0.2)
    elif which == "margin":
        pairs = build_pairs(labels)
        fn = lambda e: margin_loss(e, pairs, 0.2, 1.2)
    else:
        spec = LossSpec(kind="ms")
        fn = lambda e: multi_similarity_loss(e, labels, spec)
    return emb, fn


def test_criterion_3_gradient_suite():
    with criterion(3, "losses, encoder, and loss-through-production pass central "
                      "finite-difference checks (50 instances each)", budget_s=120):
        for which in ("contrastive", "triplet", "margin", "ms"):
            for trial in range(50):
                r = SeededRng(7000 + trial)
                emb, fn = _loss_instance(which, r)
                out = fn(emb)
                numeric = finite_difference(
                    lambda th: fn(th.reshape(emb.shape)).value, emb.ravel()
                )
                err = max_rel_error(out.grad.ravel(), numeric)
                assert err < 1e-4, f"{which} trial {trial}: rel err {err:.2e}"

        # encoder, including the normalization Jacobian
        for trial in range(50):
            r = SeededRng(8000 + trial)
            params = init_params([3, 4, 2], "tanh", r)
            x = r.normal(size=(2, 3))
            upstream = r.normal(size=(2, 2))
            _, tape = encode(params, x)
            analytic = backward(params, tape, upstream)

            def probe(theta):
                emb, _ = encode(with_theta(params, theta), x)
                return float(np.sum(upstream * emb))

            err = max_rel_error(analytic, finite_difference(probe, params.theta.copy()))
            assert err < 1e-4, f"encoder trial {trial}: rel err {err:.2e}"

        # full composition: encode -> produce (frozen factors) -> loss -> backward
        losses = ("triplet", "contrastive", "margin", "ms")
        for trial in range(50):
            r = SeededRng(9000 + trial)
            params = init_params([3, 4, 2], "tanh", r)
            x = r.normal(size=(3, 3))
            labels = np.array([0, 0, 1])
            t = 2
            rows = np.repeat(np.arange(3), t)
            scales = 1.0 + 0.3 * r.normal(size=(3 * t, 2))
            shifts = 0.2 * r.normal(size=(3 * t, 2))
            cat_labels = np.concatenate([labels, np.repeat(labels, t)])
            trip = sample_random_triplets(cat_labels, r)
            pairs = build_pairs(cat_labels)
            which = losses[trial % 4]
            spec = LossSpec(kind="ms")

            def loss_of(cat):
                if which == "triplet":
                    return triplet_loss(cat, trip, 0.2)
                if which == "contrastive":
                    return contrastive_loss(cat, pairs, 0.5)
                if which == "margin":
                    return margin_loss(cat, pairs, 0.2, 1.2)
                return multi_similarity_loss(cat, cat_labels, spec)

            def full(theta):
                emb, _ = encode(with_theta(params, theta), x)
                produced = combine_factors(emb, labels, rows, scales, shifts)
                assert produced.dropped == 0
                cat = np.vstack([emb, produced.embeddings])
                return loss_of(cat).value

            emb, tape = encode(params, x)
            produced = combine_factors(emb, labels, rows, scales, shifts)
            cat = np.vstack([emb, produced.embeddings])
            out = loss_of(cat)
            grad_real = out.grad[:3].copy()
            grad_real += produced_backward(produced, out.grad[3:], 3, 2)
            analytic = backward(params, tape, grad_real)
            err = max_rel_error(analytic, finite_difference(full, params.theta.copy()))
            assert err < 1e-4, f"composition trial {trial} ({which}): rel err {err:.2e}"


# ---------------------------------------------------------------------- 4


def test_criterion_4_statistical_suite():
    with criterion(4, "scaling draws match the uniform law; weighted sampling and "
                      "bank draws match analytic frequencies"):
        rs = 0.01
        rng = SeededRng(31337)
        n_draws = 100_000
        mask = np.ones((1, 1))
        draws = draw_scales(mask, np.zeros(n_draws, dtype=np.int64), rs, rng)[:, 0]
        se = (2 * rs / math.sqrt(12.0)) / math.sqrt(n_draws)
        assert abs(draws.mean() - 1.0) <= 3 * se
        assert draws.min() >= 1 - rs and draws.max() <= 1 + rs

        # d_e = 3 fixture: q(d) = d, negatives at 0.5 and 1.0 -> 2/3 vs 1/3
        emb = np.array([[0.0], [0.1], [0.5], [1.0]])
        labels = np.array([0, 0, 1, 1])
        dist = pairwise_distances(emb)
        rng = SeededRng(4242)
        picks = {2: 0, 3: 0}
        for _ in range(10_000):
            trip = sample_distance_weighted(dist, labels, rng, embed_dim=3,
                                            anchor_indices=[0])
            picks[int(trip.negatives[0])] += 1
        assert abs(picks[2] / 10_000 - 2 / 3) <= 0.02
        assert abs(picks[3] / 10_000 - 1 / 3) <= 0.02

        bank = TransformationBank(1, 8, 1)
        bank.enqueue(0, np.array([1.0]))
        bank.enqueue(0, np.array([2.0]))
        rng = SeededRng(99)
        hits = {1.0: 0, 2.0: 0}
        for shift in draw_shifts(bank, np.zeros(10_000, dtype=np.int64), 1.0, rng)[:, 0]:
            hits[float(shift)] += 1
        assert abs(hits[1.0] / 10_000 - 0.5) <= 0.02


# ---------------------------------------------------------------------- 5


@pytest.mark.slow
def test_criterion_5_directional_ablation(tmp_path):
    with criterion(5, "full production is non-inferior to baseline (>= -0.5 R@1 "
                      "points) and the four-cell ablation completes", budget_s=600):
        base = RunConfig()
        base.steps = 2000
        base.data.classes = 16
        base.data.per_class = 64
        base.data.input_dim = 32
        base.data.noise_sigma = 0.6
        base.data.seed = 1  # one pinned dataset across all training seeds
        base.encoder.hidden = [64]
        base.encoder.embed_dim = 16
        base.loss.kind = "triplet"
        base.sampler.kind = "distance"
        base.eval_ks = [1]
        base.eval_every = 0

        table = run_comparison(
            base, ablation_variants(), seeds=[0, 1, 2, 3, 4], out_dir=str(tmp_path)
        )
        print()
        print(table.format_table())
        assert [s.variant for s in table.summaries] == [
            "baseline", "dfs_only", "mts_only", "both",
        ]
        for s in table.summaries:
            assert s.n_ok == 5 and s.n_failed == 0
        summary = {s.variant: s for s in table.summaries}
        baseline, full = summary["baseline"].recall1_mean, summary["both"].recall1_mean
        assert full >= baseline - 0.005, (
            f"full production R@1 {full:.4f} vs baseline {baseline:.4f}"
        )
        assert (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------------- 6


def test_criterion_6_sweep_grids(tmp_path):
    with criterion(6, "K and Z sweep harnesses emit complete comparison tables"):
        base = RunConfig()
        base.steps = 30
        base.data.classes = 8
        base.data.per_class = 12
        base.data.input_dim = 8
        base.encoder.hidden = [16]
        base.encoder.embed_dim = 32  # K sweeps up to 32 channels
        base.batch.classes_per_batch = 4
        base.eval_ks = [1]
        base.eval_every = 0

        k_values = [1, 2, 4, 8, 16, 32]
        k_table = run_comparison(
            base, sweep_variants("das.K", k_values), seeds=[0],
            out_dir=str(tmp_path / "k_sweep"),
        )
        assert [s.variant for s in k_table.summaries] == [f"das.K={v}" for v in k_values]
        assert all(s.n_ok == 1 and s.n_failed == 0 for s in k_table.summaries)
        assert (tmp_path / "k_sweep" / "report.csv").exists()

        z_values = [1, 2, 3, 4, 5]
        z_table = run_comparison(
            base, sweep_variants("das.Z", z_values), seeds=[0],
            out_dir=str(tmp_path / "z_sweep"),
        )
        assert [s.variant for s in z_table.summaries] == [f"das.Z={v}" for v in z_values]
        assert all(s.n_ok == 1 and s.n_failed == 0 for s in z_table.summaries)
        assert (tmp_path / "z_sweep" / "report.csv").exists()


# ---------------------------------------------------------------------- 7


def test_criterion_7_byte_identical_logs(tmp_path):
    with criterion(7, "repeated train invocations with one seed give byte-identical "
                      "run logs"):
        args = [
            "train", "--seed", "77",
            "--set", "steps=40",
            "--set", "data.classes=8",
            "--set", "data.per_class=12",
            "--set", "data.input_dim=8",
            "--set", "encoder.hidden=16",
            "--set", "encoder.embed_dim=8",
            "--set", "batch.classes_per_batch=4",
            "--set", "eval_ks=1,2",
            "--set", "eval_every=10",
        ]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        log_a = (tmp_path / "a" / "run.log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "run.log.jsonl").read_bytes()
        assert log_a == log_b
        assert len(log_a) > 0
        # the log is valid JSONL with step and eval records
        records = [json.loads(line) for line in log_a.decode().splitlines()]
        assert any(rec["type"] == "eval" for rec in records)
        assert sum(rec["type"] == "step" for rec in records) == 40
