import copy
import json
import os

import numpy as np
import pytest

from densedml.config import RunConfig, apply_override, config_from_dict
from densedml.core import SeededRng
from densedml.data import generate_gaussian_clusters
from densedml.encoder import OptimizerState, init_params, save_checkpoint
from densedml.errors import (
    ConfigError,
    CorruptCheckpointError,
    NoValidTripletError,
    ShapeMismatchError,
    TrainingAbortError,
)
import densedml.das as das
import densedml.sampling as sampling
import densedml.training as training
from densedml.sampling import anchor_layout
from densedml.training import (
    ComparisonTable,
    VariantSummary,
    ablation_variants,
    evaluate_checkpoint,
    run_comparison,
    sweep_variants,
    train,
)

from oracles import identity_params, install_replicated_baseline


def tiny_config(steps=10, seed=3):
    cfg = RunConfig()
    cfg.steps = steps
    cfg.seed = seed
    cfg.data.classes = 8
    cfg.data.per_class = 12
    cfg.data.input_dim = 8
    cfg.encoder.hidden = [16]
    cfg.encoder.embed_dim = 8
    cfg.batch.classes_per_batch = 4
    cfg.eval_ks = [1, 2]
    return cfg


def step_records(result):
    return [json.loads(l) for l in result.log_lines if json.loads(l)["type"] == "step"]


class TestTrainLoop:
    def test_das_off_matches_baseline_structure(self):
        cfg = tiny_config()
        cfg.das.enabled = False
        res = train(cfg)
        for rec in step_records(res):
            assert rec["produced"] == 0 and rec["dropped"] == 0

    def test_produced_counts(self):
        cfg = tiny_config()
        res = train(cfg)
        batch = cfg.batch.classes_per_batch * cfg.batch.samples_per_class
        for rec in step_records(res):
            assert rec["produced"] + rec["dropped"] == batch * cfg.das.T

    def test_t_zero_equals_disabled(self):
        on = tiny_config()
        on.das.enabled = True
        on.das.T = 0
        off = tiny_config()
        off.das.enabled = False
        a, b = train(on), train(off)
        assert a.log_lines == b.log_lines
        assert a.params.theta.copy().tobytes() == b.params.theta.copy().tobytes()

    def test_byte_identical_reruns(self):
        a = train(tiny_config(steps=25))
        b = train(tiny_config(steps=25))
        assert a.log_lines == b.log_lines
        np.testing.assert_array_equal(a.params.theta.copy(), b.params.theta.copy())

    def test_seed_changes_log(self):
        a = train(tiny_config(seed=1))
        b = train(tiny_config(seed=2))
        assert a.log_lines != b.log_lines

    def test_trace_full_pipeline(self):
        cfg = tiny_config(steps=2)
        trace = []
        train(cfg, trace=trace)
        per_step = [
            "batch", "encode", "frm", "scale", "transform", "enqueue",
            "shift", "produce", "sample", "loss", "update",
        ]
        assert trace == per_step * 2

    def test_trace_das_disabled(self):
        cfg = tiny_config(steps=2)
        cfg.das.enabled = False
        trace = []
        train(cfg, trace=trace)
        assert trace == ["batch", "encode", "sample", "loss", "update"] * 2

    def test_trace_t_zero_skips_das_phases(self):
        cfg = tiny_config(steps=2)
        cfg.das.T = 0
        trace = []
        res = train(cfg, trace=trace)
        assert trace == ["batch", "encode", "sample", "loss", "update"] * 2
        assert all(rec["produced"] == 0 for rec in step_records(res))

    def test_trace_ablation_paths(self):
        dfs = tiny_config(steps=1)
        dfs.das.rb = 0.0
        trace = []
        train(dfs, trace=trace)
        assert trace == ["batch", "encode", "frm", "scale", "produce", "sample",
                         "loss", "update"]
        mts = tiny_config(steps=1)
        mts.das.rs = 0.0
        trace = []
        train(mts, trace=trace)
        assert trace == ["batch", "encode", "transform", "enqueue", "shift",
                         "produce", "sample", "loss", "update"]

    def test_zero_radius_matches_replicated_baseline(self, monkeypatch):
        das_cfg = tiny_config(steps=50, seed=123)
        das_cfg.das.rs = 0.0
        das_cfg.das.rb = 0.0
        a = train(das_cfg)
        install_replicated_baseline(monkeypatch)
        b = train(das_cfg)
        assert np.max(np.abs(a.params.theta.copy() - b.params.theta.copy())) < 1e-9

    def test_nonfinite_loss_aborts(self, monkeypatch):
        import densedml.training as train_mod
        from densedml.losses import LossOutput

        def bad_loss(cfg, emb, labels, triplets, beta, dist):
            return LossOutput(float("nan"), np.zeros_like(emb), 0)

        monkeypatch.setattr(train_mod, "_loss_for", bad_loss)
        with pytest.raises(TrainingAbortError, match="^step 1: non-finite loss nan$"):
            train(tiny_config(steps=3))

    def test_component_error_carries_step_context(self, monkeypatch):
        # an engine error inside a step aborts the run with the step number
        import densedml.training as train_mod

        def no_triplets(*args, **kwargs):
            raise NoValidTripletError("no anchor admits a (positive, negative) pair")

        monkeypatch.setattr(train_mod, "sample_triplets", no_triplets)
        with pytest.raises(TrainingAbortError, match="step 1: no anchor"):
            train(tiny_config(steps=3))

    @pytest.mark.parametrize("loss_kind", ["contrastive", "triplet", "margin", "ms"])
    def test_all_losses_run(self, loss_kind):
        cfg = tiny_config(steps=5)
        cfg.loss.kind = loss_kind
        res = train(cfg)
        assert all(np.isfinite(r["loss"]) for r in step_records(res))

    @pytest.mark.parametrize("sampler", ["random", "semihard", "softhard", "distance"])
    def test_all_samplers_run(self, sampler):
        cfg = tiny_config(steps=5)
        cfg.sampler.kind = sampler
        res = train(cfg)
        assert len(step_records(res)) == 5

    def test_produced_as_anchors_flag_changes_run(self):
        a = tiny_config(steps=15)
        b = tiny_config(steps=15)
        b.sampler.produced_as_anchors = False
        res_a, res_b = train(a), train(b)
        assert res_a.log_lines != res_b.log_lines

    def test_margin_beta_moves(self):
        cfg = tiny_config(steps=20)
        cfg.loss.kind = "margin"
        res = train(cfg)
        assert res.margin_beta != cfg.loss.margin_beta

    @pytest.mark.parametrize("loss_kind", ["triplet", "margin"])
    def test_state_is_complete(self, monkeypatch, loss_kind):
        # a copy of the state after step k, stepped on its own, finishes the
        # run exactly as the straight run does: no state lives outside it
        cfg = tiny_config(steps=9)
        cfg.loss.kind = loss_kind
        assert cfg.das.enabled and cfg.das.rs > 0 and cfg.das.rb > 0
        k, real_step, snapshot = 4, training.step, []

        def copying_step(state, cfg, emit):
            record = real_step(state, cfg, emit)
            if record["step"] == k:
                snapshot.append(copy.deepcopy(state))
            return record

        monkeypatch.setattr(training, "step", copying_step)
        straight = train(cfg)
        monkeypatch.undo()
        state = snapshot[0]
        rest = [real_step(state, cfg, lambda phase: None) for _ in range(cfg.steps - k)]
        report = training._evaluate_split(state.params, state.dataset, cfg.eval_ks, cfg.seed)
        assert [json.dumps(r) for r in rest] == [
            json.dumps(r) for r in step_records(straight)[k:]
        ]
        assert state.params.theta.copy().tobytes() == straight.params.theta.copy().tobytes()
        assert report.to_json_dict() == straight.final_report.to_json_dict()
        assert state.margin_beta == straight.margin_beta
        if loss_kind == "margin":
            assert straight.margin_beta != cfg.loss.margin_beta


def force_drops(monkeypatch):
    """Make every fifth produced row collapse (s*v - s*v is exactly 0), so
    every DAS step drops rows."""
    combine = das.combine_factors

    def dropping(emb, labels, anchors, scales, shifts):
        shifts = shifts.copy()
        shifts[::5] = -scales[::5] * emb[anchors[::5]]
        return combine(emb, labels, anchors, scales, shifts)

    monkeypatch.setattr(das, "combine_factors", dropping)


class TestBatchLayoutPath:
    """A run on the layout built in set-up equals one whose every step takes
    DAS's checked path, with no layout, and mines from an `anchor_layout` of
    that step's labels, also when production drops rows."""

    @staticmethod
    def layout_every_step(monkeypatch, produced_as_anchors):
        produce, sample_triplets = training.produce, training.sample_triplets
        step_layout = []

        def producing(emb, labels, *args):
            produced = produce(emb, labels, *args[:5])
            pool = None if produced_as_anchors else np.arange(len(labels))
            step_layout[:] = [anchor_layout(np.concatenate([labels, produced.labels]), pool)]
            return produced

        monkeypatch.setattr(training, "produce", producing)
        monkeypatch.setattr(training, "sample_triplets", lambda kind, dist, layout, *args, **kw:
                            sample_triplets(kind, dist, step_layout[0], *args, **kw))

    @pytest.mark.parametrize("kind", ["distance", "random", "semihard", "softhard"])
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("produced_as_anchors", [True, False])
    def test_equals_the_checked_path(self, monkeypatch, kind, drop, produced_as_anchors):
        cfg = tiny_config(steps=6)
        cfg.sampler.kind = kind
        cfg.sampler.produced_as_anchors = produced_as_anchors
        if drop:
            force_drops(monkeypatch)
        got = train(cfg)
        assert any(rec["dropped"] for rec in step_records(got)) == drop
        self.layout_every_step(monkeypatch, produced_as_anchors)
        want = train(cfg)
        assert got.log_lines == want.log_lines
        assert got.params.theta.tobytes() == want.params.theta.tobytes()


class TestRunLayoutIsTheOnlySource:
    """`anchor_layout` runs once in set-up (inside `batch_layout`), then only
    on a step whose production dropped rows, once."""

    @pytest.mark.parametrize("das_on, drop", [(False, False), (True, False), (True, True)])
    def test_anchor_layout_calls_per_step(self, monkeypatch, das_on, drop):
        calls, build = [], sampling.anchor_layout

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(sampling, "anchor_layout", counting)
        monkeypatch.setattr(training, "anchor_layout", counting)
        if drop:
            force_drops(monkeypatch)
        cfg = tiny_config(steps=6)
        cfg.das.enabled = das_on
        starts, ends = [], []  # the call count at each step's first and last phase

        class Trace:
            def append(self, phase):
                {"batch": starts, "update": ends}.get(phase, []).append(len(calls))

        records = step_records(train(cfg, trace=Trace()))
        assert starts[0] == 1  # set-up's batch_layout
        assert [rec["dropped"] > 0 for rec in records] == [drop] * cfg.steps
        assert [end - start for start, end in zip(starts, ends)] == [int(drop)] * cfg.steps


class TestArtifacts:
    def test_out_dir_files(self, tmp_path):
        cfg = tiny_config(steps=4)
        cfg.out_dir = str(tmp_path / "run")
        train(cfg)
        for name in ("run.log.jsonl", "config.json", "checkpoint.json"):
            assert os.path.exists(os.path.join(cfg.out_dir, name))

    def test_log_file_byte_identical(self, tmp_path):
        a = tiny_config(steps=8)
        a.out_dir = str(tmp_path / "a")
        b = tiny_config(steps=8)
        b.out_dir = str(tmp_path / "b")
        train(a)
        train(b)
        with open(os.path.join(a.out_dir, "run.log.jsonl"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(b.out_dir, "run.log.jsonl"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    def test_final_report_matches_checkpoint_eval(self, tmp_path):
        cfg = tiny_config(steps=6)
        cfg.out_dir = str(tmp_path / "run")
        res = train(cfg)
        report = evaluate_checkpoint(
            os.path.join(cfg.out_dir, "checkpoint.json"), res.dataset, ks=cfg.eval_ks
        )
        assert report.to_json_dict() == res.final_report.to_json_dict()

    def test_evaluate_is_deterministic(self, tmp_path):
        cfg = tiny_config(steps=4)
        cfg.out_dir = str(tmp_path / "run")
        res = train(cfg)
        path = os.path.join(cfg.out_dir, "checkpoint.json")
        r1 = evaluate_checkpoint(path, res.dataset, ks=[1])
        r2 = evaluate_checkpoint(path, res.dataset, ks=[1])
        assert r1.to_json_dict() == r2.to_json_dict()


class TestEvaluate:
    def test_identity_encoder_on_separated_clusters(self, tmp_path):
        ds = generate_gaussian_clusters(4, 8, 6, 10.0, 0.05, SeededRng(2))
        params = identity_params(6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, OptimizerState(), seed=0)
        report = evaluate_checkpoint(path, ds, ks=[1])
        assert report.recall_at[1] == 1.0

    def test_dimension_mismatch(self, tmp_path):
        ds = generate_gaussian_clusters(4, 8, 5, 10.0, 0.05, SeededRng(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, identity_params(6), OptimizerState(), seed=0)
        with pytest.raises(ShapeMismatchError):
            evaluate_checkpoint(path, ds, ks=[1])


    def test_overflowing_params_name_the_file(self, tmp_path):
        # finite parameters whose forward pass overflows to non-finite rows
        ds = generate_gaussian_clusters(4, 8, 6, 10.0, 0.05, SeededRng(2))
        params = init_params([6, 8, 4], "relu", SeededRng(0))
        params.theta[:] = 1e300
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, OptimizerState(), seed=0)
        with pytest.raises(CorruptCheckpointError) as err:
            evaluate_checkpoint(path, ds, ks=[1])
        assert str(err.value) == (f"{path}: the parameters overflow the encoder: "
                                  f"non-finite outputs on the test split")


class TestComparison:
    def test_ablation_grid_shape(self, tmp_path):
        base = tiny_config(steps=6)
        table = run_comparison(
            base, ablation_variants(), seeds=[0, 1], out_dir=str(tmp_path)
        )
        assert [s.variant for s in table.summaries] == [
            "baseline", "dfs_only", "mts_only", "both",
        ]
        assert all(s.n_ok == 2 and s.n_failed == 0 for s in table.summaries)
        assert os.path.exists(tmp_path / "report.csv")
        text = table.format_table()
        assert "baseline" in text and "R@1" in text

    def test_mean_is_arithmetic_mean(self):
        base = tiny_config(steps=6)
        table = run_comparison(base, [("only", {})], seeds=[0, 1, 2])
        cells = [c for c in table.cells if c.status == "ok"]
        expected = np.mean([c.recall1 for c in cells])
        assert table.summaries[0].recall1_mean == pytest.approx(expected)

    def test_failed_cell_marked_and_run_continues(self):
        base = tiny_config(steps=4)
        variants = [
            ("bad", {"das.K": "999"}),  # K > embed_dim -> config error inside the cell
            ("good", {}),
        ]
        table = run_comparison(base, variants, seeds=[0])
        bad, good = table.summaries
        assert (bad.variant, bad.n_failed) == ("bad", 1)
        assert (good.variant, good.n_ok) == ("good", 1)
        failed = [c for c in table.cells if c.status == "failed"]
        assert failed and failed[0].error

    @pytest.mark.parametrize("variants, seeds", [
        ([("a", {}), ("a", {"das.T": "2"})], [0]),
        ([("a", {})], [0, 1, 0]),
    ])
    def test_repeated_variant_or_seed_rejected(self, monkeypatch, variants, seeds):
        import densedml.training as train_mod

        trained = []
        monkeypatch.setattr(train_mod, "train", trained.append)
        with pytest.raises(ConfigError, match="is listed twice"):
            run_comparison(tiny_config(steps=2), variants, seeds)
        assert trained == []

    def test_report_csv_bytes(self, tmp_path):
        table = ComparisonTable(summaries=[
            VariantSummary("baseline", 2, 0, 0.5, 0.125, 0.25, 0.0, 1 / 3, 2 / 3),
            VariantSummary("both", 0, 2, *[float("nan")] * 6),
        ])
        path = tmp_path / "report.csv"
        table.write_csv(path)
        assert path.read_bytes() == (
            b"variant,n_ok,n_failed,recall1_mean,recall1_std,nmi_mean,nmi_std,f1_mean,f1_std\r\n"
            b"baseline,2,0,0.500000,0.125000,0.250000,0.000000,0.333333,0.666667\r\n"
            b"both,0,2,nan,nan,nan,nan,nan,nan\r\n"
        )

    def test_sweep_variants_grid(self):
        base = tiny_config(steps=4)
        table = run_comparison(base, sweep_variants("das.Z", [1, 2, 3]), seeds=[0])
        assert [s.variant for s in table.summaries] == ["das.Z=1", "das.Z=2", "das.Z=3"]
        assert all(s.n_ok == 1 for s in table.summaries)


class TestConfig:
    def test_apply_override_types(self):
        cfg = RunConfig()
        apply_override(cfg, "das.T", "5")
        apply_override(cfg, "das.rs", "0.25")
        apply_override(cfg, "das.enabled", "false")
        apply_override(cfg, "encoder.hidden", "32,16")
        apply_override(cfg, "sampler.produced_as_anchors", "false")
        assert cfg.das.T == 5
        assert cfg.das.rs == 0.25
        assert cfg.das.enabled is False
        assert cfg.encoder.hidden == [32, 16]
        assert cfg.sampler.produced_as_anchors is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_override(RunConfig(), "das.nope", "1")
        with pytest.raises(ConfigError):
            apply_override(RunConfig(), "nope", "1")

    def test_bad_values_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            apply_override(cfg, "das.T", "many")
        with pytest.raises(ConfigError):
            apply_override(cfg, "das.enabled", "perhaps")

    @pytest.mark.parametrize("doc, key", [
        ({"steps": 2.7}, "steps"),
        ({"eval_ks": [1.5, True]}, "eval_ks"),
        ({"das": {"T": True}}, "das.T"),
        ({"das": {"rb": True}}, "das.rb"),
        ({"das": 3}, "'das'"),
        ({"data": {"path": 5}}, "data.path"),
        ({"encoder": {"activation": ["relu"]}}, "encoder.activation"),
    ])
    def test_wrong_type_rejected_naming_key(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    def test_integral_json_float_and_null_accepted(self):
        cfg = config_from_dict({"steps": 3.0, "eval_ks": [1.0, 2], "loss": {"beta_lr": None}})
        assert cfg.steps == 3 and type(cfg.steps) is int
        assert cfg.eval_ks == [1, 2] and all(type(k) is int for k in cfg.eval_ks)
        assert cfg.loss.beta_lr is None

    @pytest.mark.parametrize("key, value", [
        ("optim.momentum", -0.5), ("optim.momentum", 1.0), ("optim.momentum", 1.5),
        ("sampler.clip", 0.0), ("sampler.clip", -1.0),
        ("sampler.semihard_margin", 0.0), ("sampler.semihard_margin", -0.2),
    ])
    def test_out_of_range_rejected_naming_key(self, key, value):
        cfg = RunConfig()
        apply_override(cfg, key, value)
        with pytest.raises(ConfigError, match=key):
            cfg.validate()

    def test_validation_catches_bad_batch(self):
        cfg = tiny_config()
        cfg.batch.samples_per_class = 1
        with pytest.raises(ConfigError):
            train(cfg)
