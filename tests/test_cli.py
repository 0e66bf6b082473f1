import json

import numpy as np
import pytest

import densedml.training as training
from densedml.cli import main
from densedml.config import RunConfig, config_to_dict, load_config
from densedml.data import load_csv


def run_cli(*args):
    return main(list(args))


# 6 classes x 8 points in 6 dimensions: a CSV split 3/3
CSV_DATA = ["--set", "data.classes=6", "--set", "data.per_class=8", "--set", "data.input_dim=6"]

BASE_OVERRIDES = [
    "--set", "steps=4",
    "--set", "data.classes=8",
    "--set", "data.per_class=10",
    "--set", "data.input_dim=8",
    "--set", "encoder.hidden=16",
    "--set", "encoder.embed_dim=8",
    "--set", "batch.classes_per_batch=4",
    "--set", "eval_ks=1,2",
]


SMALL_DATA = [
    "--set", "data.classes=4", "--set", "data.per_class=6", "--set", "data.input_dim=5",
]


class TestGenerateData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run_cli("generate-data", "--out", str(out), *SMALL_DATA, "--seed", "3")
        assert code == 0
        ds = load_csv(out, label_column=5)
        assert ds.n_points == 24 and ds.n_classes == 4
        assert "24 points" in capsys.readouterr().out

    def test_bad_params_exit_2(self, tmp_path):
        code = run_cli(
            "generate-data", "--out", str(tmp_path / "x.csv"), "--set", "data.noise_sigma=0",
        )
        assert code == 2

    def test_writes_the_dataset_train_uses(self, tmp_path):
        config = tmp_path / "cfg.json"
        assert run_cli("write-config", "--out", str(config), *SMALL_DATA, "--seed", "3") == 0
        from_file, from_sets = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("generate-data", "--out", str(from_file), "--config", str(config)) == 0
        assert run_cli("generate-data", "--out", str(from_sets), *SMALL_DATA, "--seed", "3") == 0
        assert from_file.read_bytes() == from_sets.read_bytes()
        cfg = load_config(config)
        cfg.steps, cfg.eval_ks, cfg.batch.classes_per_batch = 1, [1], 2
        trained_on = training.train(cfg).dataset
        written = load_csv(from_file, label_column=-1)
        np.testing.assert_array_equal(written.features, trained_on.features)
        np.testing.assert_array_equal(written.labels, trained_on.labels)

    def test_pinned_data_seed_ignores_run_seed(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for seed, out in zip(("1", "2"), outs):
            assert run_cli(
                "generate-data", "--out", str(out), *SMALL_DATA,
                "--set", "data.seed=5", "--seed", seed,
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_takes_no_out_dir(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run_cli("generate-data", "--out", str(tmp_path / "x.csv"), "--out-dir", "d")
        assert exit_.value.code == 2


class TestTrain:
    def test_train_writes_artifacts_and_report(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run_cli("train", "--out-dir", str(out_dir), "--seed", "5", *BASE_OVERRIDES)
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "recall@1" in report and report["step"] == 4
        assert (out_dir / "run.log.jsonl").exists()
        assert (out_dir / "checkpoint.json").exists()

    def test_same_seed_byte_identical_logs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_cli("train", "--out-dir", str(d), "--seed", "9", *BASE_OVERRIDES) == 0
        logs = [(d / "run.log.jsonl").read_bytes() for d in dirs]
        assert logs[0] == logs[1]

    def test_unknown_key_exit_2(self):
        assert run_cli("train", "--set", "das.bogus=1") == 2

    def test_section_key_exit_2(self, capsys):
        assert run_cli("train", "--set", "das=3", *BASE_OVERRIDES) == 2
        assert "unknown config key 'das'" in capsys.readouterr().err

    def test_invalid_value_exit_2(self):
        assert run_cli("train", "--set", "das.rs=1.5", *BASE_OVERRIDES) == 2

    @pytest.mark.parametrize("assignments, key", [
        (["optim.kind=sgd", "optim.momentum=-0.5"], "optim.momentum"),
        (["optim.kind=sgd", "optim.momentum=1.5"], "optim.momentum"),
        (["sampler.clip=0"], "sampler.clip"),
        (["sampler.clip=-1"], "sampler.clip"),
    ], ids=["momentum_negative", "momentum_above_one", "clip_zero", "clip_negative"])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, assignments, key):
        sets = [arg for item in assignments for arg in ("--set", item)]
        code = run_cli("train", "--out-dir", str(tmp_path / "r"), *BASE_OVERRIDES, *sets)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_produced_as_anchors_flag(self, tmp_path):
        code = run_cli(
            "train", "--out-dir", str(tmp_path / "r"),
            "--set", "sampler.produced_as_anchors=false", *BASE_OVERRIDES,
        )
        assert code == 0
        cfg = json.loads((tmp_path / "r" / "config.json").read_text())
        assert cfg["sampler"]["produced_as_anchors"] is False

    def test_csv_dataset_via_config(self, tmp_path):
        data = tmp_path / "d.csv"
        assert run_cli("generate-data", "--out", str(data), *CSV_DATA) == 0
        code = run_cli(
            "train",
            "--set", f"data.path={data}",
            "--set", "steps=3",
            "--set", "encoder.hidden=8",
            "--set", "encoder.embed_dim=6",
            "--set", "batch.classes_per_batch=3",
            "--set", "eval_ks=1",
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == 0

    def test_data_path_alone_trains_on_the_csv(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run_cli("generate-data", "--out", str(data), *CSV_DATA) == 0
        capsys.readouterr()
        code = run_cli(
            "train", *BASE_OVERRIDES, "--set", f"data.path={data}",
            "--set", "encoder.embed_dim=6", "--set", "batch.classes_per_batch=3",
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["n_queries"] == 24  # 3 test classes x 8 points of the CSV
        checkpoint = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert checkpoint["layer_sizes"][0] == 6  # the CSV's input dim

    def test_empty_csv_exit_3(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("\n")
        code = run_cli("train", *BASE_OVERRIDES, "--set", f"data.path={data}",
                       "--out-dir", str(tmp_path / "run"))
        assert code == 3
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"data": {"kind": "csv"}}, "data.kind"),
        ({"das": {"dfs_only": True}}, "das.dfs_only"),
        ({"das": {"mts_only": False}}, "das.mts_only"),
    ])
    def test_retired_key_in_config_file_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(path), *BASE_OVERRIDES) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err


class TestCsvLabelColumn:
    """The default label column is the last one of the first data row, even
    when blank lines come before it."""

    @staticmethod
    def csv_pair(tmp_path):
        plain = tmp_path / "d.csv"
        assert run_cli("generate-data", "--out", str(plain), *CSV_DATA) == 0
        blank_first = tmp_path / "blank_first.csv"
        blank_first.write_text("\n" + plain.read_text())
        return plain, blank_first

    def test_train_from_config(self, tmp_path, capsys):
        reports = []
        for path in self.csv_pair(tmp_path):
            capsys.readouterr()
            assert run_cli(
                "train",
                "--set", f"data.path={path}",
                "--set", "steps=3",
                "--set", "encoder.hidden=8",
                "--set", "encoder.embed_dim=6",
                "--set", "batch.classes_per_batch=3",
                "--set", "eval_ks=1",
            ) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_evaluate_csv(self, tmp_path, capsys):
        plain, blank_first = self.csv_pair(tmp_path)
        out_dir = tmp_path / "run"
        assert run_cli(
            "train", "--out-dir", str(out_dir), *BASE_OVERRIDES,
            "--set", "data.input_dim=6", "--set", "data.classes=6",
            "--set", "batch.classes_per_batch=3",
        ) == 0
        reports = []
        for path in (plain, blank_first):
            capsys.readouterr()
            assert run_cli(
                "evaluate", "--checkpoint", str(out_dir / "checkpoint.json"),
                "--set", f"data.path={path}", "--set", "eval_ks=1",
            ) == 0
            reports.append(json.loads(capsys.readouterr().out.strip()))
        assert reports[0] == reports[1]
        assert reports[0]["n_queries"] == 24  # 3 test classes x 8 points


class TestPreflight:
    """Settings the dataset cannot serve exit 2 before the first batch."""

    @staticmethod
    def run_without_steps(monkeypatch, *args):
        import densedml.training as train_mod

        def no_batches(*a, **kw):
            raise AssertionError("a step ran")

        monkeypatch.setattr(train_mod, "sample_batch", no_batches)
        return run_cli("train", *BASE_OVERRIDES, *args)

    def test_eval_k_beyond_test_split_exit_2(self, monkeypatch, capsys):
        # 4 test classes x 10 points: recall@40 needs 41
        assert self.run_without_steps(monkeypatch, "--set", "eval_ks=1,40") == 2
        assert "eval_ks max 40" in capsys.readouterr().err

    def test_more_batch_classes_than_train_classes_exit_2(self, monkeypatch, capsys):
        # 8 classes split 4/4
        code = self.run_without_steps(monkeypatch, "--set", "batch.classes_per_batch=5")
        assert code == 2
        assert "batch.classes_per_batch=5" in capsys.readouterr().err


class TestIntegerLists:
    """Integer lists from a config file, --seeds and eval_ks fail with exit 2."""

    @pytest.mark.parametrize("doc, key", [
        ({"eval_ks": ["a"]}, "eval_ks"),
        ({"encoder": {"hidden": [None]}}, "encoder.hidden"),
    ])
    def test_config_file_list_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(path)) == 2
        assert f"{key}: expected a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("compare",),
        ("sweep", "--param", "das.K", "--values", "1"),
    ])
    def test_seeds_exit_2(self, capsys, command):
        assert run_cli(*command, "--seeds", "0,x", *BASE_OVERRIDES) == 2
        assert "--seeds: expected a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("compare",),
        ("sweep", "--param", "das.K", "--values", "1"),
    ])
    def test_no_seeds_exit_2(self, capsys, monkeypatch, command):
        trained = []
        monkeypatch.setattr(training, "train", trained.append)
        assert run_cli(*command, "--seeds", "", *BASE_OVERRIDES) == 2
        assert "at least one variant and one seed" in capsys.readouterr().err
        assert trained == []

    def test_evaluate_ks_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "no.json"), "--set", "eval_ks=1,a")
        assert code == 2
        assert "eval_ks: expected a list of integers" in capsys.readouterr().err


class TestEvaluate:
    def test_checkpoint_eval_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate",
            "--checkpoint", str(out_dir / "checkpoint.json"),
            "--set", "eval_ks=1,2",
            "--set", "data.classes=8",
            "--set", "data.per_class=10",
            "--set", "data.input_dim=8",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert set(report) >= {"recall@1", "recall@2", "nmi", "f1"}

    def test_scores_config_eval_ks(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--config", str(out_dir / "config.json"),
            "--checkpoint", str(out_dir / "checkpoint.json"), "--set", "eval_ks=1",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert [key for key in report if key.startswith("recall@")] == ["recall@1"]

    @pytest.mark.parametrize("ks", ["", "0,1"])
    def test_bad_config_eval_ks_exit_2(self, tmp_path, capsys, ks):
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "no.json"), "--set", f"eval_ks={ks}")
        assert code == 2
        assert "eval_ks must be a nonempty list" in capsys.readouterr().err

    def test_unknown_data_kind_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        code = run_cli(
            "evaluate", "--config", str(out_dir / "config.json"),
            "--checkpoint", str(out_dir / "checkpoint.json"), "--set", "data.kind=cvs",
        )
        assert code == 2
        assert "unknown config key 'data.kind'" in capsys.readouterr().err

    def test_eval_k_beyond_test_split_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        capsys.readouterr()
        # 4 test classes x 10 points: recall@40 needs 41; checked before the
        # checkpoint is read, so a missing one changes nothing
        for checkpoint in (out_dir / "checkpoint.json", tmp_path / "no.json"):
            code = run_cli(
                "evaluate", "--config", str(out_dir / "config.json"),
                "--checkpoint", str(checkpoint), "--set", "eval_ks=1,40",
            )
            assert code == 2
            assert "eval_ks max 40 needs at least 41 test points" in capsys.readouterr().err

    def test_bad_optimizer_scalar_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        path = out_dir / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["optimizer"].update(lr="0.1", step_count=2.5)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("evaluate", "--config", str(out_dir / "config.json"),
                       "--checkpoint", str(path))
        assert code == 3
        assert "optimizer lr must be a finite number" in capsys.readouterr().err

    def test_bad_layer_sizes_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        path = out_dir / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["layer_sizes"] = [8]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("evaluate", "--config", str(out_dir / "config.json"),
                       "--checkpoint", str(path))
        assert code == 3
        assert "layer_sizes must list at least two positive integers" in capsys.readouterr().err

    def test_missing_checkpoint_exit_3(self, tmp_path):
        assert run_cli("evaluate", "--checkpoint", str(tmp_path / "no.json")) == 3


class TestCompareAndSweep:
    def test_ablation_table(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = run_cli(
            "compare", "--variants", "ablation", "--seeds", "0,1",
            "--out-dir", str(out_dir), *BASE_OVERRIDES,
        )
        assert code == 0
        table = capsys.readouterr().out
        for name in ("baseline", "dfs_only", "mts_only", "both"):
            assert name in table
        assert (out_dir / "report.csv").exists()
        lines = (out_dir / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 variants

    def test_custom_variants_file(self, tmp_path, capsys):
        variants = tmp_path / "v.json"
        variants.write_text(json.dumps([
            {"name": "tight", "set": {"das.rs": "0.001"}},
            {"name": "wide", "set": {"das.rs": "0.2"}},
        ]))
        code = run_cli(
            "compare", "--variants", str(variants), "--seeds", "0", *BASE_OVERRIDES,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tight" in out and "wide" in out

    @pytest.mark.parametrize("text, message", [
        ('[{"set": {"das.rs": "0.2"}}]', "entry 0 needs a \"name\""),
        ('[{"name": "a"}, "b"]', "entry 1 needs a \"name\""),
        ('{"name": "a"}', "must hold a JSON list"),
        ('[{"name": "a",]', "is not valid JSON"),
    ])
    def test_bad_variants_file_exit_2(self, tmp_path, capsys, text, message):
        variants = tmp_path / "v.json"
        variants.write_text(text)
        code = run_cli(
            "compare", "--variants", str(variants), "--seeds", "0", *BASE_OVERRIDES,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(variants) in err and message in err

    def test_missing_variants_file_exit_2(self, tmp_path, capsys):
        variants = tmp_path / "nofile.json"
        code = run_cli(
            "compare", "--variants", str(variants), "--seeds", "0", *BASE_OVERRIDES,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(variants) in err and "cannot read variants file" in err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_unparsable_value_trains_no_cell(self, tmp_path, capsys, monkeypatch, command):
        trained = []
        real_train = training.train
        monkeypatch.setattr(training, "train", lambda cfg: trained.append(cfg) or real_train(cfg))
        variants = tmp_path / "v.json"
        variants.write_text(json.dumps(
            [{"name": "fine", "set": {}}, {"name": "bad", "set": {"das.T": "x"}}]))
        args = {
            "sweep": ("sweep", "--param", "das.K", "--values", "1,x"),
            "compare": ("compare", "--variants", str(variants)),
        }[command]
        assert run_cli(*args, "--seeds", "0,1", *BASE_OVERRIDES) == 2
        assert "expected an integer, got 'x'" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("key, value", [("seed", "2"), ("out_dir", "elsewhere")])
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_cell_owned_key_trains_no_cell(self, tmp_path, capsys, monkeypatch,
                                           command, key, value):
        trained = []
        real_train = training.train
        monkeypatch.setattr(training, "train", lambda cfg: trained.append(cfg) or real_train(cfg))
        variants = tmp_path / "v.json"
        variants.write_text(json.dumps(
            [{"name": "fine", "set": {}}, {"name": "owned", "set": {key: value}}]))
        args = {
            "sweep": ("sweep", "--param", key, "--values", value),
            "compare": ("compare", "--variants", str(variants)),
        }[command]
        monkeypatch.chdir(tmp_path)
        assert run_cli(*args, "--seeds", "0", *BASE_OVERRIDES) == 2
        assert f"sets {key}, which the comparison sets for each cell" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("args, message", [
        (("compare", "--seeds", "0,0"), "seed 0 is listed twice"),
        (("sweep", "--param", "das.K", "--values", "1,1", "--seeds", "0"),
         "variant 'das.K=1' is listed twice"),
    ])
    def test_repeated_cell_trains_no_cell(self, capsys, monkeypatch, args, message):
        trained = []
        monkeypatch.setattr(training, "train", trained.append)
        assert run_cli(*args, *BASE_OVERRIDES) == 2
        assert message in capsys.readouterr().err
        assert trained == []

    def test_sweep_k_grid(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--param", "das.K", "--values", "1,2,4", "--seeds", "0",
            "--out-dir", str(tmp_path / "sweep"), *BASE_OVERRIDES,
        )
        assert code == 0
        out = capsys.readouterr().out
        for v in ("das.K=1", "das.K=2", "das.K=4"):
            assert v in out
        csv_lines = (tmp_path / "sweep" / "report.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4

    def test_sweep_reports_progress_like_compare(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--param", "das.K", "--values", "1,2", "--seeds", "0,1",
            "--out-dir", str(out_dir), *BASE_OVERRIDES,
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        cells = [line for line in err if line.startswith("[")]
        assert [line.split("]")[0] + "]" for line in cells] == [
            "[das.K=1 seed=0]", "[das.K=1 seed=1]", "[das.K=2 seed=0]", "[das.K=2 seed=1]",
        ]
        assert all(" ok R@1=" in line for line in cells)
        assert f"report.csv written under {out_dir}" in err

    def test_write_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert run_cli("write-config", "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        assert doc["das"]["T"] == 3 and doc["das"]["K"] == 4
        assert doc["das"]["Z"] == 10
        assert doc["das"]["rs"] == 0.01 and doc["das"]["rb"] == 0.01


def leaves(doc, prefix=""):
    """(dotted key, value) for every leaf of a nested config document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


DEFAULT_LEAVES = dict(leaves(config_to_dict(RunConfig())))
# the leaves declared float, including loss.beta_lr (float | None, default None)
FLOAT_LEAVES = sorted(k for k, v in DEFAULT_LEAVES.items() if v is None or type(v) is float)


def changed(value):
    """A value of the same JSON type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + (3 if isinstance(value, int) else 0.5)
    if isinstance(value, list):
        return value + [5]
    return 0.25 if value is None else value + "x"


def as_set_value(value):
    """`value` as the right-hand side of `--set key=...`."""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


class TestConfigFields:
    """Every leaf field parses from the text write-config prints for it, so a
    field whose declared type has no parser fails here."""

    def write_config(self, capsys, *args):
        capsys.readouterr()
        assert run_cli("write-config", *args) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("key", sorted(DEFAULT_LEAVES))
    def test_set_reproduces_field(self, capsys, key):
        for value in (DEFAULT_LEAVES[key], changed(DEFAULT_LEAVES[key])):
            out = self.write_config(capsys, "--set", f"{key}={as_set_value(value)}")
            got = dict(leaves(json.loads(out)))
            assert json.dumps(got[key]) == json.dumps(value)
            assert {k: v for k, v in got.items() if k != key} == {
                k: v for k, v in DEFAULT_LEAVES.items() if k != key}

    @pytest.mark.parametrize("change", [False, True])
    def test_write_config_round_trip(self, tmp_path, capsys, change):
        sets = [
            arg for key, value in DEFAULT_LEAVES.items()
            for arg in ("--set", f"{key}={as_set_value(changed(value) if change else value)}")
        ]
        path = tmp_path / "cfg.json"
        self.write_config(capsys, "--out", str(path), *sets)
        assert self.write_config(capsys, "--config", str(path)) == path.read_text()
        expected = {k: changed(v) if change else v for k, v in DEFAULT_LEAVES.items()}
        got = dict(leaves(json.loads(path.read_text())))
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_optional_number_back_to_none(self, capsys):
        out = self.write_config(
            capsys, "--set", "loss.beta_lr=0.5", "--set", "loss.beta_lr=none")
        assert json.loads(out)["loss"]["beta_lr"] is None

    @pytest.mark.parametrize("key", FLOAT_LEAVES)
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_float_exit_2(self, capsys, key, text):
        assert run_cli("write-config", "--set", f"{key}={text}") == 2
        assert f"{key}: expected a finite number" in capsys.readouterr().err

    def test_non_finite_float_in_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"optim": {"lr": NaN}}')
        assert run_cli("train", "--config", str(path)) == 2
        assert "optim.lr: expected a finite number" in capsys.readouterr().err
