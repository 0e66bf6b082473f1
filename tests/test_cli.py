import json

import pytest

from densedml.cli import main
from densedml.data import load_csv


def run_cli(*args):
    return main(list(args))


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


class TestGenerateData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run_cli(
            "generate-data", "--out", str(out), "--classes", "4",
            "--per-class", "6", "--input-dim", "5", "--seed", "3",
        )
        assert code == 0
        ds = load_csv(out, label_column=5)
        assert ds.n_points == 24 and ds.n_classes == 4
        assert "24 points" in capsys.readouterr().out

    def test_bad_params_exit_2(self, tmp_path):
        code = run_cli(
            "generate-data", "--out", str(tmp_path / "x.csv"), "--noise-sigma", "0",
        )
        assert code == 2


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

    def test_invalid_value_exit_2(self):
        assert run_cli("train", "--set", "das.rs=1.5", *BASE_OVERRIDES) == 2

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
        assert run_cli(
            "generate-data", "--out", str(data), "--classes", "6",
            "--per-class", "8", "--input-dim", "6",
        ) == 0
        code = run_cli(
            "train",
            "--set", "data.kind=csv",
            "--set", f"data.path={data}",
            "--set", "steps=3",
            "--set", "encoder.hidden=8",
            "--set", "encoder.embed_dim=6",
            "--set", "batch.classes_per_batch=3",
            "--set", "eval_ks=1",
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == 0


class TestCsvLabelColumn:
    """The default label column is the last one of the first data row, even
    when blank lines come before it."""

    @staticmethod
    def csv_pair(tmp_path):
        plain = tmp_path / "d.csv"
        assert run_cli(
            "generate-data", "--out", str(plain), "--classes", "6",
            "--per-class", "8", "--input-dim", "6",
        ) == 0
        blank_first = tmp_path / "blank_first.csv"
        blank_first.write_text("\n" + plain.read_text())
        return plain, blank_first

    def test_train_from_config(self, tmp_path, capsys):
        reports = []
        for path in self.csv_pair(tmp_path):
            capsys.readouterr()
            assert run_cli(
                "train",
                "--set", "data.kind=csv",
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
                "--csv", str(path), "--ks", "1",
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
    """Integer lists from a config file, --seeds and --ks fail with exit 2."""

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

    def test_evaluate_ks_exit_2(self, tmp_path, capsys):
        code = run_cli("evaluate", "--checkpoint", str(tmp_path / "no.json"), "--ks", "1,a")
        assert code == 2
        assert "--ks: expected a list of integers" in capsys.readouterr().err


class TestEvaluate:
    def test_checkpoint_eval_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out_dir), *BASE_OVERRIDES) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate",
            "--checkpoint", str(out_dir / "checkpoint.json"),
            "--ks", "1,2",
            "--set", "data.classes=8",
            "--set", "data.per_class=10",
            "--set", "data.input_dim=8",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert set(report) >= {"recall@1", "recall@2", "nmi", "f1"}

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

    def test_write_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        assert run_cli("write-config", "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        assert doc["das"]["T"] == 3 and doc["das"]["K"] == 4
        assert doc["das"]["Z"] == 10
        assert doc["das"]["rs"] == 0.01 and doc["das"]["rb"] == 0.01
