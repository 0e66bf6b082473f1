import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedml.core import SeededRng
from densedml.data import generate_gaussian_clusters, load_csv, save_csv
from densedml.errors import ConfigError, ParseError


def small_dataset(seed=7, classes=4, per_class=10, dim=8):
    return generate_gaussian_clusters(classes, per_class, dim, 1.0, 0.3, SeededRng(seed))


class TestGenerator:
    def test_structural_counts(self):
        ds = small_dataset()
        assert ds.n_points == 40
        assert ds.train_classes == (0, 1)
        assert ds.test_classes == (2, 3)
        assert all(len(ds.class_index[c]) == 10 for c in range(4))

    def test_zero_noise_rejected(self):
        with pytest.raises(ConfigError):
            generate_gaussian_clusters(4, 10, 8, 1.0, 0.0, SeededRng(0))

    @pytest.mark.parametrize("c,p,d", [(1, 10, 8), (4, 1, 8), (4, 10, 1)])
    def test_degenerate_sizes_rejected(self, c, p, d):
        with pytest.raises(ConfigError):
            generate_gaussian_clusters(c, p, d, 1.0, 0.5, SeededRng(0))

    def test_deterministic(self):
        a = generate_gaussian_clusters(16, 32, 8, 1.0, 0.5, SeededRng(7))
        b = generate_gaussian_clusters(16, 32, 8, 1.0, 0.5, SeededRng(7))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=11))
    def test_split_always_disjoint(self, classes):
        ds = generate_gaussian_clusters(classes, 3, 4, 1.0, 0.2, SeededRng(1))
        assert set(ds.train_classes).isdisjoint(ds.test_classes)
        assert set(ds.train_classes) | set(ds.test_classes) == set(range(classes))


class TestCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,0\n0.3,0.4,0\n0.5,0.6,1\n")
        ds = load_csv(p, label_column=2)
        assert ds.n_points == 3
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 0, 1])
        np.testing.assert_allclose(ds.features[0], [0.1, 0.2])

    def test_ragged_row_names_row_two(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,0\n0.3,0\n0.5,0.6,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, label_column=2)
        assert err.value.row == 2

    def test_dense_label_reindexing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,5\n2.0,9\n3.0,5\n")
        ds = load_csv(p, label_column=1)
        np.testing.assert_array_equal(sorted(ds.class_index), [0, 1])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="no data rows") as err:
            load_csv(p, label_column=0)
        assert err.value.row is None and err.value.col is None

    def test_bad_float_reports_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1,0.2,0\n0.3,oops,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, label_column=2)
        assert err.value.row == 2 and err.value.col == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " Infinity"])
    def test_non_finite_value_reports_position(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"0.1,0.2,0\n0.3,0.4,0\n{cell},0.6,1\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            load_csv(p, label_column=2)
        assert err.value.row == 3 and err.value.col == 0

    def test_negative_label_column_counts_from_end(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n7,0.1,0\n8,0.3,0\n\n9,0.5,1\n")
        last = load_csv(p, label_column=-1)
        np.testing.assert_array_equal(last.labels, [0, 0, 1])
        np.testing.assert_array_equal(last.features, [[7.0, 0.1], [8.0, 0.3], [9.0, 0.5]])
        first = load_csv(p, label_column=-3)
        np.testing.assert_array_equal(first.labels, [0, 1, 2])
        np.testing.assert_array_equal(first.features, [[0.1, 0.0], [0.3, 0.0], [0.5, 1.0]])

    @pytest.mark.parametrize("label_column", [0, -1])
    def test_labels_only_rows_raise(self, tmp_path, label_column):
        p = tmp_path / "d.csv"
        p.write_text("\n0\n1\n1\n")
        with pytest.raises(ParseError, match="no feature column") as err:
            load_csv(p, label_column=label_column)
        assert err.value.row == 2

    @pytest.mark.parametrize("column", [3, -4])
    def test_label_column_outside_row_raises(self, tmp_path, column):
        p = tmp_path / "d.csv"
        p.write_text("\n0.1,0.2,0\n0.3,0.4,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, label_column=column)
        assert err.value.row == 2 and err.value.col == column

    def test_header_skip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n0.1,0.2,0\n0.3,0.4,1\n")
        ds = load_csv(p, label_column=2, header=True)
        assert ds.n_points == 2

    def test_header_skip_after_blank_lines(self, tmp_path):
        # the header is the first non-blank line, not the first raw line
        p = tmp_path / "d.csv"
        p.write_text("\n \nx,y,label\n0.1,0.2,0\n0.3,0.4,1\n")
        ds = load_csv(p, label_column=-1, header=True)
        assert ds.n_points == 2
        np.testing.assert_array_equal(ds.features, [[0.1, 0.2], [0.3, 0.4]])

    def test_round_trip_exact(self, tmp_path):
        ds = small_dataset(seed=3)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p, label_column=ds.input_dim)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.train_classes == ds.train_classes
        assert back.test_classes == ds.test_classes
