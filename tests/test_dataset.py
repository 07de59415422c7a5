import numpy as np
import pytest

from vanar import Dataset, concat_datasets, read_csv, split_dataset, write_csv
from vanar.preprocessing import lag_matrix


def make(names, cols):
    return Dataset(names, np.column_stack(cols))


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Dataset(("x",), [[1.0], [np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            Dataset(("x",), [[np.inf]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(("a", "a"), [[1.0, 2.0]])

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(("a", ""), [[1.0, 2.0]])

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            Dataset(("a",), np.empty((0, 1)))

    def test_values_are_immutable(self):
        d = make(("a",), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0

    def test_column_lookup(self):
        d = make(("a", "b"), [[1.0, 2.0], [10.0, 20.0]])
        assert d.column("b").tolist() == [10.0, 20.0]
        with pytest.raises(KeyError):
            d.column("c")


class TestSplit:
    def test_benchmark_sized_split(self):
        # 870 rows -> train 1..850, test 851..870
        d = Dataset(("x",), np.arange(870.0).reshape(-1, 1))
        train, test = split_dataset(d, 850, 20)
        assert train.n_obs == 850
        assert test.n_obs == 20
        assert train.values[0, 0] == 0.0
        assert train.values[-1, 0] == 849.0
        assert test.values[0, 0] == 850.0
        assert test.values[-1, 0] == 869.0

    def test_tiny_split(self):
        d = Dataset(("x",), [[1.0], [2.0], [3.0]])
        train, test = split_dataset(d, 2, 1)
        assert train.values[:, 0].tolist() == [1.0, 2.0]
        assert test.values[:, 0].tolist() == [3.0]

    def test_lengths_exceeding_T_error(self):
        d = Dataset(("x",), [[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="exceeds"):
            split_dataset(d, 3, 1)

    def test_split_concat_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        d = Dataset(("a", "b"), rng.normal(size=(37, 2)))
        train, test = split_dataset(d, 30, 7)
        back = concat_datasets(train, test)
        assert back.names == d.names
        assert np.array_equal(back.values, d.values)


class TestLagDesign:
    def test_single_variable_example(self):
        d = Dataset(("x",), [[1.0], [2.0], [3.0], [4.0]])
        assert lag_matrix(d.values, 2).tolist() == [[2.0, 1.0], [3.0, 2.0]]
        assert d.values[2:].tolist() == [[3.0], [4.0]]

    def test_constant_series(self):
        d = Dataset(("x",), [[5.0], [5.0], [5.0]])
        assert lag_matrix(d.values, 1).tolist() == [[5.0], [5.0]]
        assert d.values[1:].tolist() == [[5.0], [5.0]]

    def test_two_vars_hand_enumerated(self):
        # T=6, p=3: row for target t holds [x(t-1), x(t-2), x(t-3), y(t-1), y(t-2), y(t-3)]
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        values = make(("x", "y"), [x, y]).values
        inputs = lag_matrix(values, 3)
        assert inputs.shape == (3, 6)
        expected = [
            [3, 2, 1, 30, 20, 10],
            [4, 3, 2, 40, 30, 20],
            [5, 4, 3, 50, 40, 30],
        ]
        assert inputs.tolist() == [[float(v) for v in row] for row in expected]
        assert values[3:].tolist() == [[4.0, 40.0], [5.0, 50.0], [6.0, 60.0]]

    def test_reassembly_recovers_every_value(self):
        # every original value appears exactly once per (t, lag) slot it serves
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(11, 3))
        p = 4
        inputs, targets = lag_matrix(vals, p), vals[p:]
        T, N = vals.shape
        for r in range(T - p):
            t = p + r  # target row index in the original data
            for j in range(N):
                assert targets[r, j] == vals[t, j]
                for lag in range(1, p + 1):
                    assert inputs[r, j * p + lag - 1] == vals[t - lag, j]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        d = Dataset(("a", "b"), rng.normal(size=(20, 2)))
        path = tmp_path / "d.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.names == d.names
        assert np.array_equal(back.values, d.values)

    def test_date_column_ignored_for_math(self, tmp_path):
        path = tmp_path / "dated.csv"
        path.write_text("date,a,b\n2020-01,1.5,2.5\n2020-02,3.5,4.5\n")
        d, dates = read_csv(path, return_dates=True)
        assert d.names == ("a", "b")
        assert dates == ["2020-01", "2020-02"]
        assert d.values.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_non_numeric_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"row 3.*'b'"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="empty dataset"):
            read_csv(path)
