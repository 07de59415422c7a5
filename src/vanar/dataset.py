"""Multivariate time-series container and CSV input/output.

A :class:`Dataset` holds the observed history of a system: a (T, N) matrix
of values plus the variable names. Rows are time steps in order, columns
are variables. Instances are immutable so they can be shared freely across
experiment runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validation import check_arguments, check_matrix


@dataclass(frozen=True)
class Dataset:
    """Time-indexed multivariate series.

    Parameters
    ----------
    names : sequence of str
        Unique, nonempty variable identifiers, one per column.
    values : array-like, shape (T, N)
        Observations; row t holds the state at time step t. NaN and
        infinite entries are rejected at construction.
    """

    names: tuple[str, ...]
    values: np.ndarray

    def __init__(self, names, values):
        names = tuple(str(n) for n in names)
        if not names:
            raise ValueError("dataset needs at least one variable")
        if any(n == "" for n in names):
            raise ValueError("variable names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be unique, got {names}")
        arr = check_matrix(values)
        if arr.shape[1] != len(names):
            raise ValueError(
                f"expected {len(names)} columns for {names}, got {arr.shape[1]}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", arr)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        """Values of one variable as a 1-D array."""
        return self.values[:, self.index_of(name)]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.names}") from None

    def select(self, names) -> "Dataset":
        """Dataset restricted to the given variables, in the given order."""
        names = list(names)
        idx = [self.index_of(n) for n in names]
        return Dataset(names, self.values[:, idx])

    def rows(self, start: int, stop: int) -> "Dataset":
        """Contiguous row slice [start, stop)."""
        if not (0 <= start < stop <= self.n_obs):
            raise ValueError(f"invalid row range [{start}, {stop}) for T={self.n_obs}")
        return Dataset(self.names, self.values[start:stop])

    def with_values(self, values: np.ndarray) -> "Dataset":
        """New dataset with the same names but different values."""
        return Dataset(self.names, values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.names == other.names
            and self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
        )

    def __repr__(self) -> str:
        return f"Dataset(names={self.names!r}, n_obs={self.n_obs})"


def split_dataset(data: Dataset, train_len: int, test_len: int) -> tuple[Dataset, Dataset]:
    """Split into a training prefix and the immediately following test block.

    Row order is preserved: train covers rows 1..train_len, test covers
    rows train_len+1..train_len+test_len.
    """
    check_arguments(split_dataset, {"train_len": train_len, "test_len": test_len})
    if train_len + test_len > data.n_obs:
        raise ValueError(
            f"train_len + test_len = {train_len + test_len} exceeds T = {data.n_obs}"
        )
    train = data.rows(0, train_len)
    test = data.rows(train_len, train_len + test_len)
    return train, test


def concat_datasets(first: Dataset, second: Dataset) -> Dataset:
    """Stack two datasets with identical variables in time order."""
    if first.names != second.names:
        raise ValueError(f"variable mismatch: {first.names} vs {second.names}")
    return Dataset(first.names, np.vstack([first.values, second.values]))


def _read_header(reader, path) -> tuple[list[str], list[str], int | None]:
    """The stripped header cells, the variable names among them, and the
    index of the ``date`` column (None if there is none)."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    date_idx = header.index("date") if "date" in header else None
    names = [h for i, h in enumerate(header) if i != date_idx]
    return header, names, date_idx


def read_csv_names(path) -> tuple[str, ...]:
    """Variable names of a CSV file as ``read_csv`` gives them, without reading its rows."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        return tuple(_read_header(csv.reader(f), path)[1])


def read_csv(path, return_dates: bool = False):
    """Load a Dataset from CSV.

    Expected layout: a header row of variable names, comma delimiter,
    decimal point. A column named ``date`` is excluded from the numeric
    data but can be returned alongside it for reporting.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header, names, date_idx = _read_header(reader, path)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")

    dates: list[str] = []
    values = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}"
            )
        c_out = 0
        for c, cell in enumerate(row):
            if c == date_idx:
                dates.append(cell.strip())
                continue
            try:
                values[r, c_out] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {r + 2}, column {header[c]!r}"
                ) from None
            c_out += 1
    data = Dataset(names, values)
    if return_dates:
        return data, (dates if date_idx is not None else None)
    return data


def write_table(path, header: list[str], rows: list[list]) -> None:
    """Write a CSV table; float cells are written with ``repr`` (round-trip exact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_csv(data: Dataset, path, dates=None) -> None:
    """Write a Dataset as CSV with full float precision (round-trip exact)."""
    header = list(data.names)
    rows = data.values.tolist()
    if dates is not None:
        if len(dates) != data.n_obs:
            raise ValueError("dates length must match row count")
        header = ["date"] + header
        rows = [[date] + row for date, row in zip(dates, rows)]
    write_table(path, header, rows)
