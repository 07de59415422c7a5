import numpy as np
import pytest

from vanar.preprocessing import StandardScaler


def test_zscore_definition():
    sc = StandardScaler().fit([[1.0], [2.0], [3.0]])
    assert sc.mean_[0] == 2.0
    # population sd of [1,2,3]
    assert sc.scale_[0] == pytest.approx(np.sqrt(2.0 / 3.0))
    scaled = sc.transform([[1.0], [2.0], [3.0]])
    assert scaled.mean() == pytest.approx(0.0, abs=1e-15)


def test_constant_column_scale_one():
    sc = StandardScaler().fit([[7.0], [7.0], [7.0]])
    assert sc.scale_[0] == 1.0
    scaled = sc.transform([[7.0], [7.0], [7.0]])
    assert np.all(scaled == 0.0)
    assert np.all(sc.inverse_transform(scaled) == 7.0)


def test_constant_column_with_inexact_mean_maps_to_zero():
    # the mean of these seven equal values rounds to a neighbour of them, and their std to 5.7e-14
    col = np.full((7, 1), -356.88873089866854)
    sc = StandardScaler().fit(col)
    assert sc.mean_[0] == col[0, 0]
    assert sc.scale_[0] == 1.0
    assert np.all(sc.transform(col) == 0.0)


def test_roundtrip_within_1e12_relative():
    rng = np.random.default_rng(11)
    for trial in range(20):
        X = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.01, 100),
                       size=(rng.integers(2, 40), rng.integers(1, 6)))
        sc = StandardScaler().fit(X)
        back = sc.inverse_transform(sc.transform(X))
        rel = np.abs(back - X) / np.maximum(1.0, np.abs(X))
        assert rel.max() < 1e-12


def test_fit_requires_rows():
    with pytest.raises(ValueError):
        StandardScaler().fit(np.empty((0, 2)))


def test_transform_before_fit_errors():
    with pytest.raises(RuntimeError):
        StandardScaler().transform([[1.0]])
