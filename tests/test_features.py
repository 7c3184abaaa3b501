import numpy as np
import pytest

from meshcorr.errors import ArgumentError, DataError, ShapeError
from meshcorr.features import (FeatureField, concat_features, load_features,
                               unit_normalize, write_features)


def field(values):
    return FeatureField(np.asarray(values, float))


def test_feature_field_validation():
    with pytest.raises(DataError):
        FeatureField(np.array([[1.0, np.nan]]))


def test_dmf_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    b = field(rng.normal(size=(17, 5)))
    p = tmp_path / "f.dmf"
    write_features(p, b)
    back = load_features(p)
    assert back.n == 17 and back.d == 5
    # stored as little-endian f32
    np.testing.assert_allclose(back.values, b.values, atol=1e-6)
    assert p.read_bytes()[:4] == b"DMF1"


def test_text_feature_matrix(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("# 3 2\n1 2\n3 4\n5 6\n")
    back = load_features(p)
    np.testing.assert_allclose(back.values, [[1, 2], [3, 4], [5, 6]])


def test_load_features_expected_n(tmp_path):
    p = tmp_path / "f.dmf"
    write_features(p, field(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        load_features(p, expected_n=9)


def test_load_features_missing(tmp_path):
    with pytest.raises(DataError):
        load_features(tmp_path / "absent.dmf")


def test_unit_normalize():
    b = field([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    out = unit_normalize(b)
    np.testing.assert_allclose(out.values[0], [0.6, 0.8])
    np.testing.assert_allclose(out.values[1], [0.0, 0.0])  # zero rows stay
    np.testing.assert_allclose(out.values[2], [0.0, 1.0])


def test_concat_features():
    a = field(np.ones((5, 2)))
    b = field(np.zeros((5, 3)))
    out = concat_features([a, b])
    assert out.values.shape == (5, 5)
    assert out.values.dtype == np.float64
    with pytest.raises(ArgumentError):
        concat_features([a, field(np.ones((4, 2)))])
