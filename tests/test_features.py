import struct
import tracemalloc

import numpy as np
import pytest

from meshcorr.errors import (ArgumentError, DataError, FormatError,
                             ShapeError)
from meshcorr.features import (FeatureField, concat_features, load_features,
                               write_features)


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
    (tmp_path / "d.dmf").mkdir()
    with pytest.raises(FormatError, match="directory: .*d.dmf"):
        load_features(tmp_path / "d.dmf")


@pytest.mark.parametrize("data", [
    b"DMF1\x01",
    struct.pack("<4sII", b"DMF1", 2 ** 32 - 1, 2 ** 32 - 1) + bytes(64),
    struct.pack("<4sII", b"DMF1", 10 ** 5, 10 ** 5) + bytes(64)],
    ids=["short-header", "n-d-overflow", "n-d-exceeds-file"])
def test_dmf_header_promising_too_much(tmp_path, data):
    # the promised payload is checked against the file before any of it
    # is read, so nothing near its size is allocated
    p = tmp_path / "f.dmf"
    p.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated DMF"):
            load_features(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_concat_features():
    a = field(np.ones((5, 2)))
    b = field(np.zeros((5, 3)))
    out = concat_features([a, b])
    assert out.values.shape == (5, 5)
    assert out.values.dtype == np.float64
    with pytest.raises(ArgumentError):
        concat_features([a, field(np.ones((4, 2)))])


def test_concat_features_needs_a_field():
    with pytest.raises(ArgumentError, match="at least one field"):
        concat_features([])
    with pytest.raises(ArgumentError, match="at least one field"):
        concat_features(iter(()))
