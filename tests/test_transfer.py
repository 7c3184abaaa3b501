import json

import numpy as np
import pytest

from meshcorr.errors import ArgumentError, DataError
from meshcorr.funcmap import PointMap
from meshcorr.mesh import TriMesh
from meshcorr.transfer import (load_keypoints, make_keypoints, snap_to_vertex,
                               save_transferred_keypoints, transfer_colors,
                               transfer_keypoints)

from conftest import grid_patch, icosphere


def colored_sphere():
    m = icosphere(1)
    rng = np.random.default_rng(0)
    return m.with_colors(rng.uniform(size=(m.n_vertices, 3)))


def test_snap_to_vertex():
    m = grid_patch(5, 5)
    assert snap_to_vertex(m, m.vertices[7]) == 7
    assert snap_to_vertex(m, m.vertices[7] + 1e-4) == 7
    with pytest.raises(ArgumentError):
        snap_to_vertex(m, m.vertices[7] + 10.0)


def test_make_and_load_keypoints(tmp_path):
    m = grid_patch(4, 4)
    kps = make_keypoints(m, [{"label": "a", "vertex": 3},
                             {"label": "b", "xyz": m.vertices[9].tolist()}])
    assert [(k.label, k.vertex) for k in kps.points] == [("a", 3), ("b", 9)]
    with pytest.raises(ArgumentError):
        make_keypoints(m, [{"label": "x", "vertex": 99}])
    with pytest.raises(ArgumentError):
        make_keypoints(m, [{"label": "x"}])
    p = tmp_path / "kp.json"
    p.write_text(json.dumps([{"label": "a", "vertex": 3}]))
    assert load_keypoints(p, m).points[0].vertex == 3
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_keypoints(p, m)


def test_transfer_colors_identity_bitwise():
    src = colored_sphere()
    plain = TriMesh(src.vertices, src.triangles)
    n = src.n_vertices
    pmap = PointMap(np.arange(n), np.ones(n))
    out = transfer_colors(src, plain, plain, pmap)
    np.testing.assert_array_equal(out.colors, src.colors)


def test_transfer_colors_permutation():
    src = colored_sphere()
    plain = TriMesh(src.vertices, src.triangles)
    n = src.n_vertices
    rng = np.random.default_rng(1)
    perm = rng.permutation(n)
    pmap = PointMap(perm, np.ones(n))
    out = transfer_colors(src, plain, plain, pmap)
    np.testing.assert_array_equal(out.colors, src.colors[perm])


def test_transfer_colors_validation():
    src = colored_sphere()
    plain = TriMesh(src.vertices, src.triangles)
    n = src.n_vertices
    with pytest.raises(ArgumentError):
        transfer_colors(plain, plain, plain, PointMap(np.arange(n), np.ones(n)))
    with pytest.raises(ArgumentError):
        transfer_colors(src, plain, plain,
                        PointMap(np.arange(n - 1), np.ones(n - 1)))


def test_transfer_keypoints_identity():
    m = grid_patch(4, 4)
    n = m.n_vertices
    kps = make_keypoints(m, [{"label": "a", "vertex": 2},
                             {"label": "b", "vertex": 11}])
    pmap = PointMap(np.arange(n), np.ones(n))
    out = transfer_keypoints(kps, pmap)
    assert out == [(2, 1.0, "a"), (11, 1.0, "b")]


def test_transfer_keypoints_preimage_and_fallbacks():
    m = grid_patch(3, 3)
    n = m.n_vertices
    match = np.zeros(n, dtype=int)  # everything maps to source vertex 0
    conf = np.linspace(0.1, 0.9, n)
    pmap = PointMap(match, conf)
    kps0 = make_keypoints(m, [{"label": "o", "vertex": 0}])
    out = transfer_keypoints(kps0, pmap)
    assert out[0][0] == n - 1  # highest-confidence preimage vertex
    # empty preimage with no spectral fallback
    kps5 = make_keypoints(m, [{"label": "q", "vertex": 5}])
    with pytest.raises(ArgumentError):
        transfer_keypoints(kps5, pmap)
    # empty keypoint set
    from meshcorr.transfer import KeypointSet
    with pytest.raises(ArgumentError):
        transfer_keypoints(KeypointSet(()), pmap)


def test_transfer_keypoints_spectral_fallback():
    from meshcorr.mesh import cotangent_weights, vertex_areas
    from meshcorr.spectral import eigenbasis
    m = grid_patch(4, 4)
    n = m.n_vertices
    b = eigenbasis(cotangent_weights(m), vertex_areas(m), 6)
    pmap = PointMap(np.zeros(n, dtype=int), np.ones(n))
    kps = make_keypoints(m, [{"label": "f", "vertex": 9}])
    out = transfer_keypoints(kps, pmap, basis_M=b, basis_N=b, C=np.eye(6))
    j, conf, label = out[0]
    assert conf == 0.0 and label == "f"
    assert j == 9  # identity C: nearest embedding row is the vertex itself


def test_save_transferred_keypoints(tmp_path):
    p = tmp_path / "out.json"
    save_transferred_keypoints(p, [(3, 0.5, "a")])
    doc = json.loads(p.read_text())
    assert doc == [{"label": "a", "vertex": 3, "confidence": 0.5}]
