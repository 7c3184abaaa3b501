import json

import numpy as np
import pytest

import meshcorr.transfer as transfer
from meshcorr.errors import ArgumentError, DataError
from meshcorr.funcmap import PointMap
from meshcorr.mesh import TriMesh
from meshcorr.transfer import (load_keypoints, make_keypoints, snap_to_vertex,
                               save_transferred_keypoints, transfer_colors,
                               transfer_keypoints)

from conftest import bumpy_grid, grid_patch, icosphere


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
    assert kps == [("a", 3), ("b", 9)]
    with pytest.raises(ArgumentError):
        make_keypoints(m, [{"label": "x", "vertex": 99}])
    with pytest.raises(ArgumentError):
        make_keypoints(m, [{"label": "x"}])
    p = tmp_path / "kp.json"
    p.write_text(json.dumps([{"label": "a", "vertex": 3}]))
    assert load_keypoints(p, m) == [("a", 3)]
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


def test_transfer_colors_reads_the_nearest_textured_vertex():
    # a brute-force nearest-vertex oracle over a jittered (tie-free)
    # textured mesh far denser than the simplified ones
    rng = np.random.default_rng(2)
    dense = bumpy_grid(60)
    textured = TriMesh(dense.vertices + rng.normal(scale=1e-3,
                                                   size=dense.vertices.shape),
                       dense.triangles,
                       rng.uniform(size=(dense.n_vertices, 3)))
    source, target = bumpy_grid(13), bumpy_grid(11)
    match = rng.integers(source.n_vertices, size=target.n_vertices)
    out = transfer_colors(textured, source, target,
                          PointMap(match, np.ones(target.n_vertices)))
    d = np.linalg.norm(source.vertices[:, None] - textured.vertices[None],
                       axis=2)
    np.testing.assert_array_equal(out.colors,
                                  textured.colors[d.argmin(axis=1)][match])


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
    out = transfer_keypoints(kps, pmap, m)
    assert out == [(2, 1.0, "a"), (11, 1.0, "b")]


def test_transfer_keypoints_preimage_and_fallbacks():
    m = grid_patch(3, 3)
    n = m.n_vertices
    match = np.zeros(n, dtype=int)  # everything maps to source vertex 0
    conf = np.linspace(0.1, 0.9, n)
    pmap = PointMap(match, conf)
    kps0 = make_keypoints(m, [{"label": "o", "vertex": 0}])
    out = transfer_keypoints(kps0, pmap, m)
    assert out[0][0] == n - 1  # highest-confidence preimage vertex
    with pytest.raises(ArgumentError):  # empty keypoint set
        transfer_keypoints([], pmap, m)
    for bad in (-1, n):  # a map into another source
        with pytest.raises(ArgumentError):
            transfer_keypoints(kps0, PointMap(np.full(n, bad), conf), m)


def test_transfer_keypoints_preimage_rule():
    """A keypoint with a preimage goes to its highest-confidence vertex,
    ties to the smallest target index."""
    m = grid_patch(6, 6)
    n = m.n_vertices
    rng = np.random.default_rng(3)
    match = rng.integers(0, n // 2, size=n)
    conf = rng.integers(0, 4, size=n) / 4.0  # many confidence ties
    kps = [(f"k{i}", int(i)) for i in np.unique(match)]
    out = transfer_keypoints(kps, PointMap(match, conf), m)
    expected = []
    for label, i in kps:
        j = min(np.flatnonzero(match == i), key=lambda t: (-conf[t], t))
        expected.append((int(j), float(conf[j]), label))
    assert out == expected


def test_transfer_keypoints_nearest_covered_vertex_on_the_graph():
    m = grid_patch(5, 5)
    n = m.n_vertices
    match = np.arange(n)
    match[12] = 13  # the centre vertex is left uncovered
    conf = np.full(n, 0.5)
    conf[12] = 0.9
    out = transfer_keypoints([("c", 12), ("e", 13)], PointMap(match, conf), m)
    # 7, 11, 13 and 17 are one grid step from 12; the smallest index wins
    assert out == [(7, 0.0, "c"), (12, 0.9, "e")]
    # with only 6 and 16 covered, both equally far from 12 in space, the
    # edge 12-16 beats the two-edge path 12-7-6
    match = np.where(np.arange(n) % 2, 6, 16)
    out = transfer_keypoints([("c", 12)], PointMap(match, np.ones(n)), m)
    assert out == [(0, 0.0, "c")]  # 16's preimage is the even targets


def test_transfer_keypoints_euclidean_fallback_across_parts():
    part = grid_patch(3, 3)
    far = part.vertices + [5.0, 0.0, 0.0]
    source = TriMesh(np.vstack([part.vertices, far]),
                     np.vstack([part.triangles, part.triangles + 9]))
    pmap = PointMap(np.arange(9), np.ones(9))  # only the first part covered
    out = transfer_keypoints([("a", 9), ("b", 17), ("c", 4)], pmap, source)
    # (5, 0) and (6, 1) are nearest to the covered corners (1, 0) and (1, 1)
    assert out == [(6, 0.0, "a"), (8, 0.0, "b"), (4, 1.0, "c")]


def test_transfer_keypoints_builds_the_graph_once(monkeypatch):
    # two uncovered keypoints share one edge graph, built on demand
    m = grid_patch(5, 5)
    calls, edge_graph = [], transfer.edge_graph

    def counted(mesh):
        calls.append(mesh)
        return edge_graph(mesh)

    monkeypatch.setattr(transfer, "edge_graph", counted)
    n = m.n_vertices
    covered = PointMap(np.arange(n), np.ones(n))
    transfer_keypoints([("c", 12)], covered, m)
    assert calls == []
    match = np.arange(n)
    match[[12, 0]] = 13, 1  # the centre and a corner are left uncovered
    out = transfer_keypoints([("c", 12), ("o", 0), ("e", 13)],
                             PointMap(match, np.ones(n)), m)
    assert len(calls) == 1
    assert [kp[1:] for kp in out] == [(0.0, "c"), (0.0, "o"), (1.0, "e")]


def test_save_transferred_keypoints(tmp_path):
    p = tmp_path / "out.json"
    save_transferred_keypoints(p, [(3, 0.5, "a")])
    doc = json.loads(p.read_text())
    assert doc == [{"label": "a", "vertex": 3, "confidence": 0.5}]
