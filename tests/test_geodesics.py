import itertools

import numpy as np
import pytest

from meshcorr.errors import ArgumentError, DataError, DisconnectedMeshError
from meshcorr.geodesics import (GeodesicMatrix, SemanticGroups,
                                geodesic_matrix, load_geodesic_matrix,
                                load_groups, min_cost_assignment,
                                save_geodesic_matrix, save_groups,
                                semantic_distance)
from meshcorr.mesh import TriMesh

from conftest import grid_patch, icosphere


def brute_force_assignment(cost):
    """Exhaustive optimal injective matching cost."""
    m, n = cost.shape
    best = np.inf
    if m <= n:
        for perm in itertools.permutations(range(n), m):
            best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(m), n):
            best = min(best, sum(cost[i, j] for j, i in enumerate(perm)))
    return best


def test_geodesic_matrix_basic_properties():
    m = grid_patch(6, 6)
    geo = geodesic_matrix(m)
    d = geo.d
    assert d.shape == (36, 36)
    np.testing.assert_array_equal(np.diag(d), 0.0)
    np.testing.assert_array_equal(d, d.T)
    assert (d[~np.eye(36, dtype=bool)] > 0).all()
    # triangle inequality on a sample
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j, k = rng.integers(0, 36, 3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_geodesic_grid_axis_path():
    # along a grid axis the shortest path is the straight polyline
    m = grid_patch(5, 5, scale=4.0)  # spacing 1
    geo = geodesic_matrix(m)
    assert geo.d[0, 4] == pytest.approx(4.0)   # 4 unit steps along y
    assert geo.d[0, 20] == pytest.approx(4.0)  # 4 unit steps along x


def test_geodesic_disconnected():
    a = grid_patch(3, 3)
    verts = np.vstack([a.vertices, a.vertices + [10.0, 0, 0]])
    tris = np.vstack([a.triangles, a.triangles + 9])
    with pytest.raises(DisconnectedMeshError):
        geodesic_matrix(TriMesh(verts, tris))


def test_min_cost_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(1, 6)
        n = rng.integers(1, 6)
        cost = rng.uniform(0, 10, size=(m, n))
        pairs, total = min_cost_assignment(cost)
        assert len(pairs) == min(m, n)
        assert total == pytest.approx(brute_force_assignment(cost))
        assert total == pytest.approx(sum(cost[i, j] for i, j in pairs))


def test_min_cost_assignment_lexicographic_ties():
    # all-equal costs: every matching is optimal; the lexicographically
    # smallest one is the identity pairing
    cost = np.ones((3, 3))
    pairs, total = min_cost_assignment(cost)
    assert pairs == [(0, 0), (1, 1), (2, 2)]
    assert total == pytest.approx(3.0)


def test_min_cost_assignment_validation():
    with pytest.raises(ArgumentError):
        min_cost_assignment(np.array([[1.0, -2.0]]))
    with pytest.raises(ArgumentError):
        min_cost_assignment(np.array([[np.inf]]))
    with pytest.raises(ArgumentError):
        min_cost_assignment(np.zeros((0, 3)))


def grid_geo_and_groups():
    m = grid_patch(6, 6)
    geo = geodesic_matrix(m)
    rng = np.random.default_rng(11)
    groups = SemanticGroups(rng.integers(0, 6, size=36))
    return geo, groups


def brute_force_semantic(geo, ga, gb):
    cost = geo.d[np.ix_(ga, gb)]
    return brute_force_assignment(cost) / min(len(ga), len(gb))


def test_semantic_distance_zero_and_symmetric():
    geo, groups = grid_geo_and_groups()
    for g in groups.ids():
        assert semantic_distance(groups, geo, int(g), int(g)) == 0.0
    for a, b in itertools.combinations(groups.ids().tolist(), 2):
        dab = semantic_distance(groups, geo, a, b)
        dba = semantic_distance(groups, geo, b, a)
        assert abs(dab - dba) <= 1e-12


def test_semantic_distance_brute_force_oracle():
    m = grid_patch(5, 5)
    geo = geodesic_matrix(m)
    rng = np.random.default_rng(21)
    for _ in range(30):
        picks = rng.choice(25, size=10, replace=False)
        ga = picks[:rng.integers(1, 6)]
        gb = picks[5:5 + rng.integers(1, 6)]
        labels = np.full(25, 2)
        labels[gb] = 1
        labels[ga] = 0
        groups = SemanticGroups(labels)
        got = semantic_distance(groups, geo, 0, 1)
        want = brute_force_semantic(geo, np.flatnonzero(labels == 0),
                                    np.flatnonzero(labels == 1))
        assert got == pytest.approx(want)


def test_geodesic_matrix_file_roundtrip(tmp_path):
    geo = geodesic_matrix(icosphere(1))
    p = tmp_path / "geo.dgm"
    save_geodesic_matrix(p, geo)
    back = load_geodesic_matrix(p)
    assert back.n == geo.n
    np.testing.assert_allclose(back.d, geo.d, atol=1e-6)  # f32 storage
    assert p.read_bytes()[:4] == b"DGM1"


def test_groups_file_roundtrip(tmp_path):
    groups = SemanticGroups(np.array([0, 0, 1, 2, 1]),
                            names={0: "head", 1: "arm", 2: "leg"})
    p = tmp_path / "groups.json"
    save_groups(p, groups)
    back = load_groups(p)
    np.testing.assert_array_equal(back.group_of, groups.group_of)
    assert back.names[1] == "arm"
    p.write_text('{"n": 3, "group_of": [0, 1]}')
    with pytest.raises(DataError):
        load_groups(p)


def test_groups_validation():
    with pytest.raises(DataError):
        SemanticGroups(np.array([0, -1, 2]))
    groups = SemanticGroups(np.array([0, 0, 2]))
    with pytest.raises(ArgumentError):
        groups.members(1)
