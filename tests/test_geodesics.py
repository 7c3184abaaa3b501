import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from meshcorr import geodesics
from meshcorr.errors import ArgumentError, DataError, DisconnectedMeshError
from meshcorr.geodesics import (GeodesicMatrix, SemanticGroups, edge_graph,
                                geodesic_matrix, load_groups,
                                min_cost_assignment, save_groups,
                                semantic_distance)
from meshcorr.mesh import TriMesh

from conftest import (all_pairs_geodesics, bumpy_grid, grid_patch,
                      permuted, seam_split_grid, torus)


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
    d = all_pairs_geodesics(geodesic_matrix(m))
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
    d = all_pairs_geodesics(geodesic_matrix(m))
    assert d[0, 4] == pytest.approx(4.0)   # 4 unit steps along y
    assert d[0, 20] == pytest.approx(4.0)  # 4 unit steps along x


def test_distance_field_is_computed_once_and_read_only(monkeypatch):
    geo = geodesic_matrix(bumpy_grid(8))
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["indices"])
        return dijkstra(*args, **kwargs)
    monkeypatch.setattr(geodesics, "dijkstra", counted)
    first = geo.distance_to(np.array([3, 9]))
    again = geo.distance_to([3, 9])
    other = geo.distance_to([4])
    assert again is first and len(calls) == 2
    assert not first.flags.writeable and not other.flags.writeable
    np.testing.assert_allclose(
        first, np.minimum(*all_pairs_geodesics(geo)[[3, 9]]), atol=1e-12)


def test_geodesic_disconnected():
    a = grid_patch(3, 3)
    verts = np.vstack([a.vertices, a.vertices + [10.0, 0, 0]])
    tris = np.vstack([a.triangles, a.triangles + 9])
    with pytest.raises(DisconnectedMeshError):
        geodesic_matrix(TriMesh(verts, tris))


def test_seam_split_mesh_has_the_welded_distances():
    # each duplicated seam vertex is its original's graph vertex, so the
    # split grid has the whole grid's distances, read through the weld
    split = geodesic_matrix(seam_split_grid())
    whole = geodesic_matrix(bumpy_grid(20))
    original = np.r_[np.arange(400), np.arange(200, 220)]
    assert np.array_equal(split.index, original)
    for members in ([0], [405], np.arange(190, 230, 3)):
        assert np.array_equal(
            split.distance_to(members),
            whole.distance_to(original[members])[original])
    labels = np.full(420, 2)
    labels[[205, 405]] = [0, 1]  # a vertex and its duplicate
    assert semantic_distance(SemanticGroups(labels), split, 0, 1) == 0.0


@pytest.mark.parametrize("mesh", [bumpy_grid(12), torus(16, 8),
                                  permuted(bumpy_grid(9, 11), 4)],
                         ids=["bumpy-grid", "torus", "permuted"])
def test_directed_dijkstra_equals_undirected(mesh):
    # edge_graph stores each edge both ways with one length, so directed
    # search gives the undirected fields bit for bit
    geo = geodesic_matrix(mesh)
    n = mesh.n_vertices
    rng = np.random.default_rng(2)
    for members in ([0], rng.choice(n, 7, replace=False), np.arange(3, n, 5)):
        assert np.array_equal(
            geo.distance_to(members),
            dijkstra(geo.graph, directed=False, indices=members,
                     min_only=True))
        assert np.array_equal(  # the rows semantic_distance reads
            dijkstra(geo.graph, directed=True, indices=members),
            dijkstra(geo.graph, directed=False, indices=members))


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


@pytest.mark.parametrize("cost", [
    np.ones((3, 5)),
    np.array([[1, 2, 1, 2], [2, 1, 2, 1], [1, 1, 2, 2], [2, 2, 1, 1]], float),
    np.array([[0, 3, 0], [3, 0, 3], [0, 3, 0], [3, 0, 3], [1, 1, 1]], float),
], ids=["ones-3x5", "4x4-repeated", "5x3-repeated"])
def test_min_cost_assignment_ties_give_one_optimal_matching(cost):
    # many matchings are optimal; any one of them is a valid answer
    pairs, total = min_cost_assignment(cost)
    rows, cols = zip(*pairs)
    assert len(pairs) == min(cost.shape)
    assert list(rows) == sorted(set(rows)) and len(set(cols)) == len(cols)
    assert total == brute_force_assignment(cost)
    assert total == sum(cost[i, j] for i, j in pairs)


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


def brute_force_semantic(d, ga, gb):
    cost = d[np.ix_(ga, gb)]
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
    d = all_pairs_geodesics(geo)
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
        want = brute_force_semantic(d, np.flatnonzero(labels == 0),
                                    np.flatnonzero(labels == 1))
        assert got == pytest.approx(want)


def test_semantic_distance_between_components_is_refused():
    # no path joins the two groups, so no matching has a finite cost
    a = grid_patch(3, 3)
    mesh = TriMesh(np.vstack([a.vertices, a.vertices + [10.0, 0, 0]]),
                   np.vstack([a.triangles, a.triangles + 9]))
    geo = GeodesicMatrix(edge_graph(mesh), np.arange(18))
    groups = SemanticGroups(np.repeat([0, 1], 9))
    with pytest.raises(ArgumentError,
                       match="no path joins groups 0 and 1"):
        semantic_distance(groups, geo, 0, 1)


def test_groups_file_roundtrip(tmp_path):
    groups = SemanticGroups(np.array([0, 0, 1, 2, 1]))
    p = tmp_path / "groups.json"
    save_groups(p, groups)
    back = load_groups(p)
    np.testing.assert_array_equal(back.group_of, groups.group_of)
    p.write_text('{"n": 3, "group_of": [0, 1]}')
    with pytest.raises(DataError):
        load_groups(p)
    p.write_text('{"n": 2, "group_of": [-1, 0]}')
    with pytest.raises(DataError, match=f"{p}: group_of must be 1-D "
                                        "nonnegative"):
        load_groups(p)


def test_groups_validation():
    with pytest.raises(DataError):
        SemanticGroups(np.array([0, -1, 2]))
    groups = SemanticGroups(np.array([0, 0, 2]))
    with pytest.raises(ArgumentError):
        groups.members(1)
