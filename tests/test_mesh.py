import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from meshcorr.errors import DataError, EmptyMeshError
from meshcorr.mesh import (COT_CLAMP, MERGE_TOL_FRACTION, TriMesh,
                           cotangent_weights, normalize_mesh, triangle_areas,
                           vertex_areas, weld_mesh)

from conftest import grid_patch, icosphere, torus


def test_trimesh_validation():
    with pytest.raises(DataError):
        TriMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(DataError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
    with pytest.raises(DataError):
        TriMesh(np.array([[0, 0, np.nan]]), np.zeros((0, 3), dtype=int))
    with pytest.raises(DataError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))
    with pytest.raises(DataError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), colors=np.zeros((2, 3)))



def test_trimesh_refuses_non_triangles_and_non_finite_colors():
    with pytest.raises(DataError, match=r"triangles must be \(m, 3\), "
                                        r"got \(1, 4\)"):
        TriMesh(np.eye(4, 3), np.array([[0, 1, 2, 3]]))
    for value in (np.nan, np.inf):
        colors = np.full((3, 3), 0.5)
        colors[1, 2] = value
        with pytest.raises(DataError, match="colors must be finite"):
            TriMesh(np.eye(3), np.array([[0, 1, 2]]), colors=colors)

def test_trimesh_is_immutable():
    m = grid_patch(4, 4)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 9.0


def test_edges_unique_and_sorted():
    m = grid_patch(4, 4)
    e = m.edges()
    assert (e[:, 0] < e[:, 1]).all()
    assert len(np.unique(e, axis=0)) == len(e)
    assert np.array_equal(e, np.unique(e, axis=0))


def test_triangle_areas_right_triangle():
    m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                np.array([[0, 1, 2]]))
    assert triangle_areas(m) == pytest.approx([0.5])


def test_vertex_areas_brute_force():
    m = torus(12, 8)
    tri_a = triangle_areas(m)
    expected = np.zeros(m.n_vertices)
    for t, a in zip(m.triangles, tri_a):
        for v in t:
            expected[v] += a / 3.0
    areas = vertex_areas(m)
    np.testing.assert_allclose(areas.areas, expected, rtol=1e-12)
    assert areas.total == pytest.approx(tri_a.sum())


def test_vertex_areas_zero_area_warning():
    m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]),
                np.array([[0, 1, 2], [0, 1, 3]]))
    with pytest.warns(UserWarning):
        vertex_areas(m)


def test_cotangent_weights_flat_grid_oracle():
    # on a unit right-triangle grid the axis neighbors get weight
    # 1/2(cot 45 + cot 45) = 1 and diagonal neighbors 1/2(cot 90 + cot 90) = 0
    m = grid_patch(5, 5, scale=4.0)  # unit spacing
    W = cotangent_weights(m).toarray()
    interior = 2 * 5 + 2  # vertex (2,2)
    row = W[interior]
    assert row[interior - 1] == pytest.approx(1.0)
    assert row[interior + 1] == pytest.approx(1.0)
    assert row[interior - 5] == pytest.approx(1.0)
    assert row[interior + 5] == pytest.approx(1.0)
    assert row[interior + 6] == pytest.approx(0.0, abs=1e-12)
    assert row[interior] == pytest.approx(-4.0)


def test_cotangent_weights_properties():
    m = icosphere(2)
    W = cotangent_weights(m)
    assert abs(W - W.T).max() < 1e-12
    assert np.abs(np.asarray(W.sum(axis=1))).max() < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=m.n_vertices)
        assert x @ (W @ x) <= 1e-10  # negative semidefinite


def test_cotangent_clamp_on_sliver():
    eps = 1e-12
    m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0.5, eps, 0]]),
                np.array([[0, 1, 2]]))
    W = cotangent_weights(m)
    assert np.abs(W.data).max() <= 2 * COT_CLAMP


def test_normalize_mesh():
    m = torus(16, 8, R=3.0, r=1.0)
    out = normalize_mesh(m)
    lo, hi = out.bounding_box()
    assert (hi - lo).max() == pytest.approx(0.3)
    assert np.abs((lo + hi) / 2).max() < 1e-12
    # pure similarity transform: shape ratios preserved
    assert out.n_vertices == m.n_vertices
    np.testing.assert_array_equal(out.triangles, m.triangles)


def test_normalize_mesh_errors():
    with pytest.raises(EmptyMeshError):
        normalize_mesh(TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))
    with pytest.raises(DataError):
        normalize_mesh(TriMesh(np.zeros((4, 3)), np.array([[0, 1, 2]])))


def test_cleanup_merges_duplicates_lowest_index_survives():
    # vertex 3 duplicates vertex 0; colors should average
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1e-5, 0, 0]])
    tris = np.array([[0, 1, 2], [3, 2, 1]])
    colors = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0.0, 0, 0]])
    out, index = weld_mesh(TriMesh(verts, tris, colors))
    assert out.n_vertices == 3
    np.testing.assert_array_equal(index, [0, 1, 2, 0])
    np.testing.assert_array_equal(out.vertices[0], verts[0])
    np.testing.assert_allclose(out.colors[0], [0.5, 0, 0])
    assert out.n_triangles == 2


def union_find_merge(mesh):
    """Reference vertex merge, (mesh, index): union-find over the pairs
    within the tolerance, the lowest index of each class survives, colors
    are averaged, and triangles that collapse are dropped."""
    lo, hi = mesh.bounding_box()
    tol = MERGE_TOL_FRACTION * float(np.linalg.norm(hi - lo))
    parent = list(range(mesh.n_vertices))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in cKDTree(mesh.vertices).query_pairs(tol):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    root = np.array([find(i) for i in range(mesh.n_vertices)])
    keep = np.unique(root)
    new_index = np.searchsorted(keep, root)
    tris = new_index[mesh.triangles]
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2])]
    colors = None
    if mesh.colors is not None:
        colors = np.zeros((len(keep), 3))
        np.add.at(colors, new_index, mesh.colors)
        colors /= np.bincount(new_index)[:, None]
    return TriMesh(mesh.vertices[keep], tris, colors), new_index


@st.composite
def clustered_meshes(draw):
    """Chains of nearby vertices around lattice points of a box whose
    corners are vertices too, so the merge tolerance is fixed. A chain
    spaced 0.6 tol merges only transitively (its ends are 1.2 tol apart);
    one spaced 1.5 tol does not merge."""
    tol = MERGE_TOL_FRACTION * np.sqrt(3.0) * 10.0
    points = [(0.0, 0.0, 0.0), (10.0, 10.0, 10.0)]
    centers = draw(st.lists(st.tuples(*[st.integers(1, 9)] * 3),
                            min_size=1, max_size=5, unique=True))
    for c in centers:
        step = draw(st.sampled_from([0.3, 0.6, 0.9, 1.5])) * tol
        points += [(c[0] + i * step, c[1], c[2])
                   for i in range(draw(st.integers(1, 4)))]
    order = draw(st.permutations(range(len(points))))
    verts = np.array(points)[order]
    n = len(verts)
    tris = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3,
                                  max_size=3, unique=True),
                         min_size=1, max_size=12))
    colors = draw(st.none() | arrays(np.float64, (n, 3),
                                     elements=st.floats(0.0, 1.0)))
    return TriMesh(verts, np.array(tris), colors)


@given(mesh=clustered_meshes())
def test_cleanup_merge_matches_union_find(mesh):
    want, want_index = union_find_merge(mesh)
    if want.n_triangles == 0:
        with pytest.raises(EmptyMeshError):
            weld_mesh(mesh)
        return
    got, index = weld_mesh(mesh)
    np.testing.assert_array_equal(index, want_index)
    np.testing.assert_array_equal(got.vertices, want.vertices)
    np.testing.assert_array_equal(got.triangles, want.triangles)
    if mesh.colors is None:
        assert got.colors is None
    else:
        np.testing.assert_array_equal(got.colors, want.colors)


@pytest.mark.parametrize("mesh", [grid_patch(72, 72), torus(120, 60),
                                  icosphere(5)],
                         ids=["grid72", "torus7200", "sphere10242"])
def test_cleanup_keeps_every_vertex_of_a_dense_mesh(mesh):
    out, index = weld_mesh(mesh)
    np.testing.assert_array_equal(out.vertices, mesh.vertices)
    np.testing.assert_array_equal(out.triangles, mesh.triangles)
    np.testing.assert_array_equal(index, np.arange(mesh.n_vertices))


def test_cleanup_idempotent():
    m = icosphere(2)
    once, _ = weld_mesh(m)
    twice, _ = weld_mesh(once)
    np.testing.assert_array_equal(once.vertices, twice.vertices)
    np.testing.assert_array_equal(once.triangles, twice.triangles)
