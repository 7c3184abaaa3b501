import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse.csgraph import dijkstra

from meshcorr.blas import openblas_thread_controls
from meshcorr.mesh import TriMesh
from meshcorr.spectral import SpectralBasis

# Property tests draw the same examples on every run and stay fast.
settings.register_profile("meshcorr", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("meshcorr")

# hypothesis reports a failing example through this module, whose libcst
# import warns; imported first under filterwarnings = error, the warning
# would abort the whole session instead of failing the one test
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@contextmanager
def blas_threads(count):
    """Both bundled OpenBLAS libraries at ``count`` threads in the block,
    set and restored through the setters ``blas.ONE_BLAS_THREAD`` uses."""
    controls = openblas_thread_controls()
    assert len(controls) == 2, "numpy's and scipy's OpenBLAS not found"
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(count)
    try:
        yield
    finally:
        for (_, set_), old in zip(controls, saved):
            set_(old)


def icosphere(subdivisions=2, radius=1.0):
    """Subdivided icosahedron projected to the sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)

    for _ in range(subdivisions):
        edge_mid = {}
        new_faces = []
        verts_list = [v for v in verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc],
                          [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return TriMesh(verts * radius, faces)


def grid_patch(nx=10, ny=10, scale=1.0, z_fn=None):
    """Open rectangular patch triangulated as a regular grid."""
    xs = np.linspace(0, scale, nx)
    ys = np.linspace(0, scale, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    if z_fn is None:
        zz = np.zeros_like(xx)
    else:
        zz = z_fn(xx, yy)
    verts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = a + ny
            faces.append([a, b, a + 1])
            faces.append([b, b + 1, a + 1])
    return TriMesh(verts, np.array(faces, dtype=np.int64))


def torus(n_major=24, n_minor=12, R=1.0, r=0.35):
    us = np.arange(n_major) / n_major * 2 * np.pi
    vs = np.arange(n_minor) / n_minor * 2 * np.pi
    verts = []
    for u in us:
        for v in vs:
            verts.append([(R + r * np.cos(v)) * np.cos(u),
                          (R + r * np.cos(v)) * np.sin(u),
                          r * np.sin(v)])
    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = ((i + 1) % n_major) * n_minor + j
            a2 = i * n_minor + (j + 1) % n_minor
            b2 = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            faces.append([a, b, a2])
            faces.append([b, b2, a2])
    return TriMesh(np.array(verts), np.array(faces, dtype=np.int64))


def all_pairs_geodesics(geo):
    """(n, n) all-pairs distances over a GeodesicMatrix's edge graph,
    read through its index, symmetric with zero diagonal: the reference
    the per-group distance fields are checked against."""
    d = dijkstra(geo.graph, directed=False)
    d = 0.5 * (d + d.T)  # exact symmetry despite float round-off
    np.fill_diagonal(d, 0.0)
    return d[np.ix_(geo.index, geo.index)]


def reference_eigenbasis(W, A, k):
    """(phi, lam) by the dense formula: S = A^-1/2 (-W) A^-1/2 scaled and
    symmetrized as dense arrays, then checked and copied by ``eigh``,
    with the signs ``eigh`` gives. The eigenbasis must match it bit for
    bit."""
    import scipy.linalg
    inv_sqrt = 1.0 / np.sqrt(A.areas)
    S = (-W).toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
    S = 0.5 * (S + S.T)
    vals, vecs = scipy.linalg.eigh(S, subset_by_index=[0, k - 1])
    phi = vecs * inv_sqrt[:, None]
    return phi, np.maximum(vals, 0.0)


def sign_flipped(basis, seed):
    """(basis with the columns of a random nonempty, proper subset
    negated, the signs): the basis a solver could as well have returned."""
    rng = np.random.default_rng(seed)
    signs = np.ones(basis.k)
    signs[rng.permutation(basis.k)[:rng.integers(1, basis.k)]] = -1.0
    return SpectralBasis(basis.phi * signs, basis.lam, basis.areas), signs


def permuted(mesh, seed=0):
    """``mesh`` with its vertices reordered by
    ``default_rng(seed).permutation(n)``: new vertex j is old vertex
    perm[j], so a perfect match of the copy to ``mesh`` is perm."""
    perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
    return TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.triangles])


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def octant_groups(mesh):
    """Eight semantic groups from coordinate-sign octants (relative to
    the bbox center), merged so every group is non-empty."""
    from meshcorr.geodesics import SemanticGroups
    lo, hi = mesh.bounding_box()
    c = (lo + hi) / 2
    signs = (mesh.vertices > c).astype(int)
    labels = signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2]
    # re-index to consecutive ids over the non-empty octants
    uniq = np.unique(labels)
    remap = {u: i for i, u in enumerate(uniq)}
    return SemanticGroups(np.array([remap[l] for l in labels]))


def bumpy_grid(nx, ny=None):
    """Grid patch with an asymmetric height field; its heat/energy
    descriptors vary from vertex to vertex, unlike flat or homogeneous
    surfaces."""
    ny = ny or nx
    return grid_patch(nx, ny,
                      z_fn=lambda x, y: 0.25 * np.sin(3 * x + 0.7)
                      * np.cos(2 * y - 0.4) + 0.1 * np.sin(7 * x * y))


def seam_split_grid(nx=20, column=10):
    """``bumpy_grid(nx)`` with the vertices of one column duplicated for
    the triangles to its right. The duplicates, appended in order, lie on
    their originals, so the weld merges them back."""
    m = bumpy_grid(nx)
    tris = m.triangles.copy()
    on_seam = (tris.min(axis=1) // nx == column)[:, None] \
        & (tris // nx == column)
    tris[on_seam] += m.n_vertices - column * nx
    seam = m.vertices[column * nx:(column + 1) * nx]
    return TriMesh(np.vstack([m.vertices, seam]), tris)


def ellipsoid(subdivisions):
    m = icosphere(subdivisions)
    return TriMesh(m.vertices * np.array([1.0, 0.72, 0.55]), m.triangles,
                   m.colors)


def bumpy_torus(n_major, n_minor):
    m = torus(n_major, n_minor)
    v = m.vertices
    r = (1.0 + 0.12 * np.sin(3 * np.arctan2(v[:, 1], v[:, 0]) + 0.5)
         + 0.08 * np.cos(5 * v[:, 2] / np.abs(v[:, 2]).max()))
    return TriMesh(v * r[:, None], m.triangles, m.colors)


# registry used by the acceptance tests: name -> builder, 100-2500 verts
FIXTURE_MESHES = {
    "grid144": lambda: grid_patch(12, 12),
    "sphere162": lambda: icosphere(2),
    "bumpy_grid400": lambda: bumpy_grid(20),
    "torus480": lambda: torus(30, 16),
    "bumpy_torus480": lambda: bumpy_torus(30, 16),
    "sphere642": lambda: icosphere(3),
    "ellipsoid642": lambda: ellipsoid(3),
    "grid900": lambda: grid_patch(30, 30),
    "bumpy_grid1024": lambda: bumpy_grid(32),
    "torus2000": lambda: torus(50, 40),
    "bumpy_grid2401": lambda: bumpy_grid(49),
}


@pytest.fixture(scope="session")
def sphere2():
    return icosphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return icosphere(3)


@pytest.fixture(scope="session")
def small_patch():
    return grid_patch(8, 8)
