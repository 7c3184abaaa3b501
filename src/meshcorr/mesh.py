"""Triangle meshes and the discrete operators built on them.

A TriMesh is immutable after construction. ``weld_mesh`` merges
duplicate vertices and returns the index from the input's vertices to
the welded ones; ``vertex_areas`` and ``cotangent_weights`` produce the
mass/stiffness pair (A, W) that the spectral module consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DataError, DegenerateGeometryError, EmptyMeshError

COT_CLAMP = 1.0e4  # bounds cotangents of near-degenerate triangles
TARGET_SIDE = 0.3  # longest bounding-box side after normalize_mesh
MERGE_TOL_FRACTION = 1e-5  # weld distance / bounding-box diagonal


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray          # (n, 3) float64
    triangles: np.ndarray         # (m, 3) int64
    colors: np.ndarray | None = None  # (n, 3) in [0, 1], optional

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must be (n, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise DataError(f"triangles must be (m, 3), got {t.shape}")
        if not np.isfinite(v).all():
            raise DataError("vertex coordinates must be finite")
        n = len(v)
        if t.size and (t.min() < 0 or t.max() >= n):
            raise DataError("triangle index out of range")
        if t.size:
            degen = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if degen.any():
                raise DataError(
                    f"{int(degen.sum())} triangles repeat a vertex index")
        if self.colors is not None:
            c = np.ascontiguousarray(np.asarray(self.colors, dtype=np.float64))
            if c.shape != (n, 3):
                raise DataError(f"colors must be ({n}, 3), got {c.shape}")
            if not np.isfinite(c).all():
                raise DataError("colors must be finite")
            c.setflags(write=False)
            object.__setattr__(self, "colors", c)
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def edges(self) -> np.ndarray:
        """Unique undirected edges, (e, 2) with i < j."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        n = self.n_vertices  # one int64 key per edge sorts faster than rows
        return np.column_stack(np.divmod(np.unique(e[:, 0] * n + e[:, 1]), n))

    def with_colors(self, colors) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles, colors)


@dataclass(frozen=True)
class VertexAreas:
    """Diagonal of the barycentric mass matrix A."""
    areas: np.ndarray  # (n,), positive

    @property
    def total(self) -> float:
        return float(self.areas.sum())

    def check_positive(self) -> None:
        """Raise DegenerateGeometryError unless every area is finite and
        positive: a vertex that no triangle uses, or that lies on
        degenerate triangles only, has area 0."""
        bad = ~(np.isfinite(self.areas) & (self.areas > 0))
        if bad.any():
            raise DegenerateGeometryError(
                f"{int(bad.sum())} vertices have zero or non-finite area "
                "(unreferenced or on degenerate triangles only)")


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def vertex_areas(mesh: TriMesh) -> VertexAreas:
    """Barycentric vertex areas: 1/3 of each incident triangle."""
    tri_a = triangle_areas(mesh)
    if (tri_a == 0.0).any():
        warnings.warn(f"{int((tri_a == 0).sum())} zero-area triangles "
                      "contribute nothing to vertex areas")
    areas = np.zeros(mesh.n_vertices)
    np.add.at(areas, mesh.triangles.ravel(), np.repeat(tri_a / 3.0, 3))
    return VertexAreas(areas)


def cotangent_weights(mesh: TriMesh) -> sp.csr_matrix:
    """Cotangent stiffness matrix W.

    Off-diagonal w_ij = 1/2 (cot a_ij + cot b_ij) over the triangles
    sharing edge (i, j); diagonal makes each row sum to zero, so W is
    negative semidefinite. Cotangents are clamped to +-COT_CLAMP.
    """
    v = mesh.vertices
    t = mesh.triangles
    n = mesh.n_vertices

    rows, cols, vals = [], [], []
    # corner c is opposite edge (a, b)
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u = v[t[:, a]] - v[t[:, c]]
        w = v[t[:, b]] - v[t[:, c]]
        cross = np.linalg.norm(np.cross(u, w), axis=1)
        # guard zero-area triangles; clamp handles near-degenerate ones
        cot = np.einsum("ij,ij->i", u, w) / np.maximum(cross, 1e-300)
        cot = np.clip(cot, -COT_CLAMP, COT_CLAMP)
        half = 0.5 * cot
        rows.append(t[:, a]); cols.append(t[:, b]); vals.append(half)
        rows.append(t[:, b]); cols.append(t[:, a]); vals.append(half)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    W = W + sp.diags(-np.asarray(W.sum(axis=1)).ravel())
    return W.tocsr()


def normalize_mesh(mesh: TriMesh) -> TriMesh:
    """Center the bounding box at the origin and scale its longest side
    to TARGET_SIDE."""
    if mesh.n_vertices == 0:
        raise EmptyMeshError("cannot normalize an empty mesh")
    lo, hi = mesh.bounding_box()
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateGeometryError("all vertices coincide")
    center = (lo + hi) / 2.0
    verts = (mesh.vertices - center) * (TARGET_SIDE / extent)
    return TriMesh(verts, mesh.triangles, mesh.colors)


def weld_mesh(mesh: TriMesh) -> tuple[TriMesh, np.ndarray]:
    """Weld coincident vertices: (welded mesh, index), where index[i] is
    the welded vertex of input vertex i. Vertices within
    MERGE_TOL_FRACTION of the bounding-box diagonal merge, so only
    duplicates weld and no edge of a dense mesh collapses; the lowest
    vertex index survives, colors are averaged and triangles that
    collapse are dropped. Every other vertex and component is kept."""
    if mesh.n_triangles == 0:
        raise EmptyMeshError("mesh has no triangles")

    n = mesh.n_vertices
    lo, hi = mesh.bounding_box()
    tol = MERGE_TOL_FRACTION * float(np.linalg.norm(hi - lo))
    pairs = cKDTree(mesh.vertices).query_pairs(tol, output_type="ndarray") \
        if tol > 0.0 else ()
    if not len(pairs):
        return mesh, np.arange(n)

    # each connected component of the close-pair graph welds to its
    # lowest vertex, its root; the roots keep their order
    close = sp.coo_matrix((np.ones(len(pairs)), pairs.T), shape=(n, n))
    labels = connected_components(close, directed=False)[1]
    root = np.unique(labels, return_index=True)[1][labels]
    keep, index = np.unique(root, return_inverse=True)
    colors = mesh.colors
    if colors is not None:
        summed = np.zeros((len(keep), 3))
        np.add.at(summed, index, colors)
        colors = summed / np.bincount(index)[:, None]
    tris = index[mesh.triangles]
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2])]
    if len(tris) == 0:
        raise EmptyMeshError("no triangles left after welding")
    return TriMesh(mesh.vertices[keep], tris, colors), index
