"""Seeded benchmark inputs.

The mesh constructions are the ones ``tests/conftest.py`` uses (grid
patch, bumpy grid, torus, icosphere, octant groups), kept here so that
editing the tests never changes what the benchmark measures. Every
perturbation (vertex permutation, rigid rotation, sub-edge jitter,
shape parameters, map corruption) draws from a generator seeded by the
benchmark's ``--seed``; nothing is passed to the program's own seed
option. Input files are written by this module, not by the program, so
a change to the program's writers cannot change the inputs.
"""

from __future__ import annotations

import json

import numpy as np

from meshcorr.geodesics import SemanticGroups
from meshcorr.mesh import TriMesh

JITTER_FRACTION = 0.05     # of the shortest edge: never merges vertices
ROTATION_DEG = 4.0         # fixed angle about a seeded axis


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Independent generator per (seed, workload, round, case)."""
    return np.random.default_rng([seed, *stream])


# -------------------------------------------------------- constructions

def grid_patch(nx, ny, z_fn=None):
    xs = np.linspace(0, 1.0, nx)
    ys = np.linspace(0, 1.0, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = np.zeros_like(xx) if z_fn is None else z_fn(xx, yy)
    verts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    a = (np.arange(nx - 1)[:, None] * ny + np.arange(ny - 1)[None, :]).ravel()
    b = a + ny
    faces = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=1).reshape(-1, 3)
    return TriMesh(verts, faces)


def bumpy_height(amp=0.25, fx=3.0, px=0.7, fy=2.0, py=0.4, amp2=0.1):
    return lambda x, y: (amp * np.sin(fx * x + px) * np.cos(fy * y - py)
                         + amp2 * np.sin(7 * x * y))


def bumpy_grid(nx, ny=None, **shape):
    return grid_patch(nx, ny or nx, bumpy_height(**shape))


def torus(n_major, n_minor, R=1.0, r=0.35):
    u = np.arange(n_major) / n_major * 2 * np.pi
    v = np.arange(n_minor) / n_minor * 2 * np.pi
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = R + r * np.cos(vv)
    verts = np.column_stack([(ring * np.cos(uu)).ravel(),
                             (ring * np.sin(uu)).ravel(),
                             (r * np.sin(vv)).ravel()])
    i = np.arange(n_major)[:, None]
    j = np.arange(n_minor)[None, :]
    a = (i * n_minor + j).ravel()
    b = (((i + 1) % n_major) * n_minor + j).ravel()
    a2 = (i * n_minor + (j + 1) % n_minor).ravel()
    b2 = (((i + 1) % n_major) * n_minor + (j + 1) % n_minor).ravel()
    faces = np.stack([a, b, a2, b, b2, a2], axis=1).reshape(-1, 3)
    return TriMesh(verts, faces)


def icosphere(subdivisions):
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
        mid = {}
        vl = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                m = vl[i] + vl[j]
                mid[key] = len(vl)
                vl.append(m / np.linalg.norm(m))
            return mid[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vl)
        faces = np.array(new, dtype=np.int64)
    return TriMesh(verts, faces)


def submesh(mesh, keep):
    idx = np.flatnonzero(keep)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[idx] = np.arange(len(idx))
    tris = mesh.triangles[keep[mesh.triangles].all(axis=1)]
    return TriMesh(mesh.vertices[idx], remap[tris])


def octant_groups(mesh) -> SemanticGroups:
    """Groups by coordinate sign against the bounding-box center. Unlike
    the tests' version the labels 0-7 are not renumbered, so an octant
    has the same id on every mesh, also when another mesh leaves it
    empty."""
    lo, hi = mesh.bounding_box()
    signs = (mesh.vertices > (lo + hi) / 2).astype(int)
    return SemanticGroups(signs[:, 0] * 4 + signs[:, 1] * 2 + signs[:, 2])


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


# --------------------------------------------------------- perturbations

def jitter(mesh, rng):
    """Move every vertex by at most JITTER_FRACTION of the shortest edge."""
    e = mesh.edges()
    shortest = np.linalg.norm(mesh.vertices[e[:, 0]]
                              - mesh.vertices[e[:, 1]], axis=1).min()
    step = rng.uniform(-1.0, 1.0, mesh.vertices.shape)
    return TriMesh(mesh.vertices + JITTER_FRACTION * shortest * step,
                   mesh.triangles, mesh.colors)


def rotate(mesh, rng):
    R = rotation_matrix(rng.normal(size=3), np.deg2rad(ROTATION_DEG))
    return TriMesh(mesh.vertices @ R.T, mesh.triangles, mesh.colors)


def permute(mesh, rng):
    """Reorder vertices; new vertex j is old vertex perm[j]."""
    perm = rng.permutation(mesh.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    colors = None if mesh.colors is None else mesh.colors[perm]
    return TriMesh(mesh.vertices[perm], inv[mesh.triangles], colors), perm


# ----------------------------------------------------------------- files

def write_ply(path, mesh, binary=False):
    """PLY with double xyz, optional uchar rgb, uchar/int face lists."""
    n, m = mesh.n_vertices, mesh.n_triangles
    color = mesh.colors is not None
    header = ["ply", "format binary_little_endian 1.0" if binary
              else "format ascii 1.0", f"element vertex {n}",
              "property double x", "property double y", "property double z"]
    if color:
        header += ["property uchar red", "property uchar green",
                   "property uchar blue"]
    header += [f"element face {m}", "property list uchar int vertex_indices",
               "end_header"]
    head = ("\n".join(header) + "\n").encode("ascii")
    if binary:
        vfields = [("xyz", "<f8", (3,))] + ([("rgb", "u1", (3,))] if color
                                            else [])
        vrec = np.zeros(n, dtype=vfields)
        vrec["xyz"] = mesh.vertices
        if color:
            vrec["rgb"] = np.rint(mesh.colors * 255.0)
        frec = np.zeros(m, dtype=[("cnt", "u1"), ("idx", "<i4", (3,))])
        frec["cnt"] = 3
        frec["idx"] = mesh.triangles
        body = vrec.tobytes() + frec.tobytes()
    else:
        rows = [" ".join(repr(float(c)) for c in v) for v in mesh.vertices]
        if color:
            rgb = np.rint(mesh.colors * 255.0).astype(int)
            rows = [f"{r} {c[0]} {c[1]} {c[2]}" for r, c in zip(rows, rgb)]
        rows += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
        body = ("\n".join(rows) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(head + body)


def write_groups(path, groups: SemanticGroups):
    with open(path, "w") as fh:
        json.dump({"n": groups.n, "group_of": groups.group_of.tolist()}, fh)


def colored(mesh, rng):
    """Smooth seeded color field, quantized to 8 bits like a texture."""
    w = rng.normal(size=(3, 3))
    c = 0.5 + 0.5 * np.sin(mesh.vertices @ w * 4.0 + rng.uniform(0, 6, 3))
    return mesh.with_colors(np.rint(c * 255.0) / 255.0)

