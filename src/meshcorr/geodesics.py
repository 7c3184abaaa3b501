"""Graph geodesics, semantic vertex groups, and the assignment-based
semantic distance between groups.

Geodesics are all-pairs shortest paths over the edge graph with
Euclidean edge lengths; at the ~2000-vertex dataset regime the
edge-graph error is well inside every evaluation tolerance. Distances
are computed in f64 and stored as f32 on disk ("DGM1" container).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import ArgumentError, DataError, DisconnectedMeshError, FormatError
from .mesh import TriMesh

_MAGIC = b"DGM1"


@dataclass(frozen=True)
class GeodesicMatrix:
    d: np.ndarray  # (n, n) nonnegative, symmetric, zero diagonal

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class SemanticGroups:
    group_of: np.ndarray           # (n,) int labels >= 0
    names: dict | None = None      # optional id -> string

    def __post_init__(self):
        g = np.asarray(self.group_of, dtype=np.int64)
        if g.ndim != 1 or (g.size and g.min() < 0):
            raise DataError("group_of must be 1-D nonnegative labels")
        g.setflags(write=False)
        object.__setattr__(self, "group_of", g)

    @property
    def n(self) -> int:
        return len(self.group_of)

    def ids(self) -> np.ndarray:
        return np.unique(self.group_of)

    def members(self, group_id: int) -> np.ndarray:
        idx = np.flatnonzero(self.group_of == group_id)
        if len(idx) == 0:
            raise ArgumentError(f"group id {group_id} has no vertices")
        return idx


def geodesic_matrix(mesh: TriMesh) -> GeodesicMatrix:
    """All-pairs edge-graph shortest paths with Euclidean edge lengths."""
    e = mesh.edges()
    n = mesh.n_vertices
    lengths = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]],
                             axis=1)
    graph = sp.csr_matrix(
        (np.concatenate([lengths, lengths]),
         (np.concatenate([e[:, 0], e[:, 1]]),
          np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n))
    n_comp, labels = connected_components(graph, directed=False)
    if n_comp > 1:
        sizes = np.bincount(labels)
        raise DisconnectedMeshError(
            f"mesh has {n_comp} components with sizes {sizes.tolist()}")
    d = shortest_path(graph, method="D", directed=False)
    d = 0.5 * (d + d.T)  # exact symmetry despite float round-off
    np.fill_diagonal(d, 0.0)
    return GeodesicMatrix(d)


def min_cost_assignment(cost):
    """Minimum-cost injective matching of size min(m, n).

    Returns (pairs, total) where pairs is a list of (row, col) sorted
    ascending; the matched index sequence is the lexicographically
    smallest among all optimal matchings.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ArgumentError("cost must be a non-empty 2-D matrix")
    if not np.isfinite(cost).all() or (cost < 0).any():
        raise ArgumentError("costs must be finite and nonnegative")
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    return _lex_smallest(cost, total), total


def _lex_smallest(cost, total):
    """Fix pairs one row at a time, keeping overall optimality.

    A matched row always precedes a skipped one lexicographically, so a
    row is only left unmatched (m > n case) when no column keeps the
    total optimal.
    """
    m, n = cost.shape
    size = min(m, n)
    tol = 1e-9 * max(1.0, abs(total))  # ties within roundoff of optimal
    free_rows = list(range(m))
    free_cols = list(range(n))
    pairs = []
    remaining = total
    while len(pairs) < size:
        i = free_rows.pop(0)
        chosen = None
        for j in free_cols:
            rest = 0.0
            if len(pairs) + 1 < size:
                other = [c for c in free_cols if c != j]
                sub = cost[np.ix_(free_rows, other)]
                r, c = linear_sum_assignment(sub)
                rest = float(sub[r, c].sum())
            if cost[i, j] + rest <= remaining + tol:
                chosen = j
                break
        if chosen is None:
            continue  # leaving row i unmatched is the optimal move
        remaining -= cost[i, chosen]
        pairs.append((i, chosen))
        free_cols.remove(chosen)
    return pairs


def semantic_distance(groups: SemanticGroups, geo: GeodesicMatrix,
                      a: int, b: int) -> float:
    """Assignment-averaged geodesic distance between two groups:
    optimal injective matching cost divided by the smaller group size."""
    ga, gb = groups.members(a), groups.members(b)
    if a == b:
        return 0.0
    cost = geo.d[np.ix_(ga, gb)]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / min(len(ga), len(gb))


# ----------------------------------------------------------------- io

def save_geodesic_matrix(path, geo: GeodesicMatrix):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", geo.n))
        fh.write(np.ascontiguousarray(geo.d, dtype="<f4").tobytes())


def load_geodesic_matrix(path) -> GeodesicMatrix:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise FormatError(f"{path}: bad geodesic matrix magic")
        (n,) = struct.unpack("<I", fh.read(4))
        payload = fh.read(4 * n * n)
        if len(payload) != 4 * n * n:
            raise FormatError(f"{path}: truncated geodesic matrix")
        d = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return GeodesicMatrix(d.reshape(n, n))


def save_groups(path, groups: SemanticGroups):
    doc = {"n": groups.n, "group_of": groups.group_of.tolist()}
    if groups.names:
        doc["names"] = {str(k): v for k, v in groups.names.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_groups(path) -> SemanticGroups:
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: bad groups JSON: {exc}")
    try:
        n = int(doc["n"])
        group_of = np.asarray(doc["group_of"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: groups JSON missing n/group_of: {exc}")
    if len(group_of) != n:
        raise DataError(f"{path}: group_of length {len(group_of)} != n={n}")
    names = doc.get("names")
    if names is not None:
        names = {int(k): str(v) for k, v in names.items()}
    return SemanticGroups(group_of, names)
