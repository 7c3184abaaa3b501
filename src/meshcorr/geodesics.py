"""Graph geodesics, semantic vertex groups, and the assignment-based
semantic distance between groups.

Geodesics are shortest paths over the edge graph with Euclidean edge
lengths; at the ~2000-vertex dataset regime the edge-graph error is well
inside every evaluation tolerance. Evaluation needs only one distance
field per group, a multi-source Dijkstra in f64 that the
``GeodesicMatrix`` keeps once computed, so nothing of size n x n is
built or stored. The graph is built on the welded mesh and read through
the weld's index, so vertices a file duplicates along a seam are one
graph vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (ArgumentError, DataError, DisconnectedMeshError,
                     json_array, read_json, write_json)
from .mesh import TriMesh, weld_mesh


@dataclass(frozen=True)
class GeodesicMatrix:
    """A mesh's edge graph; distances are computed from it on demand.

    `graph` must be symmetric, as `edge_graph` builds it: every edge is
    stored in both directions with the same length. Dijkstra then runs
    directed, which gives the undirected distances without transposing
    the graph on every call. `index[i]` is the graph vertex of mesh
    vertex i, so vertices that share a graph vertex share distances;
    members are given, and distances returned, over the mesh's vertices.
    """
    graph: sp.csr_matrix  # (m, m) symmetric Euclidean edge lengths
    index: np.ndarray     # (n,) graph vertex of each mesh vertex
    _fields: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)  # member-set bytes -> its field

    def distance_to(self, members) -> np.ndarray:
        """(n,) distance from every vertex to its nearest member,
        read-only. Each member set's field is computed once and kept, so
        scoring many maps against one source mesh runs one Dijkstra per
        group and holds O(n·groups) floats."""
        members = np.asarray(members, dtype=np.int64)
        key = members.tobytes()
        dist = self._fields.get(key)
        if dist is None:
            dist = dijkstra(self.graph, directed=True,
                            indices=self.index[members],
                            min_only=True)[self.index]
            dist.setflags(write=False)
            self._fields[key] = dist
        return dist


@dataclass(frozen=True)
class SemanticGroups:
    group_of: np.ndarray           # (n,) int labels >= 0

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


def edge_graph(mesh: TriMesh) -> sp.csr_matrix:
    """(n, n) symmetric graph of the mesh edges with Euclidean lengths."""
    i, j = mesh.edges().T
    w = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j], axis=1)
    return sp.csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])),
                         shape=(mesh.n_vertices,) * 2)


def geodesic_matrix(mesh: TriMesh) -> GeodesicMatrix:
    """Edge graph of a mesh that is connected once welded, so that a seam
    whose vertices the file duplicates does not cut it."""
    welded, index = weld_mesh(mesh)
    graph = edge_graph(welded)
    n_comp, labels = connected_components(graph, directed=False)
    if n_comp > 1:
        sizes = np.bincount(labels)
        raise DisconnectedMeshError(
            f"mesh has {n_comp} components with sizes {sizes.tolist()}")
    return GeodesicMatrix(graph, index)


def min_cost_assignment(cost):
    """Minimum-cost injective matching of size min(m, n). Returns
    (pairs, total): one optimal matching as a list of (row, col) with
    rows ascending, and its cost."""
    # imported here, so eval and transfer never load scipy.optimize
    from scipy.optimize import linear_sum_assignment
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ArgumentError("cost must be a non-empty 2-D matrix")
    if not np.isfinite(cost).all() or (cost < 0).any():
        raise ArgumentError("costs must be finite and nonnegative")
    rows, cols = linear_sum_assignment(cost)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())


def semantic_distance(groups: SemanticGroups, geo: GeodesicMatrix,
                      a: int, b: int) -> float:
    """Assignment-averaged geodesic distance between two groups:
    optimal injective matching cost divided by the smaller group size.
    Groups with vertices that no path joins raise ArgumentError."""
    ga, gb = groups.members(a), groups.members(b)
    if a == b:
        return 0.0
    cost = dijkstra(geo.graph, directed=True,
                    indices=geo.index[ga])[:, geo.index[gb]]
    if np.isinf(cost).any():
        raise ArgumentError(f"no path joins groups {a} and {b}: some of "
                            "their vertices lie in different components")
    return min_cost_assignment(cost)[1] / min(len(ga), len(gb))


# ----------------------------------------------------------------- io

def save_groups(path, groups: SemanticGroups):
    write_json(path, {"n": groups.n, "group_of": groups.group_of.tolist()})


def load_groups(path) -> SemanticGroups:
    """Read a groups file; keys other than n and group_of are ignored,
    and a missing or malformed file, or an n or group_of that is not made
    of JSON integers, raises FormatError."""
    def parse(doc):
        n = int(json_array(doc["n"], int, 0, "n"))
        group_of = json_array(doc["group_of"], int, 1, "group_of")
        if len(group_of) != n:
            raise DataError(f"{path}: group_of length {len(group_of)} != n={n}")
        try:
            return SemanticGroups(group_of)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    return read_json(path, "groups", parse)
