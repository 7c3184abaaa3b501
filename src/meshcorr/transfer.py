"""Apply recovered point maps: vertex-color transfer between meshes and
keypoint transfer from a template (source) mesh to a target mesh.

Both read only the point map (target -> source vertex indices and their
confidences), never the functional map C or a spectral basis. A keypoint
is a (label, vertex) pair on the template mesh; one whose vertex no target
vertex maps to is carried by the nearest vertex on the template that one
does map to.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, json_array, read_json, write_json
from .funcmap import PointMap, check_map_fits
from .geodesics import GeodesicMatrix, edge_graph
from .mesh import TriMesh

SNAP_FRACTION = 0.05  # of the bounding-box diagonal


def snap_to_vertex(mesh: TriMesh, xyz) -> int:
    """Nearest vertex to a 3D position, within 5% of the bbox diagonal."""
    xyz = np.asarray(xyz, dtype=np.float64)
    lo, hi = mesh.bounding_box()
    limit = SNAP_FRACTION * float(np.linalg.norm(hi - lo))
    d = np.linalg.norm(mesh.vertices - xyz, axis=1)
    best = int(np.argmin(d))
    if not d[best] <= limit:  # a NaN position fails too
        raise ArgumentError(
            f"position {xyz.tolist()} is {d[best]:.4g} from the nearest "
            f"vertex, beyond the snap limit {limit:.4g}")
    return best


def make_keypoints(mesh: TriMesh, entries) -> list:
    """(label, vertex) pairs from parsed JSON {"label", "vertex"|"xyz"}
    entries; a label that is not a string, or a vertex or xyz not made of
    JSON integers or numbers (see ``json_array``), raises TypeError."""
    keypoints = []
    for e in entries:
        label = e["label"]
        if not isinstance(label, str):
            raise TypeError(f"keypoint label {label!r} is not a string")
        if "vertex" in e:
            v = int(json_array(e["vertex"], int, 0,
                               f"keypoint '{label}' vertex"))
            if not (0 <= v < mesh.n_vertices):
                raise ArgumentError(f"keypoint '{label}': vertex {v} out of range")
        elif "xyz" in e:
            v = snap_to_vertex(mesh, json_array(e["xyz"], float, 1,
                                                f"keypoint '{label}' xyz"))
        else:
            raise ArgumentError(f"keypoint '{label}' needs 'vertex' or 'xyz'")
        keypoints.append((label, v))
    return keypoints


def load_keypoints(path, mesh: TriMesh) -> list:
    """(label, vertex) pairs from a JSON list of keypoint entries. A
    missing or malformed file raises FormatError; an entry that does not
    fit the mesh raises ArgumentError."""
    def parse(entries):
        if not isinstance(entries, list):
            raise TypeError("keypoints file is not a JSON list")
        return make_keypoints(mesh, entries)
    return read_json(path, "keypoints", parse)


def transfer_colors(source_textured: TriMesh, source_simplified: TriMesh,
                    target_simplified: TriMesh, pmap: PointMap) -> TriMesh:
    """Color the target mesh through the point map.

    Step 1 colors each simplified source vertex from its nearest
    textured-source vertex; step 2 copies color match(j) -> j.
    """
    if source_textured.colors is None:
        raise ArgumentError("source textured mesh has no vertex colors")
    check_map_fits(pmap.target_to_source, source_simplified.n_vertices,
                   target_simplified.n_vertices)
    nearest = cKDTree(source_textured.vertices).query(
        source_simplified.vertices)[1]
    simplified_colors = source_textured.colors[nearest]
    return target_simplified.with_colors(
        simplified_colors[pmap.target_to_source])


def transfer_keypoints(keypoints, pmap: PointMap, source: TriMesh):
    """Transfer (label, vertex) keypoints source -> target through a
    target->source map, as (vertex, confidence, label) triples.

    Keypoint vertex i goes to the highest-confidence vertex of its
    preimage {j : match(j) = i}. An empty preimage first replaces i, with
    confidence 0, by the nearest source vertex that some target vertex
    maps to: along the source edges or, if none is reachable, in space.
    Ties go to the smallest index (argmin and argmax are first-hit)."""
    if len(keypoints) == 0 or pmap.n == 0:
        raise ArgumentError("empty keypoint set or point map")
    match = pmap.target_to_source
    check_map_fits(match, source.n_vertices)
    covered = np.bincount(match, minlength=source.n_vertices) > 0
    geo = None  # the source's edge graph, built at the first uncovered keypoint
    results = []
    for label, i in keypoints:
        conf = pmap.confidence
        if not covered[i]:
            if geo is None:
                geo = GeodesicMatrix(edge_graph(source),
                                     np.arange(source.n_vertices))
            d = geo.distance_to(i)
            if np.isinf(d[covered]).all():  # i's part has no covered vertex
                d = np.linalg.norm(source.vertices - source.vertices[i], axis=1)
            i = np.flatnonzero(covered)[np.argmin(d[covered])]
            conf = np.zeros(pmap.n)
        preimage = np.flatnonzero(match == i)
        j = int(preimage[np.argmax(pmap.confidence[preimage])])
        results.append((j, float(conf[j]), label))
    return results


def save_transferred_keypoints(path, results):
    doc = [{"label": label, "vertex": int(j), "confidence": float(conf)}
           for j, conf, label in results]
    write_json(path, doc)
