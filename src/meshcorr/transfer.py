"""Apply recovered point maps: vertex-color transfer between meshes and
keypoint transfer from a template (source) mesh to a target mesh.

A keypoint is a (label, vertex) pair on the template mesh.
"""

from __future__ import annotations

import json
import numbers

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, FormatError, MeshCorrError
from .funcmap import PointMap
from .mesh import TriMesh

SNAP_FRACTION = 0.05  # of the bounding-box diagonal


def snap_to_vertex(mesh: TriMesh, xyz) -> int:
    """Nearest vertex to a 3D position, within 5% of the bbox diagonal."""
    xyz = np.asarray(xyz, dtype=np.float64)
    lo, hi = mesh.bounding_box()
    limit = SNAP_FRACTION * float(np.linalg.norm(hi - lo))
    d = np.linalg.norm(mesh.vertices - xyz, axis=1)
    best = int(np.argmin(d))
    if d[best] > limit:
        raise ArgumentError(
            f"position {xyz.tolist()} is {d[best]:.4g} from the nearest "
            f"vertex, beyond the snap limit {limit:.4g}")
    return best


def make_keypoints(mesh: TriMesh, entries) -> list:
    """(label, vertex) pairs from {"label", "vertex"|"xyz"} entries; a
    vertex that is not an integer (a bool, a float, a string) raises
    TypeError."""
    keypoints = []
    for e in entries:
        label = str(e["label"])
        if "vertex" in e:
            v = e["vertex"]
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise TypeError(f"keypoint '{label}': vertex {v!r} is not "
                                "an integer")
            if not (0 <= v < mesh.n_vertices):
                raise ArgumentError(f"keypoint '{label}': vertex {v} out of range")
        elif "xyz" in e:
            v = snap_to_vertex(mesh, e["xyz"])
        else:
            raise ArgumentError(f"keypoint '{label}' needs 'vertex' or 'xyz'")
        keypoints.append((label, int(v)))
    return keypoints


def load_keypoints(path, mesh: TriMesh) -> list:
    """(label, vertex) pairs from a JSON list of keypoint entries. A
    missing or malformed file raises FormatError; an entry that does not
    fit the mesh raises ArgumentError."""
    try:
        with open(path, "r") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise FormatError(f"{path}: keypoints file is not a JSON list")
        return make_keypoints(mesh, entries)
    except MeshCorrError:
        raise  # ArgumentError is also a ValueError
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad keypoints file "
                          f"({type(exc).__name__}: {exc})") from exc


def transfer_colors(source_textured: TriMesh, source_simplified: TriMesh,
                    target_simplified: TriMesh, pmap: PointMap) -> TriMesh:
    """Color the target mesh through the point map.

    Step 1 colors each simplified source vertex from its nearest
    textured-source vertex; step 2 copies color match(j) -> j.
    """
    if source_textured.colors is None:
        raise ArgumentError("source textured mesh has no vertex colors")
    if pmap.n != target_simplified.n_vertices:
        raise ArgumentError("point map length != target vertex count")
    nearest = cKDTree(source_textured.vertices).query(
        source_simplified.vertices)[1]
    simplified_colors = source_textured.colors[nearest]
    return target_simplified.with_colors(
        simplified_colors[pmap.target_to_source])


def transfer_keypoints(keypoints, pmap: PointMap, basis_M, basis_N, C):
    """Transfer (label, vertex) keypoints source -> target through a
    target->source map, as (vertex, confidence, label) triples.

    Keypoint vertex i goes to the highest-confidence vertex of its
    preimage {j : match(j) = i}. An empty preimage falls back, with
    confidence 0, to the target row of basis_N.phi @ C nearest to
    basis_M.phi[i]."""
    if len(keypoints) == 0:
        raise ArgumentError("empty keypoint set")
    if pmap.n != basis_N.n:
        raise ArgumentError("point map length != target vertex count")
    match = pmap.target_to_source
    emb_n = basis_N.phi @ np.asarray(C)
    results = []
    for label, i in keypoints:
        preimage = np.flatnonzero(match == i)
        if len(preimage):
            # ties keep the smallest target index (argmax is first-hit)
            j = int(preimage[np.argmax(pmap.confidence[preimage])])
            conf = float(pmap.confidence[j])
        else:
            j = int(np.argmin(np.linalg.norm(emb_n - basis_M.phi[i], axis=1)))
            conf = 0.0
        results.append((j, conf, label))
    return results


def save_transferred_keypoints(path, results):
    doc = [{"label": label, "vertex": int(j), "confidence": float(conf)}
           for j, conf, label in results]
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
