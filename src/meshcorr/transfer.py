"""Apply recovered point maps: vertex-color transfer between meshes and
keypoint transfer from a template (source) mesh to a target mesh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, DataError
from .funcmap import PointMap
from .mesh import TriMesh

SNAP_FRACTION = 0.05  # of the bounding-box diagonal


@dataclass(frozen=True)
class Keypoint:
    label: str
    vertex: int


@dataclass(frozen=True)
class KeypointSet:
    points: tuple

    def __len__(self):
        return len(self.points)


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


def make_keypoints(mesh: TriMesh, entries) -> KeypointSet:
    """Build a KeypointSet from {"label", "vertex"|"xyz"} entries."""
    points = []
    for e in entries:
        label = str(e["label"])
        if "vertex" in e:
            v = int(e["vertex"])
            if not (0 <= v < mesh.n_vertices):
                raise ArgumentError(f"keypoint '{label}': vertex {v} out of range")
        elif "xyz" in e:
            v = snap_to_vertex(mesh, e["xyz"])
        else:
            raise ArgumentError(f"keypoint '{label}' needs 'vertex' or 'xyz'")
        points.append(Keypoint(label, v))
    return KeypointSet(tuple(points))


def load_keypoints(path, mesh: TriMesh) -> KeypointSet:
    with open(path, "r") as fh:
        try:
            entries = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad keypoints JSON: {exc}")
    return make_keypoints(mesh, entries)


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


def transfer_keypoints(keypoints: KeypointSet, pmap: PointMap,
                       basis_M=None, basis_N=None, C=None):
    """Transfer template keypoints source -> target through a
    target->source map.

    For each template vertex i the target is the highest-confidence
    vertex in the preimage {j : match(j) = i}, falling back to the
    spectral-embedding nearest neighbor (confidence 0) when the
    preimage is empty and a basis pair is supplied.
    """
    if len(keypoints) == 0:
        raise ArgumentError("empty keypoint set")
    match = pmap.target_to_source
    results = []
    for kp in keypoints.points:
        i = kp.vertex
        preimage = np.flatnonzero(match == i)
        if len(preimage):
            best = preimage[np.argmax(pmap.confidence[preimage])]
            # ties keep the smallest target index (argmax is first-hit)
            j = int(best)
            conf = float(pmap.confidence[best])
        elif basis_M is not None and basis_N is not None and C is not None:
            emb_n = basis_N.phi @ np.asarray(C)
            d = np.linalg.norm(emb_n - basis_M.phi[i], axis=1)
            j = int(np.argmin(d))
            conf = 0.0
        else:
            raise ArgumentError(
                f"keypoint '{kp.label}': empty preimage and no spectral "
                "fallback available")
        results.append((j, conf, kp.label))
    return results


def save_transferred_keypoints(path, results):
    doc = [{"label": label, "vertex": int(j), "confidence": float(conf)}
           for j, conf, label in results]
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
