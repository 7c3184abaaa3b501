"""Correspondence evaluation: semantic-group normalized geodesic error,
threshold-accuracy AUC, and the all-pairs category benchmark.

Errors are geodesic distances on the source mesh from the predicted
match to the nearest vertex of the target vertex's ground-truth group,
normalized by sqrt(source surface area) and reported x100.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataError, EvaluationError, FormatError
from .geodesics import (GeodesicMatrix, SemanticGroups, geodesic_matrix,
                        load_geodesic_matrix, load_groups,
                        save_geodesic_matrix)
from .mesh import TriMesh, VertexAreas, vertex_areas
from .meshio import load_mesh

DEFAULT_MAX_THRESHOLD = 25.0
NUM_THRESHOLDS = 100


def geodesic_error(target_to_source, src_groups: SemanticGroups,
                   tgt_groups: SemanticGroups, src_geo: GeodesicMatrix,
                   src_areas: VertexAreas) -> np.ndarray:
    """Per-target-vertex normalized geodesic error (x100).

    Target vertices whose group id does not exist on the source mesh
    are excluded and returned as NaN.
    """
    match = np.asarray(getattr(target_to_source, "target_to_source",
                               target_to_source), dtype=np.int64)
    if len(match) != tgt_groups.n:
        raise ArgumentError("map length does not match target groups")
    norm = 100.0 / np.sqrt(src_areas.total)
    src_ids = set(src_groups.ids().tolist())
    errors = np.full(len(match), np.nan)
    for gid in np.unique(tgt_groups.group_of):
        sel = tgt_groups.group_of == gid
        if int(gid) not in src_ids:
            continue
        members = src_groups.members(int(gid))
        d = src_geo.d[np.ix_(match[sel], members)].min(axis=1)
        errors[sel] = d * norm
    if np.isnan(errors).all():
        raise EvaluationError(
            "no target group has a counterpart on the source mesh")
    return errors


def auc(errors, max_threshold: float = DEFAULT_MAX_THRESHOLD):
    """Threshold-accuracy curve at NUM_THRESHOLDS evenly spaced
    thresholds and its normalized trapezoidal area."""
    if max_threshold <= 0:
        raise ArgumentError("max_threshold must be > 0")
    errors = np.asarray(errors, dtype=np.float64)
    errors = errors[~np.isnan(errors)]
    if errors.size == 0:
        raise ArgumentError("cannot compute AUC of an empty error list")
    thresholds = np.linspace(0.0, max_threshold, NUM_THRESHOLDS)
    accuracy = (errors[None, :] <= thresholds[:, None]).mean(axis=1)
    area = float(np.trapezoid(accuracy, thresholds) / max_threshold)
    return list(zip(thresholds.tolist(), accuracy.tolist())), area


@dataclass(frozen=True)
class DatasetInstance:
    name: str
    category: str
    split: str
    remeshed: TriMesh
    groups: SemanticGroups
    geo: GeodesicMatrix

    @property
    def areas(self) -> VertexAreas:
        return vertex_areas(self.remeshed)


@dataclass(frozen=True)
class EvalResult:
    pair: tuple
    err_mean: float
    auc: float
    coverage: float
    wall_ms: float
    failed: bool = False
    message: str = ""


def load_dataset(root, split: str | None = None):
    """Load instances from root/<category>/<instance>/{mesh.ply,
    remeshed.ply, groups.json, geo.dgm}. A missing geodesic matrix is
    computed and cached next to the meshes. An optional splits.json at
    the root maps "<category>/<instance>" to a split name (default
    "test")."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root not found: {root}")
    splits = {}
    split_file = root / "splits.json"
    if split_file.exists():
        splits = json.loads(split_file.read_text())
    instances = []
    for cat_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for inst_dir in sorted(p for p in cat_dir.iterdir() if p.is_dir()):
            key = f"{cat_dir.name}/{inst_dir.name}"
            inst_split = splits.get(key, "test")
            if split is not None and inst_split != split:
                continue
            instances.append(load_instance(inst_dir, inst_split))
    return instances


def load_annotation(inst_dir):
    """(remeshed mesh, groups) of one instance directory, checked against
    each other. mesh.ply, the textured source that transfer-color reads,
    must exist but is not parsed."""
    inst_dir = Path(inst_dir)
    if not (inst_dir / "mesh.ply").exists():
        raise FormatError(f"mesh file not found: {inst_dir / 'mesh.ply'}")
    remeshed = load_mesh(inst_dir / "remeshed.ply")
    groups = load_groups(inst_dir / "groups.json")
    if groups.n != remeshed.n_vertices:
        raise DataError(
            f"{inst_dir}: groups.n={groups.n} != remeshed vertices "
            f"{remeshed.n_vertices}")
    return remeshed, groups


def load_instance(inst_dir, split: str = "test") -> DatasetInstance:
    """Load one instance directory; its category is its parent's name.
    Evaluation reads remeshed.ply, groups.json and geo.dgm, computing
    and caching geo.dgm when it is missing."""
    inst_dir = Path(inst_dir)
    remeshed, groups = load_annotation(inst_dir)
    geo_path = inst_dir / "geo.dgm"
    if geo_path.exists():
        geo = load_geodesic_matrix(geo_path)
    else:
        geo = geodesic_matrix(remeshed)
        save_geodesic_matrix(geo_path, geo)
        geo = load_geodesic_matrix(geo_path)  # keep the f32 round-trip
    if geo.n != remeshed.n_vertices:
        raise DataError(
            f"{inst_dir}: geodesic matrix n={geo.n} != remeshed vertices "
            f"{remeshed.n_vertices}")
    return DatasetInstance(inst_dir.name, inst_dir.parent.name, split,
                           remeshed, groups, geo)


def evaluate_pair(src: DatasetInstance, tgt: DatasetInstance, matcher,
                  max_threshold: float = DEFAULT_MAX_THRESHOLD) -> EvalResult:
    start = time.perf_counter()
    try:
        pmap = matcher(src, tgt)
        errors = geodesic_error(pmap, src.groups, tgt.groups, src.geo,
                                src.areas)
        included = errors[~np.isnan(errors)]
        _, area = auc(included, max_threshold)
        wall = (time.perf_counter() - start) * 1000.0
        return EvalResult((src.name, tgt.name), float(included.mean()), area,
                          float(len(included)) / len(errors), wall)
    except Exception as exc:  # per-pair failures are recorded, not fatal
        wall = (time.perf_counter() - start) * 1000.0
        return EvalResult((src.name, tgt.name), float("nan"), float("nan"),
                          0.0, wall, failed=True, message=str(exc))


def benchmark_category(instances, category: str, matcher, jobs: int = 1,
                       max_threshold: float = DEFAULT_MAX_THRESHOLD):
    """Evaluate all ordered pairs (self-pairs included) of a category.

    Returns (results, aggregates); results follow the deterministic
    (source, target) instance order regardless of worker completion.
    """
    chosen = [i for i in instances if i.category == category]
    if not chosen:
        raise ArgumentError(f"no instances in category '{category}'")
    pairs = [(s, t) for s in chosen for t in chosen]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda st: evaluate_pair(st[0], st[1], matcher, max_threshold),
                pairs))
    else:
        results = [evaluate_pair(s, t, matcher, max_threshold)
                   for s, t in pairs]
    ok = [r for r in results if not r.failed]
    aggregates = {
        "category": category,
        "pairs": len(results),
        "failed": len(results) - len(ok),
        "err_mean": float(np.mean([r.err_mean for r in ok])) if ok else float("nan"),
        "auc_mean": float(np.mean([r.auc for r in ok])) if ok else float("nan"),
    }
    return results, aggregates


def write_results_csv(path, results):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "err", "auc", "coverage",
                         "failed", "wall_ms"])
        for r in results:
            writer.writerow([r.pair[0], r.pair[1],
                             "" if np.isnan(r.err_mean) else f"{r.err_mean:.6f}",
                             "" if np.isnan(r.auc) else f"{r.auc:.6f}",
                             f"{r.coverage:.6f}",
                             int(r.failed), f"{r.wall_ms:.3f}"])


def write_aggregates_json(path, aggregates_by_category):
    doc = {cat: {"err_mean": agg["err_mean"], "auc_mean": agg["auc_mean"]}
           for cat, agg in aggregates_by_category.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
