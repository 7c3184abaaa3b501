"""Correspondence evaluation: semantic-group normalized geodesic error,
threshold-accuracy AUC, and the all-pairs category benchmark.

Errors are geodesic distances on the source mesh from the predicted
match to the nearest vertex of the target vertex's ground-truth group,
normalized by sqrt(source surface area) and reported x100.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ArgumentError, DataError, EvaluationError, input_file,
                     read_json, write_json)
from .funcmap import check_map_fits
from .geodesics import (GeodesicMatrix, SemanticGroups, geodesic_matrix,
                        load_groups)
from .mesh import TriMesh, VertexAreas, vertex_areas
from .meshio import load_mesh

MAX_THRESHOLD = 25.0
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
    check_map_fits(match, src_groups.n, tgt_groups.n)
    norm = 100.0 / np.sqrt(src_areas.total)
    src_ids = set(src_groups.ids().tolist())
    errors = np.full(len(match), np.nan)
    for gid in np.unique(tgt_groups.group_of):
        sel = tgt_groups.group_of == gid
        if int(gid) not in src_ids:
            continue
        members = src_groups.members(int(gid))
        errors[sel] = src_geo.distance_to(members)[match[sel]] * norm
    if np.isnan(errors).all():
        raise EvaluationError(
            "no target group has a counterpart on the source mesh")
    return errors


def auc(errors):
    """Threshold-accuracy curve at NUM_THRESHOLDS evenly spaced
    thresholds in [0, MAX_THRESHOLD] and its normalized trapezoidal area."""
    errors = np.asarray(errors, dtype=np.float64)
    errors = errors[~np.isnan(errors)]
    if errors.size == 0:
        raise ArgumentError("cannot compute AUC of an empty error list")
    thresholds = np.linspace(0.0, MAX_THRESHOLD, NUM_THRESHOLDS)
    # the count of errors at or below each threshold
    accuracy = np.searchsorted(np.sort(errors), thresholds,
                               side="right") / errors.size
    area = float(np.trapezoid(accuracy, thresholds) / MAX_THRESHOLD)
    return list(zip(thresholds.tolist(), accuracy.tolist())), area


@dataclass(frozen=True)
class DatasetInstance:
    name: str
    category: str
    remeshed: TriMesh
    groups: SemanticGroups

    @functools.cached_property
    def geo(self) -> GeodesicMatrix:
        return geodesic_matrix(self.remeshed)

    @functools.cached_property
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
    remeshed.ply, groups.json}; nothing is written into the tree. An
    optional splits.json at the root maps "<category>/<instance>" to a
    split name (default "test"); with a split given, only its instances
    are loaded."""
    root = Path(root)
    try:
        is_dir = root.is_dir()
    except OSError as exc:  # a name too long, which is_dir does not swallow
        raise DataError(f"dataset root {root}: {exc.strerror}") from exc
    if not is_dir:
        raise DataError(f"dataset root not found: {root}")
    splits = {}
    split_file = root / "splits.json"
    if split_file.exists():
        splits = read_json(split_file, "splits", _splits)
    instances = []
    for cat_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for inst_dir in sorted(p for p in cat_dir.iterdir() if p.is_dir()):
            key = f"{cat_dir.name}/{inst_dir.name}"
            if split is None or splits.get(key, "test") == split:
                instances.append(load_instance(inst_dir))
    return instances


def _splits(doc):
    """A splits.json document: an object whose values are split names."""
    if not isinstance(doc, dict):
        raise TypeError("not a JSON object")
    for key, value in doc.items():
        if not isinstance(value, str):
            raise TypeError(f"split of {key!r} is not a string: {value!r:.60}")
    return doc


def load_instance(inst_dir) -> DatasetInstance:
    """Load one instance directory; its category is its parent's name.
    Evaluation reads remeshed.ply and groups.json, checked against each
    other; mesh.ply, the textured source that transfer-color reads, must
    be a file but is not parsed. Geodesics are built on first use."""
    inst_dir = Path(inst_dir)
    input_file(inst_dir / "mesh.ply", "mesh")
    remeshed = load_mesh(inst_dir / "remeshed.ply")
    groups = load_groups(inst_dir / "groups.json")
    if groups.n != remeshed.n_vertices:
        raise DataError(
            f"{inst_dir}: groups.n={groups.n} != remeshed vertices "
            f"{remeshed.n_vertices}")
    return DatasetInstance(inst_dir.name, inst_dir.parent.name, remeshed,
                           groups)


def score_map(pmap, src: DatasetInstance, tgt: DatasetInstance):
    """(mean error, AUC, coverage) of a target->source map; coverage is
    the fraction of target vertices whose group exists on the source."""
    errors = geodesic_error(pmap, src.groups, tgt.groups, src.geo, src.areas)
    included = errors[~np.isnan(errors)]
    _, area = auc(included)
    return float(included.mean()), area, len(included) / len(errors)


def evaluate_pair(src: DatasetInstance, tgt: DatasetInstance,
                  matcher) -> EvalResult:
    start = time.perf_counter()
    try:
        scores = score_map(matcher(src, tgt), src, tgt)
        wall = (time.perf_counter() - start) * 1000.0
        return EvalResult((src.name, tgt.name), *scores, wall)
    except Exception as exc:  # per-pair failures are recorded, not fatal
        wall = (time.perf_counter() - start) * 1000.0
        return EvalResult((src.name, tgt.name), float("nan"), float("nan"),
                          0.0, wall, failed=True,
                          message=f"{type(exc).__name__}: {exc}")


def benchmark_category(instances, category: str, matcher, jobs: int = 1):
    """Evaluate all ordered pairs (self-pairs included) of a category in
    (source, target) instance order on the calling thread; returns
    (results, aggregates). The aggregates' err_mean and auc_mean are the
    means over the pairs that did not fail, None when every pair failed.
    ``jobs`` must be >= 1 and has no effect."""
    if jobs < 1:
        raise ArgumentError(f"jobs must be >= 1, got {jobs}")
    chosen = [i for i in instances if i.category == category]
    if not chosen:
        raise ArgumentError(f"no instances in category '{category}'")
    results = [evaluate_pair(s, t, matcher) for s in chosen for t in chosen]
    ok = [r for r in results if not r.failed]
    aggregates = {
        "category": category,
        "pairs": len(results),
        "failed": len(results) - len(ok),
        "err_mean": float(np.mean([r.err_mean for r in ok])) if ok else None,
        "auc_mean": float(np.mean([r.auc for r in ok])) if ok else None,
    }
    return results, aggregates


def write_results_csv(path, results):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "err", "auc", "coverage",
                         "failed", "error", "wall_ms"])
        for r in results:
            writer.writerow([r.pair[0], r.pair[1],
                             "" if np.isnan(r.err_mean) else f"{r.err_mean:.6f}",
                             "" if np.isnan(r.auc) else f"{r.auc:.6f}",
                             f"{r.coverage:.6f}",
                             int(r.failed), r.message, f"{r.wall_ms:.3f}"])


def write_aggregates_json(path, aggregates_by_category):
    doc = {cat: {"err_mean": agg["err_mean"], "auc_mean": agg["auc_mean"]}
           for cat, agg in aggregates_by_category.items()}
    write_json(path, doc)
