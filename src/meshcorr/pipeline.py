"""End-to-end matching pipeline: preprocess meshes, build descriptor
stacks or ingest external features, solve the functional map, and
recover the dense point map.

Preparing a mesh depends on that mesh alone, so a caller matching one
mesh against many prepares it once (``prepare_for_matching``) and
matches the prepared meshes pairwise (``match_prepared``);
``match_meshes`` is the two steps for a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ArgumentError
from .features import FeatureField, concat_features, unit_normalize
from .funcmap import (DEFAULT_MAX_ITER, RECOVERY_METHODS, FmapWeights,
                      FunctionalMap, PointMap, build_problem,
                      recover_pointmap, solve_fmap)
from .mesh import TriMesh, cleanup_mesh, cotangent_weights, normalize_mesh, vertex_areas

DESCRIPTOR_NAMES = ("hks", "wks", "posenc")


@dataclass(frozen=True)
class RunConfig:
    """Settings of one match; the CLI takes its defaults from here."""
    k: int = spectral.DEFAULT_FMAP_K
    weights: FmapWeights = field(default_factory=FmapWeights)
    descriptors: tuple = DESCRIPTOR_NAMES
    descriptor_k: int = spectral.DEFAULT_DESC_K
    hks_times: int = spectral.DEFAULT_HKS_TIMES
    wks_energies: int = spectral.DEFAULT_WKS_ENERGIES
    posenc_bands: int = spectral.DEFAULT_POSENC_BANDS
    max_iter: int = DEFAULT_MAX_ITER
    recovery: str = RECOVERY_METHODS[0]
    preprocess: bool = True


@dataclass(frozen=True)
class PreparedMesh:
    mesh: TriMesh
    basis: spectral.SpectralBasis  # descriptor-sized basis


def prepare_mesh(mesh: TriMesh, config: RunConfig) -> PreparedMesh:
    if min(config.k, config.descriptor_k) < 1:
        raise ArgumentError("basis sizes k and descriptor_k must be >= 1")
    if config.preprocess:
        mesh = normalize_mesh(cleanup_mesh(mesh))
    k = min(config.descriptor_k, mesh.n_vertices)
    k = max(k, config.k)
    if config.k > mesh.n_vertices:
        raise ArgumentError(
            f"k={config.k} exceeds mesh vertex count {mesh.n_vertices}")
    basis = spectral.eigenbasis(cotangent_weights(mesh),
                                vertex_areas(mesh), k)
    return PreparedMesh(mesh, basis)


def descriptor_stack(prep: PreparedMesh, config: RunConfig) -> FeatureField:
    fields = []
    for name in config.descriptors:
        if name == "hks":
            f = spectral.hks(prep.basis, config.hks_times)
        elif name == "wks":
            f = spectral.wks(prep.basis, config.wks_energies)
        elif name == "posenc":
            f = spectral.positional_encoding(prep.mesh, config.posenc_bands)
        else:
            raise ArgumentError(
                f"unknown descriptor '{name}', expected one of "
                f"{DESCRIPTOR_NAMES}")
        fields.append(f)
    return concat_features(fields)


@dataclass(frozen=True)
class MatchInput:
    """What matching needs of one mesh, independent of the other mesh."""
    basis: spectral.SpectralBasis    # the k-sized basis C lives in
    features: FeatureField           # per-vertex features of the data term


@dataclass(frozen=True)
class MatchResult:
    fmap: FunctionalMap
    pmap: PointMap


def prepare_for_matching(mesh: TriMesh, config: RunConfig,
                         features: FeatureField | None = None) -> MatchInput:
    """Preprocess one mesh and compute its basis and features; features
    default to the standardized descriptor stack, and external ones are
    unit-normalized per row."""
    prep = prepare_mesh(mesh, config)
    if features is None:
        features = _standardize(descriptor_stack(prep, config), prep.basis)
    else:
        features = unit_normalize(_check_rows(features, prep.mesh.n_vertices))
    return MatchInput(prep.basis.truncate(config.k), features)


def match_prepared(source: MatchInput, target: MatchInput,
                   config: RunConfig) -> MatchResult:
    """Solve the functional map between two prepared meshes and recover
    the dense point map."""
    problem = build_problem(source.basis, target.basis,
                            source.features.values, target.features.values,
                            config.weights)
    fmap = solve_fmap(problem, max_iter=config.max_iter)
    pmap = recover_pointmap(fmap.C, source.basis, target.basis,
                            method=config.recovery)
    return MatchResult(fmap, pmap)


def match_meshes(source: TriMesh, target: TriMesh, config: RunConfig,
                 source_features: FeatureField | None = None,
                 target_features: FeatureField | None = None) -> MatchResult:
    """Match two meshes; features default to the configured descriptor
    stack when not supplied externally."""
    if (source_features is None) != (target_features is None):
        raise ArgumentError("provide features for both meshes or neither")
    return match_prepared(
        prepare_for_matching(source, config, source_features),
        prepare_for_matching(target, config, target_features), config)


def _standardize(stack: FeatureField, basis: spectral.SpectralBasis) -> FeatureField:
    """Column-wise standardization of a descriptor stack under the mesh
    area measure. Raw heat/energy/positional channels differ in scale by
    orders of magnitude; centering and equalizing them keeps the data
    term well conditioned. Columns are scaled to area-weighted norm
    sqrt(n)/10 so the data term grows with mesh size the same way the
    map-matrix penalties do."""
    a = basis.areas.areas
    vals = stack.values - (a @ stack.values) / a.sum()
    norms = np.sqrt(a @ (vals ** 2))
    norms[norms == 0.0] = 1.0
    vals = vals / norms * (np.sqrt(len(a)) / 10.0)
    return FeatureField(vals)


def _check_rows(features: FeatureField, n: int) -> FeatureField:
    if features.n != n:
        raise ArgumentError(
            f"feature rows {features.n} != preprocessed mesh vertices {n}; "
            "did preprocessing change the vertex count?")
    return features
