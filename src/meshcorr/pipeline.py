"""End-to-end matching pipeline: preprocess meshes, build descriptor
stacks or ingest external features, solve the functional map, and
recover the dense point map.
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
class MatchResult:
    fmap: FunctionalMap
    pmap: PointMap


def match_meshes(source: TriMesh, target: TriMesh, config: RunConfig,
                 source_features: FeatureField | None = None,
                 target_features: FeatureField | None = None) -> MatchResult:
    """Match two meshes; features default to the configured descriptor
    stack when not supplied externally."""
    prep_s = prepare_mesh(source, config)
    prep_t = prepare_mesh(target, config)

    if (source_features is None) != (target_features is None):
        raise ArgumentError("provide features for both meshes or neither")
    if source_features is None:
        f = _standardize(descriptor_stack(prep_s, config), prep_s.basis)
        g = _standardize(descriptor_stack(prep_t, config), prep_t.basis)
    else:
        f = unit_normalize(_check_rows(source_features, prep_s.mesh.n_vertices))
        g = unit_normalize(_check_rows(target_features, prep_t.mesh.n_vertices))

    basis_s = prep_s.basis.truncate(config.k)
    basis_t = prep_t.basis.truncate(config.k)
    problem = build_problem(basis_s, basis_t, f.values, g.values,
                            config.weights)
    fmap = solve_fmap(problem, max_iter=config.max_iter)
    pmap = recover_pointmap(fmap.C, basis_s, basis_t,
                            method=config.recovery)
    return MatchResult(fmap, pmap)


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
