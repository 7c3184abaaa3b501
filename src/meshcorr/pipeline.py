"""End-to-end matching pipeline: preprocess meshes, build descriptor
stacks or ingest external features, solve the functional map, and
recover the dense point map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ArgumentError
from .features import FeatureBundle, FeatureField, concat_features, unit_normalize
from .funcmap import (DEFAULT_MAX_ITER, DEFAULT_TOL, RECOVERY_METHODS,
                      FmapWeights, FunctionalMap, PointMap, build_problem,
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
    tol: float = DEFAULT_TOL
    recovery: str = RECOVERY_METHODS[0]
    preprocess: bool = True


@dataclass(frozen=True)
class PreparedMesh:
    mesh: TriMesh
    basis: spectral.SpectralBasis  # descriptor-sized basis


def prepare_mesh(mesh: TriMesh, config: RunConfig) -> PreparedMesh:
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


def descriptor_stack(prep: PreparedMesh, config: RunConfig) -> FeatureBundle:
    bundles = []
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
        bundles.append(FeatureBundle(f, name))
    return concat_features(bundles)


@dataclass(frozen=True)
class MatchResult:
    fmap: FunctionalMap
    pmap: PointMap
    config: RunConfig


def match_meshes(source: TriMesh, target: TriMesh, config: RunConfig,
                 source_features=None, target_features=None) -> MatchResult:
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
        f = unit_normalize(_as_bundle(source_features, prep_s.mesh.n_vertices))
        g = unit_normalize(_as_bundle(target_features, prep_t.mesh.n_vertices))

    basis_s = prep_s.basis.truncate(config.k)
    basis_t = prep_t.basis.truncate(config.k)
    problem = build_problem(basis_s, basis_t, f.values, g.values,
                            config.weights)
    fmap = solve_fmap(problem, max_iter=config.max_iter, tol=config.tol)
    pmap = recover_pointmap(fmap.C, basis_s, basis_t,
                            method=config.recovery)
    return MatchResult(fmap, pmap, config)


def _standardize(bundle: FeatureBundle, basis: spectral.SpectralBasis) -> FeatureBundle:
    """Column-wise standardization of a descriptor stack under the mesh
    area measure. Raw heat/energy/positional channels differ in scale by
    orders of magnitude; centering and equalizing them keeps the data
    term well conditioned. Columns are scaled to area-weighted norm
    sqrt(n)/10 so the data term grows with mesh size the same way the
    map-matrix penalties do."""
    a = basis.areas.areas
    vals = np.asarray(bundle.values, dtype=np.float64)
    vals = vals - (a @ vals) / a.sum()
    norms = np.sqrt(a @ (vals ** 2))
    norms[norms == 0.0] = 1.0
    vals = vals / norms * (np.sqrt(len(a)) / 10.0)
    return FeatureBundle(FeatureField(vals, bundle.field.semantic),
                         bundle.source)


def _as_bundle(features, n: int) -> FeatureBundle:
    if isinstance(features, FeatureBundle):
        bundle = features
    elif isinstance(features, FeatureField):
        bundle = FeatureBundle(features, "external-file")
    else:
        bundle = FeatureBundle(FeatureField(np.asarray(features), "external"),
                               "external-file")
    if bundle.n != n:
        raise ArgumentError(
            f"feature rows {bundle.n} != preprocessed mesh vertices {n}; "
            "did preprocessing change the vertex count?")
    return bundle
