"""End-to-end matching pipeline: prepare meshes (``prepare_mesh``, the
one place a mesh is welded and normalized), build descriptor stacks or
ingest external features, standardize either (``_standardize``), project
them into the spectral basis, solve the functional map, and recover the
dense point map. The weld (``mesh.weld_mesh``) is the only change to a
mesh's vertices, so per-vertex inputs and outputs index the input file's
vertices, carried across through the weld's index.

Preparing a mesh depends on that mesh alone, so a caller matching one
mesh against many prepares it once (``prepare_for_matching``, which
returns its ``funcmap.MatchInput``) and matches the prepared meshes
pairwise (``match_prepared``, which solves the ``FmapProblem`` of two
MatchInputs); ``match_meshes`` is the two steps for a single pair.

A preparation is mostly the mesh's eigensolve (``spectral.eigenbasis``
picks the solver), whose size ``prepare_mesh`` alone decides from the
descriptor names and C's size k: external features name no descriptor,
and the ``descriptors`` command (``describe``) has no C.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ArgumentError
from .features import FeatureField, concat_features
from .funcmap import (DEFAULT_MAX_ITER, FmapProblem, FmapWeights,
                      FunctionalMap, MatchInput, PointMap, project_features,
                      recover_pointmap, solve_fmap)
from .mesh import TriMesh, cotangent_weights, normalize_mesh, vertex_areas, weld_mesh

DEFAULT_FMAP_K = 10      # C's basis size k
DESCRIPTOR_K = 32        # eigenpairs hks and wks read
_DESCRIPTORS = {  # name -> (eigenpairs it reads, its field of (mesh, basis))
    "hks": (DESCRIPTOR_K, lambda mesh, basis: spectral.hks(basis)),
    "wks": (DESCRIPTOR_K, lambda mesh, basis: spectral.wks(basis)),
    "posenc": (0, lambda mesh, basis: spectral.positional_encoding(mesh)),
}
DESCRIPTOR_NAMES = tuple(_DESCRIPTORS)
SOLVE_BYTES_PER_K4 = 5 * 8  # a solve's peak: about five k^2 x k^2 float64s
CONSTANT_CHANNEL = 1e-9  # centered norm at most this of the raw: constant


@dataclass(frozen=True)
class RunConfig:
    """Settings of one match; the CLI takes its defaults from here. A
    basis size below 1, a nonzero entropy weight (the solve is the closed
    form), an empty descriptor list or a name outside DESCRIPTOR_NAMES,
    or a k whose solve would outgrow the machine's physical memory,
    raises ArgumentError."""
    k: int = DEFAULT_FMAP_K
    weights: FmapWeights = field(default_factory=FmapWeights)
    descriptors: tuple = DESCRIPTOR_NAMES
    max_iter: int = DEFAULT_MAX_ITER  # read by nothing; the benchmark passes it

    def __post_init__(self):
        if self.k < 1:
            raise ArgumentError("basis size k must be >= 1")
        if self.weights.w_entropy != 0.0:
            raise ArgumentError("the match is the closed-form solve and needs "
                                f"w_entropy 0, got {self.weights.w_entropy}")
        if not _descriptors(self.descriptors):
            raise ArgumentError("descriptors must be one or more of "
                                f"{DESCRIPTOR_NAMES}, got []")
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, ValueError):  # no such names here: no bound
            return
        need = SOLVE_BYTES_PER_K4 * self.k ** 4
        if need > memory:
            raise ArgumentError(
                f"k={self.k} needs about {need / 2 ** 30:.3g} GiB to solve, "
                f"more than the {memory / 2 ** 30:.3g} GiB of physical memory")


def _descriptors(names):
    """The _DESCRIPTORS entry of each name, in order; a name outside
    DESCRIPTOR_NAMES raises ArgumentError."""
    if set(names) - _DESCRIPTORS.keys():
        raise ArgumentError("descriptors must be one or more of "
                            f"{DESCRIPTOR_NAMES}, got {list(names)}")
    return [_DESCRIPTORS[name] for name in names]


def prepare_mesh(mesh: TriMesh, names=(), k: int = 0) -> tuple[
        TriMesh, spectral.SpectralBasis | None, np.ndarray]:
    """(mesh, basis, index): the mesh welded (``weld_mesh``, whose index
    gives the welded vertex of each input vertex), then normalized, and
    its basis of max(min(e, n), k) eigenpairs, e the most that one of the
    named descriptors reads and n the welded vertex count; None, with no
    eigensolve, when that is 0. An unknown descriptor name raises
    ArgumentError before the weld, C's size k above n before the
    eigensolve, and a vertex of zero or non-finite area
    DegenerateGeometryError, with or without one."""
    reads = max((e for e, _ in _descriptors(names)), default=0)
    mesh, index = weld_mesh(mesh)
    mesh = normalize_mesh(mesh)
    if k > mesh.n_vertices:
        raise ArgumentError(
            f"k={k} exceeds mesh vertex count {mesh.n_vertices}")
    size = max(min(reads, mesh.n_vertices), k)
    areas = vertex_areas(mesh)
    if size == 0:  # no eigensolve checks the areas, so check them here
        areas.check_positive()
        return mesh, None, index
    return mesh, spectral.eigenbasis(cotangent_weights(mesh), areas,
                                     size), index


def descriptor_stack(mesh: TriMesh, basis: spectral.SpectralBasis,
                     names) -> FeatureField:
    """The named descriptors' fields side by side, in order, each of
    spectral's fixed size; an unknown name raises ArgumentError."""
    return concat_features(field(mesh, basis)
                           for _, field in _descriptors(names))


def describe(mesh: TriMesh, names) -> FeatureField:
    """The named descriptor stack that a match computes of the prepared
    mesh (``prepare_mesh``), one row per input vertex: the row of the
    welded vertex it became."""
    prepared, basis, index = prepare_mesh(mesh, names)
    return FeatureField(descriptor_stack(prepared, basis, names).values[index])


@dataclass(frozen=True)
class MatchResult:
    fmap: FunctionalMap
    pmap: PointMap


@dataclass(frozen=True)
class PreparedInput(MatchInput):
    """The MatchInput of a welded mesh and the weld's index: the welded
    vertex of each input vertex."""
    index: np.ndarray


def _survivors(index: np.ndarray) -> np.ndarray:
    """The input vertex each welded vertex keeps: the lowest welded to it."""
    return np.unique(index, return_index=True)[1]


def prepare_for_matching(mesh: TriMesh, config: RunConfig,
                         features: FeatureField | None = None) -> PreparedInput:
    """Prepare one mesh (``prepare_mesh``, which external features name
    no descriptor to), compute its features, standardize them
    (``_standardize``) and project them into the k-sized basis. Features
    default to the descriptor stack; external ones need a row per input
    vertex, and a welded vertex reads the row of the input vertex it
    keeps."""
    if features is not None and features.n != mesh.n_vertices:
        raise ArgumentError(f"feature rows {features.n} != vertex count "
                            f"{mesh.n_vertices}")
    names = config.descriptors if features is None else ()
    mesh, basis, index = prepare_mesh(mesh, names, config.k)
    if features is None:
        features = descriptor_stack(mesh, basis, config.descriptors)
    else:
        features = FeatureField(features.values[_survivors(index)])
    features = _standardize(features, basis)
    prepared = project_features(basis.truncate(config.k), features.values)
    return PreparedInput(**vars(prepared), index=index)


def match_prepared(source: PreparedInput, target: PreparedInput,
                   config: RunConfig) -> MatchResult:
    """Solve the functional map between two prepared meshes and recover
    the dense point map over both meshes' input vertices."""
    fmap = solve_fmap(FmapProblem(source, target, config.weights))
    pmap = recover_pointmap(fmap.C, source.basis, target.basis)
    j = target.index  # each target input vertex goes where its weld goes
    match = _survivors(source.index)[pmap.target_to_source[j]]
    return MatchResult(fmap, PointMap(match, pmap.confidence[j]))


def match_meshes(source: TriMesh, target: TriMesh, config: RunConfig,
                 source_features: FeatureField | None = None,
                 target_features: FeatureField | None = None) -> MatchResult:
    """Match two meshes; features default to the configured descriptor
    stack when not supplied externally. External features of different
    widths are refused before either mesh is prepared. The source is
    prepared first, so when both fail, the source's error is raised."""
    if (source_features is None) != (target_features is None):
        raise ArgumentError("provide features for both meshes or neither")
    if source_features is not None and source_features.d != target_features.d:
        raise ArgumentError(
            "source and target features must share the feature dimension, "
            f"got {source_features.d} and {target_features.d}")
    prepared_source = prepare_for_matching(source, config, source_features)
    prepared_target = prepare_for_matching(target, config, target_features)
    return match_prepared(prepared_source, prepared_target, config)


def _standardize(stack: FeatureField, basis: spectral.SpectralBasis) -> FeatureField:
    """Column-wise standardization of a feature set under the mesh area
    measure. Raw channels differ in scale by orders of magnitude, and
    external ones come in any units; centering and equalizing them keeps
    the data term well conditioned. Columns are scaled to area-weighted
    norm sqrt(n)/10 so the data term grows with mesh size the same way
    the map-matrix penalties do. A constant column, one whose centered
    norm is at most CONSTANT_CHANNEL of its raw norm (``posenc``'s z on a
    flat mesh, say), is zero: its centered values are roundoff, which
    scaling would raise to full weight."""
    a = basis.areas.areas
    vals = stack.values - (a @ stack.values) / a.sum()
    norms = np.sqrt(a @ (vals ** 2))
    constant = norms <= CONSTANT_CHANNEL * np.sqrt(a @ stack.values ** 2)
    norms[constant] = np.inf  # so the division zeroes the column
    vals = vals / norms * (np.sqrt(len(a)) / 10.0)
    return FeatureField(vals)
