"""End-to-end matching pipeline: preprocess meshes, build descriptor
stacks or ingest external features, project them into the spectral
basis, solve the functional map, and recover the dense point map.

Preparing a mesh depends on that mesh alone, so a caller matching one
mesh against many prepares it once (``prepare_for_matching``, which
returns its ``funcmap.MatchInput``) and matches the prepared meshes
pairwise (``match_prepared``, which solves the ``FmapProblem`` of two
MatchInputs); ``match_meshes`` is the two steps for a single pair.

``match_meshes`` prepares the target while the source's dense
eigensolve, most of a preparation, runs on a worker thread
(``spectral.while_solving``; the solve releases the interpreter lock),
so the two preparations overlap on two cores. The whole match runs with
numpy's and scipy's bundled OpenBLAS each held to one thread: their
default pools contend with each other and with the second preparation,
and one thread gives the same maps whatever thread count the caller set.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import spectral
from .errors import ArgumentError
from .features import FeatureField, concat_features, unit_normalize
from .funcmap import (DEFAULT_MAX_ITER, RECOVERY_METHODS, FmapProblem,
                      FmapWeights, FunctionalMap, MatchInput, PointMap,
                      project_features, recover_pointmap, solve_fmap)
from .mesh import TriMesh, cleanup_mesh, cotangent_weights, normalize_mesh, vertex_areas

_DESCRIPTORS = {  # name -> its feature field of (mesh, basis, config)
    "hks": lambda mesh, basis, c: spectral.hks(basis, c.hks_times),
    "wks": lambda mesh, basis, c: spectral.wks(basis, c.wks_energies),
    "posenc": lambda mesh, basis, c: spectral.positional_encoding(
        mesh, c.posenc_bands),
}
DESCRIPTOR_NAMES = tuple(_DESCRIPTORS)
SOLVE_BYTES_PER_K4 = 5 * 8  # a solve's peak: about five k^2 x k^2 float64s


@dataclass(frozen=True)
class RunConfig:
    """Settings of one match; the CLI takes its defaults from here. A
    basis size below 1, an empty descriptor list or a name outside
    DESCRIPTOR_NAMES, or a k whose solve would outgrow the machine's
    physical memory, raises ArgumentError."""
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

    def __post_init__(self):
        if min(self.k, self.descriptor_k) < 1:
            raise ArgumentError("basis sizes k and descriptor_k must be >= 1")
        if not self.descriptors or set(self.descriptors) - _DESCRIPTORS.keys():
            raise ArgumentError(
                f"descriptors must be one or more of {DESCRIPTOR_NAMES}, "
                f"got {list(self.descriptors)}")
        try:
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, ValueError):  # no such names here: no bound
            return
        need = SOLVE_BYTES_PER_K4 * self.k ** 4
        if need > memory:
            raise ArgumentError(
                f"k={self.k} needs about {need / 2 ** 30:.3g} GiB to solve, "
                f"more than the {memory / 2 ** 30:.3g} GiB of physical memory")


def prepare_mesh(mesh: TriMesh,
                 config: RunConfig) -> tuple[TriMesh, spectral.SpectralBasis]:
    """(preprocessed mesh, basis), the basis large enough for the
    descriptor stack and for C."""
    if config.preprocess:
        mesh = normalize_mesh(cleanup_mesh(mesh))
    if config.k > mesh.n_vertices:
        raise ArgumentError(
            f"k={config.k} exceeds mesh vertex count {mesh.n_vertices}")
    k = max(min(config.descriptor_k, mesh.n_vertices), config.k)
    return mesh, spectral.eigenbasis(cotangent_weights(mesh),
                                     vertex_areas(mesh), k)


def descriptor_stack(mesh: TriMesh, basis: spectral.SpectralBasis,
                     config: RunConfig) -> FeatureField:
    return concat_features(_DESCRIPTORS[name](mesh, basis, config)
                           for name in config.descriptors)


@dataclass(frozen=True)
class MatchResult:
    fmap: FunctionalMap
    pmap: PointMap


def prepare_for_matching(mesh: TriMesh, config: RunConfig,
                         features: FeatureField | None = None) -> MatchInput:
    """Preprocess one mesh, compute its basis and features, and project
    the features into the k-sized basis; features default to the
    standardized descriptor stack, and external ones are unit-normalized
    per row. With external features nothing reads more than the k
    eigenpairs C lives in, so only those are solved."""
    external = features is not None
    if external:
        config = replace(config, descriptor_k=config.k)
    mesh, basis = prepare_mesh(mesh, config)
    features = (unit_normalize(features) if external else
                _standardize(descriptor_stack(mesh, basis, config), basis))
    return project_features(basis.truncate(config.k), features.values)


def match_prepared(source: MatchInput, target: MatchInput,
                   config: RunConfig) -> MatchResult:
    """Solve the functional map between two prepared meshes and recover
    the dense point map."""
    fmap = solve_fmap(FmapProblem(source, target, config.weights),
                      max_iter=config.max_iter)
    pmap = recover_pointmap(fmap.C, source.basis, target.basis,
                            method=config.recovery)
    return MatchResult(fmap, pmap)


def match_meshes(source: TriMesh, target: TriMesh, config: RunConfig,
                 source_features: FeatureField | None = None,
                 target_features: FeatureField | None = None) -> MatchResult:
    """Match two meshes; features default to the configured descriptor
    stack when not supplied externally. The target is prepared while
    the source's eigensolve runs on a worker thread; when both fail, the
    source's error is raised."""
    if (source_features is None) != (target_features is None):
        raise ArgumentError("provide features for both meshes or neither")
    prepared = []

    def prepare_target():
        prepared.append(prepare_for_matching(target, config, target_features))

    with _ONE_BLAS_THREAD:
        with spectral.while_solving(prepare_target):
            prepared_source = prepare_for_matching(source, config,
                                                   source_features)
        return match_prepared(prepared_source, prepared[0], config)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS that numpy's and
    scipy's wheels bundle; a library or symbol that is not there is left
    out."""
    controls = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so*")):
            handle, name = ctypes.CDLL(str(lib)), f"num_threads{suffix}"
            try:
                get = getattr(handle, f"scipy_openblas_get_{name}")
                set_ = getattr(handle, f"scipy_openblas_set_{name}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


class _OneBlasThread:
    """Holds each bundled OpenBLAS to one thread while entered. The thread
    counts are process-wide, so entries may overlap across threads: the
    counts the first entry found come back when the last one exits,
    whether or not an exception is passing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entered = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if not self._entered:
                self._saved = [(set_, get())
                               for get, set_ in _openblas_thread_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._entered += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._entered -= 1
            if not self._entered:
                for set_, count in self._saved:
                    set_(count)


_ONE_BLAS_THREAD = _OneBlasThread()


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
