"""Laplace-Beltrami spectral basis and intrinsic descriptors.

The generalized eigenproblem (-W) phi = lambda A phi is solved with the
stiffness matrix from ``cotangent_weights`` (negative semidefinite, so
the stored eigenvalues are nonnegative). For the dataset regime
(n <= ~3000) a dense symmetric solve after diagonal-mass symmetrization
is both simple and robust; larger meshes fall back to shift-invert
Lanczos. The dense solve holds one n x n buffer: the symmetrized matrix
is built sparse and densified once, and LAPACK overwrites it. LAPACK
``dsyevr`` is called through scipy's Cython LAPACK API with the arguments
``scipy.linalg.eigh(S, subset_by_index=[0, k-1])`` passes, so the
eigenpairs are the same bits, but the call releases the interpreter
lock. Within ``while_solving(work)`` the first dense eigensolve runs on
a worker thread while ``work()`` runs on the calling thread:
``pipeline.match_meshes`` prepares the target while the source's
eigensolve runs, under one BLAS thread each. Every public function is
still called on the calling thread, so a span tracer that keeps its
parents per thread sees both preparations under the match. Inputs are
checked in O(n + nnz) before anything is built: a vertex area that is
not finite and positive (an unreferenced vertex, say), or a stiffness
entry that is not finite, raises DegenerateGeometryError.
"""

from __future__ import annotations

import contextvars
import ctypes
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from .errors import ArgumentError, DegenerateGeometryError, NumericError
from .features import FeatureField
from .mesh import TriMesh, VertexAreas

DENSE_LIMIT = 3000
DEFAULT_FMAP_K = 10      # basis size used by the map solver
DEFAULT_DESC_K = 128     # basis size used for descriptors
DEFAULT_HKS_TIMES = 16
DEFAULT_WKS_ENERGIES = 100
DEFAULT_POSENC_BANDS = 6
ZERO_MODE = 1e-8         # lam * total area below it is a zero eigenvalue


@dataclass(frozen=True)
class SpectralBasis:
    phi: np.ndarray       # (n, k), columns ordered by ascending eigenvalue
    lam: np.ndarray       # (k,), nonnegative
    areas: VertexAreas

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.phi.shape[1]

    def pinv(self) -> np.ndarray:
        """Phi^+ = Phi^T A, the spectral projection operator (k, n)."""
        return self.phi.T * self.areas.areas

    def truncate(self, k: int) -> "SpectralBasis":
        if k > self.k:
            raise ArgumentError(f"cannot truncate basis of size {self.k} to {k}")
        return SpectralBasis(self.phi[:, :k], self.lam[:k], self.areas)


def eigenbasis(W: sp.spmatrix, A: VertexAreas, k: int) -> SpectralBasis:
    """First k generalized eigenpairs of (-W, A).

    Eigenvector signs are fixed so each column's largest-magnitude entry
    is positive, keeping downstream maps reproducible.
    """
    n = A.areas.shape[0]
    if k > n:
        raise ArgumentError(f"k={k} exceeds vertex count n={n}")
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if W.shape != (n, n):
        raise ArgumentError(f"W shape {W.shape} does not match n={n}")

    a = A.areas
    # O(n + nnz) input checks; the dense solve skips LAPACK's O(n^2) scan
    bad = ~(np.isfinite(a) & (a > 0))
    if bad.any():
        raise DegenerateGeometryError(
            f"{int(bad.sum())} vertices have zero or non-finite area "
            "(unreferenced or on degenerate triangles only)")
    W = W.tocsr()
    if not np.isfinite(W.data).all():
        raise DegenerateGeometryError("stiffness matrix has non-finite "
                                      "entries")
    inv_sqrt = 1.0 / np.sqrt(a)
    if n <= DENSE_LIMIT or k > n // 2:
        vals, vecs = _dense_eigh(W, inv_sqrt, k)
        phi = vecs * inv_sqrt[:, None]
    else:
        try:
            vals, vecs = spla.eigsh(-W.tocsc(), k=k, M=sp.diags(a).tocsc(),
                                    sigma=-1e-8, which="LM")
        except spla.ArpackNoConvergence as exc:
            raise NumericError(
                f"eigensolver did not converge after {exc.args}") from exc
        order = np.argsort(vals)
        vals, phi = vals[order], vecs[:, order]

    vals = np.maximum(vals, 0.0)  # kernel eigenvalue may round negative

    # deterministic signs: largest-magnitude entry positive
    pick = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[pick, np.arange(k)])
    signs[signs == 0] = 1.0
    phi = phi * signs
    return SpectralBasis(phi, vals, A)


def _nogil_lapack(name, *argtypes):
    """The nogil function ``name`` of scipy.linalg.cython_lapack as a ctypes
    function; ctypes releases the interpreter lock for each call."""
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(
        pointer(capsule, capsule_name(capsule)))


_CHAR, _BUF = ctypes.c_char_p, ctypes.c_void_p
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# jobz range uplo n a lda vl vu il iu abstol m w z ldz isuppz work lwork
# iwork liwork info, as declared in scipy/linalg/cython_lapack.pxd
_DSYEVR = _nogil_lapack("dsyevr", _CHAR, _CHAR, _CHAR, _INT, _BUF, _INT,
                        _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _BUF,
                        _BUF, _INT, _BUF, _BUF, _INT, _BUF, _INT, _INT)


_WHILE_SOLVING = contextvars.ContextVar("while_solving", default=None)


@contextmanager
def while_solving(work):
    """Within the block, the first dense eigensolve runs LAPACK on a worker
    thread and calls ``work()`` on this thread meanwhile; if no dense
    eigensolve took it, ``work()`` runs when the block ends without an
    error. When both fail, the eigensolve's error is raised."""
    pending = [work]
    token = _WHILE_SOLVING.set(pending)
    try:
        yield
    finally:
        _WHILE_SOLVING.reset(token)
    if pending:
        pending.pop()()


def _dense_eigh(W, inv_sqrt, k):
    """First k eigenpairs of S = A^-1/2 (-W) A^-1/2, an ordinary symmetric
    problem. S is scaled and symmetrized sparse, then densified once into
    the only n x n buffer, which LAPACK overwrites; it is freed on return,
    before the caller scales the eigenvectors."""
    D = sp.diags(inv_sqrt)
    S = D @ (-W) @ D
    S = (0.5 * (S + S.T)).toarray(order="F")
    pending = _WHILE_SOLVING.get()
    if not pending:
        return _dsyevr(S, k)
    work = pending.pop()
    with ThreadPoolExecutor(max_workers=1) as pool:
        solving = pool.submit(_dsyevr, S, k)
        try:
            work()
        except BaseException:
            solving.result()  # the eigensolve's error comes first
            raise
        return solving.result()


def _dsyevr(S, k):
    """The call ``scipy.linalg.eigh(S, subset_by_index=[0, k-1],
    overwrite_a=True)`` makes: jobz V, range I, lower triangle, abstol 0,
    and the workspace sizes LAPACK asks for. S is overwritten when it is
    a writable Fortran-ordered float64 array, as ``_dense_eigh`` makes it;
    any other array is copied into one, since LAPACK gets a bare pointer."""
    S = np.require(S, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
    n = S.shape[0]
    c_int, c_double = ctypes.c_int, ctypes.c_double
    n_, il, iu, m, info = c_int(n), c_int(1), c_int(k), c_int(0), c_int(0)
    unused, abstol = c_double(0.0), c_double(0.0)
    w = np.empty(n)
    z = np.empty((n, k), order="F")
    isuppz = np.empty(2 * n, dtype=np.intc)

    def call(work, lwork, iwork, liwork):
        _DSYEVR(b"V", b"I", b"L", n_, S.ctypes.data, n_, unused, unused, il,
                iu, abstol, m, w.ctypes.data, z.ctypes.data, n_,
                isuppz.ctypes.data, work.ctypes.data, c_int(lwork),
                iwork.ctypes.data, c_int(liwork), info)

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, -1, iwork, -1)  # workspace query
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.intc), liwork)
    if info.value != 0:
        raise NumericError(f"dense eigensolver failed: LAPACK dsyevr "
                           f"returned info={info.value}")
    return w[:k], z


def _nonzero_spectrum(basis: SpectralBasis):
    """The eigenpairs past the constant mode that are not zero modes (a
    mesh has one zero mode per connected component). lam times the total
    area is unitless, so the test does not depend on the mesh's units: on
    the self-matching fixtures, raw and normalized, zero modes read at
    most 2.5e-12 there and first nonzero eigenvalues at least 9.2."""
    lam = basis.lam
    nz = lam * basis.areas.total > ZERO_MODE
    nz[0] = False  # constant mode never participates
    if not nz.any():
        raise NumericError("degenerate spectrum: no nonzero eigenvalues")
    return lam[nz], basis.phi[:, nz]


def hks(basis: SpectralBasis,
        num_times: int = DEFAULT_HKS_TIMES) -> FeatureField:
    """Heat kernel signature over log-spaced diffusion times.

    k_t(v) = sum_i exp(-lam_i t) phi_i(v)^2, each time column rescaled
    to unit area-weighted mean.
    """
    if basis.k < 2:
        raise ArgumentError("hks needs a basis with k >= 2")
    if num_times < 1:
        raise ArgumentError("num_times must be >= 1")
    lam, phi = _nonzero_spectrum(basis)
    t_min = 4.0 * np.log(10.0) / lam[-1]
    t_max = 4.0 * np.log(10.0) / lam[0]
    times = np.geomspace(t_min, t_max, num_times)

    decay = np.exp(-np.outer(lam, times))            # (k', T)
    sig = (phi ** 2) @ decay                          # (n, T)
    # the lam ~ 0 constant mode survives every time with weight 1
    sig = sig + (basis.phi[:, 0] ** 2)[:, None]

    a = basis.areas.areas
    mean = (a @ sig) / basis.areas.total
    return FeatureField(sig / mean)


def wks(basis: SpectralBasis,
        num_energies: int = DEFAULT_WKS_ENERGIES) -> FeatureField:
    """Wave kernel signature over log-energy bands.

    Gaussian bands of width sigma = 7 * step span [log lam_2, log lam_k];
    each band is normalized by its total coefficient mass.
    """
    if basis.k < 2:
        raise ArgumentError("wks needs a basis with k >= 2")
    if num_energies < 1:
        raise ArgumentError("num_energies must be >= 1")
    lam, phi = _nonzero_spectrum(basis)
    log_lam = np.log(lam)
    e_min, e_max = log_lam[0], log_lam[-1]
    energies = np.linspace(e_min, e_max, num_energies)
    step = (e_max - e_min) / max(num_energies - 1, 1)
    sigma = 7.0 * step if step > 0 else 1.0

    coeff = np.exp(-((energies[:, None] - log_lam[None, :]) ** 2)
                   / (2.0 * sigma ** 2))              # (E, k')
    sig = (phi ** 2) @ coeff.T                        # (n, E)
    norm = coeff.sum(axis=1)
    return FeatureField(sig / norm)


def positional_encoding(mesh: TriMesh,
                        bands: int = DEFAULT_POSENC_BANDS) -> FeatureField:
    """NeRF-style sinusoidal encoding of vertex XYZ.

    Returns [xyz, sin(2^b pi xyz), cos(2^b pi xyz) for b < bands],
    d = 3 + 6 * bands. Extrinsic by design: moves with the mesh.
    """
    if bands < 0:
        raise ArgumentError("bands must be >= 0")
    xyz = mesh.vertices
    cols = [xyz]
    for b in range(bands):
        arg = (2.0 ** b) * np.pi * xyz
        cols.append(np.sin(arg))
        cols.append(np.cos(arg))
    return FeatureField(np.hstack(cols))
