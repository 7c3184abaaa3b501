"""Laplace-Beltrami spectral basis and intrinsic descriptors.

The generalized eigenproblem (-W) phi = lambda A phi is solved with the
stiffness matrix from ``cotangent_weights`` (negative semidefinite, so
the stored eigenvalues are nonnegative). The solver is chosen from n and
k: shift-invert Lanczos (ARPACK) when n >= LANCZOS_N_PER_K * k and n >=
LANCZOS_MIN_N, a dense symmetric solve after diagonal-mass
symmetrization otherwise. Measured at one BLAS thread on bumpy grids and
spheres, Lanczos is at least twice as fast past that ratio from n = 784
on; below 700 vertices it saves at most about 10 ms and is slower on the
sphere's degenerate spectrum. k > n/2 (a full-rank basis) stays dense.
Lanczos starts from a fixed-seed vector, so repeat calls give the same
bits. The dense solve holds one n x n buffer: the symmetrized matrix is
built sparse and densified once, and LAPACK overwrites it. Inputs are
checked in O(n + nnz) before anything is built: a vertex area that is
not finite and positive (an unreferenced vertex, say), or a stiffness
entry that is not finite, raises DegenerateGeometryError. A failed solve
of either kind raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blas import ONE_BLAS_THREAD
from .errors import ArgumentError, DegenerateGeometryError, NumericError
from .features import FeatureField
from .mesh import TriMesh, VertexAreas

LANCZOS_N_PER_K = 16     # Lanczos when n >= LANCZOS_N_PER_K * k
LANCZOS_MIN_N = 700      # and n >= LANCZOS_MIN_N; dense otherwise
DEFAULT_FMAP_K = 10      # basis size used by the map solver
DEFAULT_DESC_K = 32      # basis size used for descriptors
DEFAULT_HKS_TIMES = 16
DEFAULT_WKS_ENERGIES = 100
DEFAULT_POSENC_BANDS = 6
# most bands whose top frequency pi 2^(bands - 1) is a finite float: 1023
MAX_POSENC_BANDS = int(np.log2(np.finfo(np.float64).max / np.pi)) + 1
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


@ONE_BLAS_THREAD
def eigenbasis(W: sp.spmatrix, A: VertexAreas, k: int) -> SpectralBasis:
    """First k generalized eigenpairs of (-W, A).

    Eigenvector signs are fixed so each column's largest-magnitude entry
    is positive, keeping downstream maps reproducible. It runs at one
    BLAS thread (``blas.ONE_BLAS_THREAD``), so the basis does not depend
    on the caller's thread count.
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
    if n < max(LANCZOS_MIN_N, LANCZOS_N_PER_K * k):
        inv_sqrt = 1.0 / np.sqrt(a)
        vals, vecs = _dense_eigh(W, inv_sqrt, k)
        phi = vecs * inv_sqrt[:, None]
    else:
        vals, phi = _lanczos_eigh(W, a, k)

    vals = np.maximum(vals, 0.0)  # kernel eigenvalue may round negative

    # deterministic signs: largest-magnitude entry positive
    pick = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[pick, np.arange(k)])
    signs[signs == 0] = 1.0
    phi = phi * signs
    return SpectralBasis(phi, vals, A)


def _dense_eigh(W, inv_sqrt, k):
    """First k eigenpairs of S = A^-1/2 (-W) A^-1/2, an ordinary symmetric
    problem. S is scaled and symmetrized sparse, then densified once into
    the only n x n buffer, which LAPACK overwrites; it is freed on return,
    before the caller scales the eigenvectors."""
    D = sp.diags(inv_sqrt)
    S = D @ (-W) @ D
    S = (0.5 * (S + S.T)).toarray(order="F")
    try:
        return scipy.linalg.eigh(S, subset_by_index=[0, k - 1],
                                 overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"dense eigensolver failed: {exc}") from exc


def _lanczos_eigh(W, a, k):
    """First k eigenpairs of (-W, A), ascending, by shift-invert Lanczos
    just below zero. ARPACK starts from a fixed-seed vector: its own
    random start changes from call to call, and so would the last bits.
    An ARPACK error (no convergence, say) or a singular shift-invert
    factorization raises NumericError."""
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(a))
    try:
        vals, vecs = spla.eigsh(-W.tocsc(), k=k, M=sp.diags(a).tocsc(),
                                sigma=-1e-8, which="LM", v0=v0)
    except RuntimeError as exc:  # ArpackError, or splu's singular factor
        raise NumericError(f"Lanczos eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


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
    d = 3 + 6 * bands. Extrinsic by design: moves with the mesh. Bands
    outside [0, MAX_POSENC_BANDS] raise ArgumentError: past it the top
    frequency is not finite. So do bands whose top argument 2^(bands-1)
    pi |xyz| overflows on this mesh (from 1023 bands once |xyz| > ~1.27),
    before any sine is taken.
    """
    if not 0 <= bands <= MAX_POSENC_BANDS:
        raise ArgumentError(f"bands must be in [0, {MAX_POSENC_BANDS}], "
                            f"got {bands}")
    xyz = mesh.vertices
    if bands:
        extent = np.abs(xyz).max()
        with np.errstate(over="ignore"):  # the loop's top argument
            top = (2.0 ** (bands - 1)) * np.pi * extent
        if not np.isfinite(top):
            raise ArgumentError(
                f"{bands} bands overflow on this mesh: its largest "
                f"coordinate {extent:.3g} times the top frequency "
                f"pi 2^{bands - 1} is not a finite float")
    cols = [xyz]
    for b in range(bands):
        arg = (2.0 ** b) * np.pi * xyz
        cols.append(np.sin(arg))
        cols.append(np.cos(arg))
    return FeatureField(np.hstack(cols))
