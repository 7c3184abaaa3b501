"""Laplace-Beltrami spectral basis and intrinsic descriptors.

The generalized eigenproblem (-W) phi = lambda A phi, with the stiffness
matrix from ``cotangent_weights`` (negative semidefinite, so the stored
eigenvalues are nonnegative) and the vertex areas A, is solved as one
symmetric standard problem: S = A^-1/2 (-W) A^-1/2, built sparse and
symmetrized once, has the same eigenvalues, and phi is A^-1/2 times its
eigenvectors. The solver is chosen from n and k: shift-invert Lanczos
(ARPACK) on S when n >= LANCZOS_N_PER_K * k and n >= LANCZOS_MIN_N, a
dense symmetric solve of S otherwise; k > n/2 (a full-rank basis) and
meshes under LANCZOS_MIN_N vertices stay dense. S plus a small shift is
symmetric positive definite, so the Lanczos factor takes a
minimum-degree ordering of S's own pattern with diagonal pivots, and no
Lanczos step multiplies by A.

The two constants come from this table: ``eigenbasis`` in ms, dense /
Lanczos, best of 9 at one BLAS thread on a 2-vCPU Xeon VM.

    n    mesh            k = 10       k = 32        k = 64
    196  bumpy_grid(14)   2.6 /  2.9   4.8 /  6.0    7.8 / 14.5
    256  bumpy_grid(16)   3.8 /  3.1   6.4 /  6.3   10.2 / 13.3
    300  torus(30, 10)    4.8 /  4.9   6.6 /  9.3    9.8 / 17.5
    324  bumpy_grid(18)   5.5 /  3.3   8.6 /  7.9   13.7 / 15.9
    360  torus(30, 12)    6.6 /  5.2   9.0 / 10.5   12.4 / 19.3
    400  bumpy_grid(20)   8.3 /  4.1  12.3 /  8.4   17.8 / 17.0
    480  torus(30, 16)   11.5 /  6.3  14.8 / 12.3   19.3 / 21.7
    576  bumpy_grid(24)  17.7 /  5.1  23.2 / 10.9   31.6 / 26.0
    576  torus(36, 16)   16.9 /  7.4  21.2 / 14.7   26.5 / 26.7
    642  icosphere(3)    21.4 /  8.5  24.5 / 16.9   28.5 / 31.7
    720  torus(40, 18)   30.6 /  8.5  35.2 / 17.2   42.2 / 30.8
    784  bumpy_grid(28)  40.3 /  6.3  48.4 / 13.1   60.2 / 30.8

Lanczos wins from n = 250 to 360 at k = 10 and from 320 to 480 at
k = 32, grids first and tori last, and from 6 k to 11 k at k = 64; under
n = 200 the dense solve wins at every k. With LANCZOS_MIN_N = 300 and
LANCZOS_N_PER_K = 10 the rule's pick is at most 1.5 ms slower than the
other path anywhere in the table at k <= 32, and at most 5.6 ms at
k = 64.

Each path returns its own vectors of a repeated eigenvalue, so a basis
whose last eigenvalue is tied with the next (k = 10 on spheres and
tori) holds other vectors when a mesh changes path, and maps built on
it change; they change with the vertex order on either path.

Eigenvectors keep the solver's signs: HKS and WKS square them, and C
takes them on its rows and columns exactly, so a point map moves only
where two matches are exactly equally near. Lanczos starts from a
fixed-seed vector, so repeat calls give the same bits. The dense solve holds one n x n buffer: S is densified once, and
LAPACK overwrites it. Inputs are checked in O(n + nnz) before anything
is built: a vertex area that is not finite and positive (an
unreferenced vertex, say), or a stiffness entry that is not finite,
raises DegenerateGeometryError. A failed solve of either kind raises
NumericError.
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

LANCZOS_N_PER_K = 10     # Lanczos when n >= LANCZOS_N_PER_K * k
LANCZOS_MIN_N = 300      # and n >= LANCZOS_MIN_N; dense otherwise
HKS_TIMES = 16
WKS_ENERGIES = 100
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
    """First k generalized eigenpairs of (-W, A), with the solver's
    signs. Repeat calls give the same bits: Lanczos starts from a
    fixed-seed vector, LAPACK is deterministic, and both run at one BLAS
    thread (``blas.ONE_BLAS_THREAD``), whatever the caller's count.
    """
    n = A.areas.shape[0]
    if k > n:
        raise ArgumentError(f"k={k} exceeds vertex count n={n}")
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if W.shape != (n, n):
        raise ArgumentError(f"W shape {W.shape} does not match n={n}")

    # O(n + nnz) input checks; the dense solve skips LAPACK's O(n^2) scan
    A.check_positive()
    W = W.tocsr()
    if not np.isfinite(W.data).all():
        raise DegenerateGeometryError("stiffness matrix has non-finite "
                                      "entries")
    # S = A^-1/2 (-W) A^-1/2, symmetrized: the standard symmetric problem
    # both solvers take; its eigenvectors scaled by A^-1/2 are (-W, A)'s
    inv_sqrt = 1.0 / np.sqrt(A.areas)
    D = sp.diags(inv_sqrt)
    S = D @ (-W) @ D
    S = 0.5 * (S + S.T)
    if n < max(LANCZOS_MIN_N, LANCZOS_N_PER_K * k):
        vals, vecs = _dense_eigh(S, k)
    else:
        vals, vecs = _lanczos_eigh(S, k)
    phi = vecs * inv_sqrt[:, None]
    vals = np.maximum(vals, 0.0)  # kernel eigenvalue may round negative
    return SpectralBasis(phi, vals, A)


def _dense_eigh(S, k):
    """First k eigenpairs of the sparse symmetric S. S is densified once
    into the only n x n buffer, which LAPACK overwrites; it is freed on
    return, before the caller scales the eigenvectors."""
    S = S.toarray(order="F")
    try:
        return scipy.linalg.eigh(S, subset_by_index=[0, k - 1],
                                 overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"dense eigensolver failed: {exc}") from exc


def _lanczos_eigh(S, k):
    """First k eigenpairs of the sparse symmetric S, ascending, by
    shift-invert Lanczos just below zero. The shift is 1e-8 of S's mean
    eigenvalue (its trace over n), so in any units it stays above the
    roundoff of S's entries: a fixed 1e-8 sank below it on a mesh of
    total area 1.4e-8 and left a zero mode's pivot at exactly 0.
    S plus the shift is symmetric positive definite, so its factor takes
    a symmetric fill-reducing ordering with diagonal pivots. Its
    supernodes are not relaxed: SuperLU's default relaxation made the
    factor of an icosphere of 10,242 vertices, in the order it is
    generated, take 1.8 s instead of 42 ms, and saved nothing on grids
    and tori. ARPACK starts from a fixed-seed vector: its own random
    start changes from call to call, and so would the last bits. An
    ARPACK error (no convergence, say) or a singular factor raises
    NumericError."""
    n = S.shape[0]
    shift = 1e-8 * S.diagonal().mean()
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        lu = spla.splu((S + shift * sp.identity(n)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       relax=1, panel_size=1,
                       options={"SymmetricMode": True})
        vals, vecs = spla.eigsh(
            S, k=k, sigma=-shift, which="LM", v0=v0,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve))
    except RuntimeError as exc:  # ArpackError, or splu's singular factor
        raise NumericError(f"Lanczos eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _zero_modes(basis: SpectralBasis) -> np.ndarray:
    """Mask of the zero modes (a mesh has one per connected component),
    column 0 always among them. lam times the total area is unitless, so
    the test does not depend on the mesh's units: on the self-matching
    fixtures, raw and normalized, zero modes read at most 2.5e-12 there
    and first nonzero eigenvalues at least 9.2."""
    zero = basis.lam * basis.areas.total <= ZERO_MODE
    zero[0] = True
    return zero


def _nonzero_spectrum(basis: SpectralBasis):
    """The eigenpairs that are not zero modes (``_zero_modes``)."""
    nz = ~_zero_modes(basis)
    if not nz.any():
        raise NumericError("degenerate spectrum: no nonzero eigenvalues")
    return basis.lam[nz], basis.phi[:, nz]


def hks(basis: SpectralBasis) -> FeatureField:
    """Heat kernel signature over HKS_TIMES log-spaced diffusion times.

    k_t(v) = sum_i exp(-lam_i t) phi_i(v)^2, each time column rescaled
    to unit area-weighted mean. The times span the nonzero eigenvalues;
    every zero mode enters with weight 1.
    """
    if basis.k < 2:
        raise ArgumentError("hks needs a basis with k >= 2")
    lam, phi = _nonzero_spectrum(basis)
    t_min = 4.0 * np.log(10.0) / lam[-1]
    t_max = 4.0 * np.log(10.0) / lam[0]
    times = np.geomspace(t_min, t_max, HKS_TIMES)

    decay = np.exp(-np.outer(lam, times))            # (k', T)
    sig = (phi ** 2) @ decay                          # (n, T)
    # the zero modes survive every time with weight 1; the sum of their
    # squares does not depend on which basis of the kernel the solver gave
    sig = sig + (basis.phi[:, _zero_modes(basis)] ** 2).sum(axis=1)[:, None]

    a = basis.areas.areas
    mean = (a @ sig) / basis.areas.total
    return FeatureField(sig / mean)


def wks(basis: SpectralBasis) -> FeatureField:
    """Wave kernel signature over WKS_ENERGIES log-energy bands.

    Gaussian bands of width sigma = 7 * step span [log lam_2, log lam_k];
    each band is normalized by its total coefficient mass.
    """
    if basis.k < 2:
        raise ArgumentError("wks needs a basis with k >= 2")
    lam, phi = _nonzero_spectrum(basis)
    log_lam = np.log(lam)
    e_min, e_max = log_lam[0], log_lam[-1]
    energies = np.linspace(e_min, e_max, WKS_ENERGIES)
    step = (e_max - e_min) / (WKS_ENERGIES - 1)
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
