"""Laplace-Beltrami spectral basis and intrinsic descriptors.

The generalized eigenproblem (-W) phi = lambda A phi is solved with the
stiffness matrix from ``cotangent_weights`` (negative semidefinite, so
the stored eigenvalues are nonnegative). For the dataset regime
(n <= ~3000) a dense symmetric solve after diagonal-mass symmetrization
is both simple and robust; larger meshes fall back to shift-invert
Lanczos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ArgumentError, NumericError
from .features import FeatureField
from .mesh import TriMesh, VertexAreas

DENSE_LIMIT = 3000
DEFAULT_FMAP_K = 10      # basis size used by the map solver
DEFAULT_DESC_K = 128     # basis size used for descriptors
DEFAULT_HKS_TIMES = 16
DEFAULT_WKS_ENERGIES = 100
DEFAULT_POSENC_BANDS = 6


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
    inv_sqrt = 1.0 / np.sqrt(a)
    if n <= DENSE_LIMIT or k > n // 2:
        # symmetrize: S = A^-1/2 (-W) A^-1/2, ordinary symmetric problem
        S = (-W).toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
        S = 0.5 * (S + S.T)
        try:
            vals, vecs = scipy.linalg.eigh(S, subset_by_index=[0, k - 1])
        except scipy.linalg.LinAlgError as exc:
            raise NumericError(f"dense eigensolver failed: {exc}") from exc
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


def _nonzero_spectrum(basis: SpectralBasis):
    lam = basis.lam
    nz = lam > 1e-12
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
