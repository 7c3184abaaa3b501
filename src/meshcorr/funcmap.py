"""Regularized functional-map optimization and point-map recovery.

The spectral map C (k x k) is found by minimizing

    |CF - G|^2                                   data term
  + alpha |Lam_N C - C Lam_M|^2                  isometry (Laplacian commutativity)
  + beta  sum_p |C X_p - Y_p C|^2                pointwise-product commutativity
  + w_entropy * entropy(clamp(Pi, 0, 1))         sparsity of the soft map
  + w_sum * soft-assignment row/column sums      Pi rows -> 1, columns -> n_N/n_M

with Pi = Phi_N C Phi_M^+ (rows index target vertices, columns source
vertices; match(j) is the row of Phi_M nearest to row j of Phi_N C, or
the row-argmax of Pi). All gradients are analytic; the clamp contributes
zero gradient outside (0, 1). The entropy and argmax recovery both read
Pi in float64 blocks of whole target rows, about ENTROPY_BLOCK entries
each (``_pi_rows``), so no n_N x n_M buffer is built.

An FmapProblem is two MatchInputs and the weights. A MatchInput is all
the solve reads of one mesh, made by ``project_features`` from it alone:
its basis, F = Phi_M^+ f (k x d; G = Phi_N^+ g for the target) and the d
operators X_p = Phi_M^+ Diag(f_p) Phi_M (Y_p of g) as one (d, k, k)
array. A caller matching one mesh against many projects it once.

Every term but the entropy is a fixed quadratic in c = vec(C) (row-major
C.ravel()): c^T H c - 2 b^T c + const, with a k^2 x k^2 matrix H built
once per problem (``FmapProblem.quadratic``). ``solve_fmap`` returns that
quadratic's minimizer in closed form: one Cholesky solve H = L L^T, no
optimizer and no read of Pi. So it takes w_entropy = 0, the default. The
entropy term lives on in ``fmap_objective``, which adds its value and
gradient, and in ``solve_partial``, whose L-BFGS-B solve minimizes it
with the rest of J in y = L^T c, where the quadratic part has unit
curvature.

``solve_partial`` matches a partial source: over C and a target mask
eta in [0, 1]^n_N it minimizes J(C, eta) = the objective above with
G = Phi_N^+ Diag(eta) g, + W_AREA (a_N^T eta - area_M)^2 + W_MS sum_e
w_e (eta_i - eta_j)^2 - W_ETA sum_i eta_i log eta_i.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from .blas import ONE_BLAS_THREAD
from .errors import (ArgumentError, NumericError, json_array, read_json,
                     write_json)
from .spectral import SpectralBasis

EPS_LOG = 1e-12
ENTROPY_BLOCK = 32_768          # Pi entries per entropy/argmax block (256 KiB)
WHITEN_RIDGE = 1e-10            # relative to the mean diagonal of H

DEFAULT_ALPHA = 1e-2
DEFAULT_BETA = 1e-4
DEFAULT_W_SUM = 1e-3
DEFAULT_MAX_ITER = 500          # solve_partial's L-BFGS-B iteration limit
TOL = 1e-7                      # L-BFGS-B's projected-gradient gtol
RECOVERY_METHODS = ("nearest", "argmax")  # the first is the default


@dataclass(frozen=True)
class FmapWeights:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    w_entropy: float = 0.0
    w_sum: float = DEFAULT_W_SUM

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0.0 <= value < np.inf:
                raise ArgumentError(f"{name} must be finite and >= 0")

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class MatchInput:
    """All the solve reads of one mesh, independent of the other mesh;
    it holds no per-vertex features."""
    basis: SpectralBasis             # the k-sized basis C lives in
    spectral_features: np.ndarray    # (k, d) Phi^+ f
    mult_ops: np.ndarray             # (d, k, k) Phi^+ Diag(f_p) Phi


@dataclass(frozen=True)
class FmapProblem:
    source: MatchInput               # M: F, the operators X_p
    target: MatchInput               # N: G, the operators Y_p
    weights: FmapWeights = field(default_factory=FmapWeights)

    def __post_init__(self):
        k = self.k
        F, G = self.source.spectral_features, self.target.spectral_features
        if self.target.basis.k != k:
            raise ArgumentError("bases must share the same k")
        if F.shape[0] != k or G.shape[0] != k:
            raise ArgumentError("spectral features must have k rows")
        if F.shape[1] != G.shape[1]:
            raise ArgumentError("F and G must share the feature dimension")
        for side in (self.source, self.target):
            shape = np.shape(side.mult_ops)
            if len(shape) != 3 or shape[1:] != (k, k):
                raise ArgumentError(
                    f"mult_ops must be (d, {k}, {k}), got {shape}")
        if len(self.source.mult_ops) != len(self.target.mult_ops):
            raise ArgumentError("operator lists must have equal length")

    @property
    def k(self) -> int:
        return self.source.basis.k

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def quadratic(self):
        """(H, b, const) such that every term but the entropy sums to
        c^T H c - 2 b^T c + const for c = C.ravel(). Each term is added
        whatever its weight; a zero weight adds exact zeros. A weight
        large enough to overflow makes entries inf or NaN without a
        warning; ``_whitening`` refuses them.

        H is k^2 x k^2, built as its (k, k, k, k) view H[i, j, a, b],
        the coefficient of C[i, j] C[a, b]. A term |A C B|^2 adds
        (A^T A)[i, a] (B B^T)[j, b] (``_outer4``). With A = I it touches
        only i == a, with B = I only j == b, and the isometry only the
        diagonal, so those are added through index views of H. The
        cross terms of sum_p |C X_p - Y_p C|^2 add -(Y_p[i, a] X_p[j, b]
        + Y_p[a, i] X_p[b, j]), summed over p as one GEMM.
        """
        k, w = self.k, self.weights
        bm, bn = self.source.basis, self.target.basis
        F, G = self.source.spectral_features, self.target.spectral_features
        X, Y = self.source.mult_ops, self.target.mult_ops
        d = len(X)
        H = np.zeros((k, k, k, k))
        # A = I, B = F (data |CF - G|^2) or X_p: sum_p X_p X_p^T as a GEMM
        Xs = X.transpose(1, 0, 2).reshape(k, d * k)        # [i, (p, j)]
        np.einsum("ijib->ijb", H)[...] += F @ F.T + w.beta * (Xs @ Xs.T)
        # B = I, A = Y_p: sum_p Y_p^T Y_p as a GEMM
        Ys = Y.reshape(d * k, k)                           # [(p, i), j]
        np.einsum("ijaj->jia", H)[...] += w.beta * (Ys.T @ Ys)
        diff = bn.lam[:, None] - bm.lam[None, :]
        np.einsum("ijij->ij", H)[...] += w.alpha * diff ** 2
        # cross[i, a, j, b] = sum_p Y_p[i, a] X_p[j, b]
        cross = (Y.reshape(d, k * k).T @ X.reshape(d, k * k)).reshape(
            k, k, k, k).transpose(0, 2, 1, 3)
        H -= w.beta * (cross + cross.transpose(2, 3, 0, 1))
        # rows Pi 1 - 1 = Phi_N C s - 1; columns 1^T Pi - r = t^T C P - r
        P = bm.pinv()                                       # (k, n_M)
        s, t = P.sum(axis=1), bn.phi.sum(axis=0)
        r = bn.n / bm.n
        H += w.w_sum * (_outer4(bn.phi.T @ bn.phi, np.outer(s, s))
                        + _outer4(np.outer(t, t), P @ P.T))
        b = (G @ F.T).ravel()
        b += w.w_sum * (1.0 + r) * np.outer(t, s).ravel()
        const = float((G ** 2).sum()) + w.w_sum * (bn.n + r * r * bm.n)
        return H.reshape(k * k, k * k), b, const


def _outer4(A, B):
    """(k, k, k, k) array [i, j, a, b] = A[i, a] B[j, b]: A kron B."""
    return A[:, None, :, None] * B[None, :, None, :]


@dataclass(frozen=True)
class FunctionalMap:
    C: np.ndarray
    converged: bool
    final_objective: float
    iterations: int


@dataclass(frozen=True)
class PointMap:
    target_to_source: np.ndarray     # (n_N,) source index per target vertex
    confidence: np.ndarray           # (n_N,) selected clamped Pi entries

    @property
    def n(self) -> int:
        return len(self.target_to_source)


def check_map_fits(target_to_source, n_source: int, n_target=None):
    """Raise ArgumentError unless the map is 1-D, sends every target
    vertex to a source vertex in range(n_source) and, when n_target is
    given, has one entry per target vertex."""
    match = np.asarray(target_to_source)
    if match.ndim != 1 or n_target not in (None, len(match)):
        raise ArgumentError(f"point map of shape {match.shape} does not "
                            f"fit the target vertex count {n_target}")
    if match.size and (match.min() < 0 or match.max() >= n_source):
        raise ArgumentError(
            f"point map indices {match.min()}..{match.max()} lie outside "
            f"the {n_source} source vertices")


@dataclass(frozen=True)
class PartialSolution:
    C: np.ndarray
    eta: np.ndarray                  # (n_N,) membership mask in [0, 1]
    matched_area_fraction: float
    objective: float                 # J(C, eta), see solve_partial
    iterations: int
    converged: bool                  # scipy's success flag
    reason: str                      # scipy's termination message

    @property
    def rounds(self) -> int:
        """1, the one joint solve; only the benchmark tracer reads it."""
        return 1


def multiplication_operator(basis: SpectralBasis, channel) -> np.ndarray:
    """Spectral pointwise-multiplication operator Phi^+ Diag(ch) Phi."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.shape != (basis.n,):
        raise ArgumentError(
            f"channel length {channel.shape} != vertex count {basis.n}")
    weighted = basis.phi * (basis.areas.areas * channel)[:, None]
    return basis.phi.T @ weighted


@ONE_BLAS_THREAD
def project_features(basis: SpectralBasis, f) -> MatchInput:
    """One mesh's MatchInput: its basis, the (k, d) spectral features
    Phi^+ f of per-vertex features f (n, d), and their d multiplication
    operators Phi^+ Diag(f_p) Phi as one (d, k, k) array. It runs at one
    BLAS thread: Phi^+ f sums over n."""
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    if f.shape[0] != basis.n:
        raise ArgumentError(
            f"feature rows {f.shape[0]} != vertex count {basis.n}")
    ops = np.empty((f.shape[1], basis.k, basis.k))
    for p in range(f.shape[1]):
        ops[p] = multiplication_operator(basis, f[:, p])
    return MatchInput(basis, basis.pinv() @ f, ops)


def build_problem(basis_M: SpectralBasis, basis_N: SpectralBasis,
                  f, g, weights: FmapWeights | None = None) -> FmapProblem:
    """Assemble an FmapProblem from per-vertex features, projecting each
    mesh's features with ``project_features``."""
    return FmapProblem(project_features(basis_M, f),
                       project_features(basis_N, g), weights or FmapWeights())


def _pi_rows(emb, pinv_m):
    """(rows, Pi[rows]) of Pi = emb pinv_m, emb = Phi_N C, in blocks of
    whole target rows of about ENTROPY_BLOCK entries, which stay in cache."""
    step = max(1, ENTROPY_BLOCK // pinv_m.shape[1])  # target rows per block
    for start in range(0, len(emb), step):
        rows = slice(start, start + step)
        yield rows, emb[rows] @ pinv_m


def _entropy_term(C, problem):
    """Entropy penalty of the clamped Pi plus its gradient with respect
    to C, in float64 over ``_pi_rows``' blocks, so no n_N x n_M buffer is
    built. The gradient is Phi_N^T (dE/dPi) (Phi_M^+)^T; its left product
    is summed block by block."""
    w = problem.weights
    if w.w_entropy == 0.0:
        return 0.0, np.zeros((problem.k, problem.k))
    phi_n, pinv_m = problem.target.basis.phi, problem.source.basis.pinv()
    value, left = 0.0, np.zeros_like(pinv_m)         # left: (k, n_M)
    for rows, pi in _pi_rows(phi_n @ C, pinv_m):
        interior = (pi > 0.0) & (pi < 1.0)
        np.clip(pi, 0.0, 1.0, out=pi)
        logc = np.log(pi + EPS_LOG)
        value -= float(np.dot(pi.ravel(), logc.ravel()))
        # d/dPi of -(p log(p+eps)) with zero subgradient outside (0, 1)
        logc += np.divide(pi, pi + EPS_LOG, out=pi)
        logc *= interior
        left -= phi_n[rows].T @ logc
    return w.w_entropy * value, w.w_entropy * (left @ pinv_m.T)


def fmap_objective(C, problem: FmapProblem):
    """Objective value and exact analytic gradient at C."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (problem.k, problem.k):
        raise ArgumentError(f"C must be {problem.k}x{problem.k}")
    H, b, const = problem.quadratic
    c = C.ravel()
    Hc = H @ c
    value = float(c @ (Hc - 2.0 * b)) + const
    grad = 2.0 * (Hc - b).reshape(C.shape)

    ev, eg = _entropy_term(C, problem)
    return value + ev, grad + eg


def _whitening(problem: FmapProblem):
    """(to_C, lower) for H + ridge = L L^T, H the quadratic part's matrix
    and the ridge WHITEN_RIDGE times its mean diagonal (so a singular H
    factors). In y = L^T vec(C) the quadratic part has unit curvature:
    to_C(y) is that C, and lower(v) = L^-1 v maps a gradient in vec(C) to
    one in y, and b to the quadratic part's minimizer in y. An H or b
    that is not finite (a weight overflowed it) and pivots with L_ii^2 <=
    100 ridges, directions only the ridge pins, raise NumericError."""
    (H, b, _), k = problem.quadratic, problem.k
    if not (np.isfinite(H).all() and np.isfinite(b).all()):
        raise NumericError("the objective overflows: its quadratic part is "
                           "not finite, so a weight is too large")
    ridge = WHITEN_RIDGE * (np.trace(H) / len(H) or 1.0)
    L = np.linalg.cholesky(H + ridge * np.eye(len(H)))
    free = int((np.diag(L) ** 2 <= 100.0 * ridge).sum())
    if free:
        raise NumericError(f"underdetermined map: {free} of {len(H)} "
                           "directions of C are unconstrained")
    lower = partial(scipy.linalg.solve_triangular, L, lower=True,
                    check_finite=False)
    return (lambda y: lower(y, trans="T").reshape(k, k)), lower


def _minimize(fun, x0, to_C, max_iter, **kwargs):
    """L-BFGS-B (history 30) on fun(x) -> (value, gradient). The first
    non-finite value raises NumericError; its ``last_valid`` is to_C of
    the last x whose value was finite (x0 until one was)."""
    # imported here, so no CLI command loads scipy.optimize
    import scipy.optimize
    last_valid = [x0]

    def checked(x):
        value, grad = fun(x)
        if not np.isfinite(value):
            exc = NumericError(
                "objective became non-finite; last valid C available")
            exc.last_valid = to_C(last_valid[0])
            raise exc
        last_valid[0] = x.copy()
        return value, grad

    return scipy.optimize.minimize(
        checked, x0, jac=True, method="L-BFGS-B", options={
            "maxiter": max_iter, "maxcor": 30, "gtol": TOL, "ftol": 1e-12},
        **kwargs)


@ONE_BLAS_THREAD
def solve_fmap(problem: FmapProblem,
               max_iter: int = DEFAULT_MAX_ITER) -> FunctionalMap:
    """Minimize the regularized objective with w_entropy == 0: the
    quadratic part, whose minimizer, one Cholesky solve (``_whitening``),
    is returned after 0 iterations, converged. Nothing reads Pi or loads
    scipy.optimize. A w_entropy above 0 raises ArgumentError; an
    underdetermined H raises NumericError. It runs at one BLAS thread, as
    ``solve_partial`` does. Nothing here reads ``max_iter``; it stays
    only because the benchmark tracer reads it from the call.
    """
    if problem.weights.w_entropy != 0.0:
        raise ArgumentError("solve_fmap is the closed-form solve and needs "
                            f"w_entropy 0, got {problem.weights.w_entropy}")
    to_C, lower = _whitening(problem)
    C = to_C(lower(problem.quadratic[1]))
    return FunctionalMap(C, True, fmap_objective(C, problem)[0], 0)


def recover_pointmap(C, basis_M: SpectralBasis, basis_N: SpectralBasis,
                     method: str = RECOVERY_METHODS[0]) -> PointMap:
    """Dense vertex map from a spectral map.

    ``nearest`` sends target vertex j to the source vertex whose row of
    Phi_M is nearest to row j of Phi_N C (a k-d tree, O(n k) memory);
    ``argmax`` takes the row-argmax of the clamped Pi = Phi_N C Phi_M^+
    (ties to the smallest index) over ``_pi_rows``' blocks of whole rows,
    O(ENTROPY_BLOCK) memory. The confidence of j is its clamped Pi entry.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (basis_M.k, basis_N.k):
        raise ArgumentError("C is not square in the shared basis size")
    if method not in RECOVERY_METHODS:
        raise ArgumentError(f"unknown recovery method '{method}'")
    emb_n = basis_N.phi @ C                          # (n_N, k)
    if method == "nearest":
        match = cKDTree(basis_M.phi).query(emb_n)[1]
    else:
        match = np.concatenate([np.argmax(np.clip(pi, 0.0, 1.0, out=pi), 1)
                                for _, pi in _pi_rows(emb_n, basis_M.pinv())])
    # Pi[j, i] = (Phi_N C)[j] . Phi_M[i] a_M[i]
    conf = np.einsum("jk,jk->j", emb_n, basis_M.phi[match])
    conf *= basis_M.areas.areas[match]
    return PointMap(match, np.clip(conf, 0.0, 1.0))


def fmap_from_pointmap(target_to_source, basis_M: SpectralBasis,
                       basis_N: SpectralBasis) -> np.ndarray:
    """Spectral map of a dense vertex map: C = Phi_N^+ Pi Phi_M."""
    idx = np.asarray(target_to_source, dtype=np.int64)
    check_map_fits(idx, basis_M.n, basis_N.n)
    # Pi is the binary matrix with Pi[j, match(j)] = 1
    return basis_N.pinv() @ basis_M.phi[idx]


# ------------------------------------------------------- partial maps

W_AREA = 1.0          # area preservation
W_MS = 1e-2           # boundary smoothness
W_ETA = 1e-3          # mask entropy


@ONE_BLAS_THREAD
def solve_partial(problem: FmapProblem, g,
                  edges: np.ndarray) -> PartialSolution:
    """Partial source vs full target matching (Rodola et al., CGF 2017).

    Minimizes over C and a target mask eta in [0, 1]^n_N

        J(C, eta) = E(C; G(eta)) + W_AREA (a^T eta - area_M)^2
                    + W_MS sum_e w_e (eta_i - eta_j)^2 - W_ETA sum eta log eta

    with E = fmap_objective, G(eta) = Phi_N^+ Diag(eta) g, a the target
    vertex areas and w_e the mean area at the ends of each of ``edges``.
    One L-BFGS-B solve (Byrd et al., SISC 1995) runs on x = [L^T vec(C),
    sqrt(D) eta] from the quadratic part's minimizer at eta = min(1,
    area_M / area_N): L is ``_whitening``'s Cholesky factor, and D is the
    diagonal of J's quadratic Hessian in eta. ``converged`` and
    ``reason`` are scipy's. It runs at one BLAS thread
    (``blas.ONE_BLAS_THREAD``), so (C, eta) do not depend on the caller's
    thread count.
    """
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    bn, k = problem.target.basis, problem.k
    F = problem.source.spectral_features
    if g.shape[0] != bn.n:
        raise ArgumentError("g rows must match the target vertex count")
    a_n, area_n = bn.areas.areas, bn.areas.total
    area_m = problem.source.basis.areas.total
    if area_m > area_n:
        warnings.warn("source area exceeds target area; mask will saturate")

    edges = np.asarray(edges, dtype=np.int64)
    ew = 0.5 * (a_n[edges[:, 0]] + a_n[edges[:, 1]])  # area-weighted edges
    phi_a = bn.phi * a_n[:, None]                     # Phi_N^+ = phi_a^T
    # E(C; G) = E(C; 0) - 2 <CF, G> + |G|^2: only the last two see eta
    unmasked = replace(problem, target=replace(
        problem.target, spectral_features=np.zeros_like(F)))
    to_C, lower = _whitening(unmasked)
    degree = np.bincount(edges.ravel(), np.repeat(ew, 2), minlength=bn.n)
    root_d = np.sqrt(2.0 * a_n ** 2 * ((bn.phi ** 2).sum(axis=1)
                                       * (g ** 2).sum(axis=1) + W_AREA)
                     + 2.0 * W_MS * degree)

    def split(x):   # x <= root_d gives eta <= 1 exactly
        return to_C(x[:k * k]), x[k * k:] / root_d

    def fun(x):
        C, eta = split(x)
        G, CF = phi_a.T @ (eta[:, None] * g), C @ F
        value, grad_C = fmap_objective(C, unmasked)
        grad_C -= 2.0 * G @ F.T
        grad_eta = -2.0 * np.einsum("nd,nd->n", phi_a @ (CF - G), g)
        excess = float(eta @ a_n) - area_m
        d = eta[edges[:, 0]] - eta[edges[:, 1]]
        log_eta = np.log(eta + EPS_LOG)
        value += (float((G * (G - 2.0 * CF)).sum()) + W_AREA * excess ** 2
                  + W_MS * float(ew @ d ** 2) - W_ETA * float(eta @ log_eta))
        wd = 2.0 * W_MS * ew * d
        grad_eta += (2.0 * W_AREA * excess * a_n
                     + np.bincount(edges[:, 0], wd, minlength=bn.n)
                     - np.bincount(edges[:, 1], wd, minlength=bn.n)
                     - W_ETA * (log_eta + eta / (eta + EPS_LOG)))
        return value, np.r_[lower(grad_C.ravel()), grad_eta / root_d]

    eta0 = np.full(bn.n, min(1.0, area_m / area_n))
    y0 = lower(unmasked.quadratic[1]
               + (phi_a.T @ (eta0[:, None] * g) @ F.T).ravel())
    res = _minimize(fun, np.r_[y0, root_d * eta0],
                    lambda x: split(x)[0], DEFAULT_MAX_ITER,
                    bounds=[(None, None)] * k ** 2 + [(0, r) for r in root_d])
    C, eta = split(res.x)
    return PartialSolution(C, eta, float(eta @ a_n) / area_n, float(res.fun),
                           int(res.nit), bool(res.success), str(res.message))


# ----------------------------------------------------------------- io

def save_map(path, fmap: FunctionalMap, pmap: PointMap,
             weights: FmapWeights):
    doc = {
        "k": int(fmap.C.shape[0]),
        "C": [[float(x) for x in row] for row in fmap.C],
        "target_to_source": [int(i) for i in pmap.target_to_source],
        "confidence": [float(c) for c in pmap.confidence],
        "objective": float(fmap.final_objective),
        "converged": bool(fmap.converged),
        "iterations": int(fmap.iterations),
        "weights": weights.as_dict(),
    }
    write_json(path, doc)


def _finite(value, ndim: int, name: str) -> np.ndarray:
    """``json_array`` of floats; a NaN or infinite entry raises ValueError."""
    array = json_array(value, float, ndim, name)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a NaN or infinite number")
    return array


def _parse_map(doc):
    k = int(json_array(doc["k"], int, 0, "k"))
    C = _finite(doc["C"], 2, "C")
    if C.shape != (k, k):
        raise ValueError(f"C has shape {C.shape}, not k x k with k={k}")
    fmap = FunctionalMap(
        C, bool(json_array(doc["converged"], bool, 0, "converged")),
        float(_finite(doc["objective"], 0, "objective")),
        int(json_array(doc["iterations"], int, 0, "iterations")))
    match = json_array(doc["target_to_source"], int, 1, "target_to_source")
    confidence = _finite(doc["confidence"], 1, "confidence")
    if confidence.shape != match.shape:
        raise ValueError(f"confidence has {confidence.size} entries, "
                         f"target_to_source {match.size}")
    weights = doc.get("weights", {})
    if not isinstance(weights, dict):
        raise TypeError("weights is not an object")
    return fmap, PointMap(match, confidence), weights


def load_map(path):
    """Read a map written by ``save_map``; a missing or malformed file, a
    value of another JSON type (see ``json_array``), a NaN or infinite
    number in C, confidence or objective, a C that is not k x k, a
    confidence of another length than target_to_source, or weights that
    are not an object raise FormatError. A map without weights has
    weights {}.
    Whether the map fits a pair of meshes is ``check_map_fits``'s job."""
    return read_json(path, "map", _parse_map)
