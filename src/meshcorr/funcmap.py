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
zero gradient outside (0, 1).

Every term but the entropy is a fixed quadratic in c = vec(C) (row-major
C.ravel()): c^T H c - 2 b^T c + const, with a k^2 x k^2 matrix H built
once per problem (``FmapProblem.quadratic``). The solver whitens with the
Cholesky factor H = L L^T, so the smooth part has unit curvature in
y = L^T c, and starts from its minimizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.spatial import cKDTree

from .errors import ArgumentError, FormatError, NumericError
from .spectral import SpectralBasis

EPS_LOG = 1e-12
ENTROPY_F32_CUTOFF = 1_000_000  # entries of the dense map matrix
WHITEN_RIDGE = 1e-10            # relative to the mean diagonal of H

DEFAULT_ALPHA = 1e-2
DEFAULT_BETA = 1e-4
DEFAULT_W_ENTROPY = 1e-5
DEFAULT_W_SUM = 1e-3
DEFAULT_MAX_ITER = 500
TOL = 1e-7                      # solve_fmap's gradient stop test
RECOVERY_METHODS = ("nearest", "argmax")  # the first is the default


@dataclass(frozen=True)
class FmapWeights:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    w_entropy: float = DEFAULT_W_ENTROPY
    w_sum: float = DEFAULT_W_SUM

    def __post_init__(self):
        for name in ("alpha", "beta", "w_entropy", "w_sum"):
            if getattr(self, name) < 0:
                raise ArgumentError(f"{name} must be >= 0")

    def as_dict(self):
        return {"alpha": self.alpha, "beta": self.beta,
                "w_entropy": self.w_entropy, "w_sum": self.w_sum}


@dataclass(frozen=True)
class FmapProblem:
    basis_M: SpectralBasis
    basis_N: SpectralBasis
    F: np.ndarray                    # (k, d) spectral source features
    G: np.ndarray                    # (k, d) spectral target features
    mult_ops_M: tuple                # per-channel (k, k) operators X_p
    mult_ops_N: tuple                # per-channel (k, k) operators Y_p
    weights: FmapWeights = field(default_factory=FmapWeights)

    def __post_init__(self):
        k = self.basis_M.k
        if self.basis_N.k != k:
            raise ArgumentError("bases must share the same k")
        if self.F.shape[0] != k or self.G.shape[0] != k:
            raise ArgumentError("spectral features must have k rows")
        if self.F.shape[1] != self.G.shape[1]:
            raise ArgumentError("F and G must share the feature dimension")
        if len(self.mult_ops_M) != len(self.mult_ops_N):
            raise ArgumentError("operator lists must have equal length")

    @property
    def k(self) -> int:
        return self.basis_M.k

    @property
    def n_M(self) -> int:
        return self.basis_M.n

    @property
    def n_N(self) -> int:
        return self.basis_N.n

    @cached_property
    def quadratic(self):
        """(H, b, const) such that every term but the entropy sums to
        c^T H c - 2 b^T c + const for c = C.ravel().

        Row-major vec gives vec(A C B) = (A kron B^T) c; H is k^2 x k^2.
        """
        k, w = self.k, self.weights
        eye = np.eye(k)
        # data: |CF - G|^2
        H = np.kron(eye, self.F @ self.F.T)
        b = (self.G @ self.F.T).ravel()
        const = float((self.G ** 2).sum())
        if w.alpha > 0.0:
            diff = self.basis_N.lam[:, None] - self.basis_M.lam[None, :]
            H[np.diag_indices_from(H)] += w.alpha * (diff ** 2).ravel()
        if w.beta > 0.0 and self.mult_ops_M:
            # sum_p A_p^T A_p with A_p = I kron X_p^T - Y_p kron I
            X, Y = np.stack(self.mult_ops_M), np.stack(self.mult_ops_N)
            cross = np.einsum("pij,pab->iajb", Y, X,       # sum_p Y_p kron X_p
                              optimize=True).reshape(k * k, k * k)
            H += w.beta * (np.kron(eye, np.einsum("pij,pkj->ik", X, X))
                           + np.kron(np.einsum("pji,pjk->ik", Y, Y), eye)
                           - cross - cross.T)
        if w.w_sum > 0.0:
            # rows Pi 1 - 1 = Phi_N C s - 1; columns 1^T Pi - r = t^T C P - r
            phi_n = self.basis_N.phi
            P = self.basis_M.phi.T * self.basis_M.areas.areas   # (k, n_M)
            s, t = P.sum(axis=1), phi_n.sum(axis=0)
            r = self.n_N / self.n_M
            H += w.w_sum * (np.kron(phi_n.T @ phi_n, np.outer(s, s))
                            + np.kron(np.outer(t, t), P @ P.T))
            b += w.w_sum * (1.0 + r) * np.outer(t, s).ravel()
            const += w.w_sum * (self.n_N + r * r * self.n_M)
        return H, b, const

    @cached_property
    def entropy_operands(self):
        """(Phi_N, Phi_M^T A_M), the (n_N, k) and (k, n_M) factors of Pi,
        in the entropy block's precision.

        The dense map matrix has n_N * n_M entries; above a size cutoff
        single precision keeps this block fast without hurting the
        solver (its gradient contribution is orders of magnitude above
        float32 roundoff). Small problems stay in double precision.
        """
        dt = np.float32 if self.n_N * self.n_M > ENTROPY_F32_CUTOFF \
            else np.float64
        bm = self.basis_M
        return (self.basis_N.phi.astype(dt, copy=False),
                (bm.phi.T * bm.areas.areas).astype(dt, copy=False))


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


@dataclass(frozen=True)
class PartialSolution:
    C: np.ndarray
    eta: np.ndarray                  # (n_N,) membership mask in [0, 1]
    matched_area_fraction: float
    objective: float
    rounds: int
    converged: bool                  # the round-to-round stop test fired


def multiplication_operator(basis: SpectralBasis, channel) -> np.ndarray:
    """Spectral pointwise-multiplication operator Phi^+ Diag(ch) Phi."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.shape != (basis.n,):
        raise ArgumentError(
            f"channel length {channel.shape} != vertex count {basis.n}")
    weighted = basis.phi * (basis.areas.areas * channel)[:, None]
    return basis.phi.T @ weighted


def build_problem(basis_M: SpectralBasis, basis_N: SpectralBasis,
                  f, g, weights: FmapWeights | None = None) -> FmapProblem:
    """Assemble an FmapProblem from per-vertex features, with one pair
    of commutativity operators per feature channel."""
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    if f.shape[0] != basis_M.n:
        raise ArgumentError(f"source features rows {f.shape[0]} != {basis_M.n}")
    if g.shape[0] != basis_N.n:
        raise ArgumentError(f"target features rows {g.shape[0]} != {basis_N.n}")
    if f.shape[1] != g.shape[1]:
        raise ArgumentError("feature dimensions differ between meshes")
    weights = weights or FmapWeights()

    F = basis_M.pinv() @ f
    G = basis_N.pinv() @ g
    ops_M = tuple(multiplication_operator(basis_M, f[:, p])
                  for p in range(f.shape[1]))
    ops_N = tuple(multiplication_operator(basis_N, g[:, p])
                  for p in range(g.shape[1]))
    return FmapProblem(basis_M, basis_N, F, G, ops_M, ops_N, weights)


def _entropy_term(C, problem):
    """Entropy penalty of the clamped Pi plus its gradient with respect
    to C. The dense Pi is only materialized when the entropy weight is
    active."""
    w = problem.weights
    value = 0.0
    grad_pi_proj = np.zeros((problem.k, problem.k))

    if w.w_entropy > 0.0:
        phi_n, pinv_m = problem.entropy_operands
        dt = pinv_m.dtype.type
        pi = (phi_n @ C.astype(dt, copy=False)) @ pinv_m  # (n_N, n_M)
        interior = (pi > 0.0) & (pi < 1.0)
        np.clip(pi, 0.0, 1.0, out=pi)
        logc = np.log(pi + dt(EPS_LOG))
        value += w.w_entropy * float(-np.dot(pi.ravel(), logc.ravel()))
        # d/dPi of -(p log(p+eps)) with zero subgradient outside (0, 1)
        quot = np.divide(pi, pi + dt(EPS_LOG), out=pi)
        logc += quot
        np.negative(logc, out=logc)
        logc *= interior
        grad_pi_proj += w.w_entropy * (phi_n.T @ logc @ pinv_m.T)

    return value, grad_pi_proj


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


def solve_fmap(problem: FmapProblem, max_iter: int = DEFAULT_MAX_ITER,
               C0: np.ndarray | None = None) -> FunctionalMap:
    """Minimize the regularized objective with limited-memory
    quasi-Newton (L-BFGS-B, history 30) in whitened coordinates.

    With H = L L^T the Cholesky factor of the quadratic part (plus a
    ridge of WHITEN_RIDGE times its mean diagonal, so a rank-deficient
    H still factors; the objective itself is unchanged), the optimizer
    runs on y = L^T vec(C), where the quadratic part has unit
    curvature. It starts from that part's minimizer, or from C0 when
    given. ``converged`` is True when scipy reports success (its
    projected-gradient test in y, or a relative decrease <= 1e-12) or
    when the gradient with respect to C has norm <= TOL * (1 + |value|).
    The first non-finite objective value raises NumericError; its
    ``last_valid`` is the last k x k C whose objective was finite.
    """
    k = problem.k
    H, b, _ = problem.quadratic
    ridge = WHITEN_RIDGE * (np.trace(H) / len(H) or 1.0)
    L = np.linalg.cholesky(H + ridge * np.eye(len(H)))

    def to_c(y):
        return scipy.linalg.solve_triangular(L, y, lower=True, trans="T",
                                          check_finite=False)

    if C0 is None:
        y0 = scipy.linalg.solve_triangular(L, b, lower=True)
    else:
        y0 = L.T @ np.asarray(C0, float).ravel()
    state = {"last_valid": to_c(y0), "y": None, "f": None, "g": None}

    def fun(y):
        c = to_c(y)
        value, grad = fmap_objective(c.reshape(k, k), problem)
        if not np.isfinite(value):
            exc = NumericError(
                "objective became non-finite; last valid C available")
            exc.last_valid = state["last_valid"].reshape(k, k)
            raise exc
        state["last_valid"] = c
        state["y"], state["f"], state["g"] = y.copy(), value, grad.ravel()
        return value, scipy.linalg.solve_triangular(L, state["g"], lower=True,
                                                  check_finite=False)

    def scale_aware_stop(intermediate_result):
        # stop once the gradient norm with respect to C falls below
        # TOL * (1 + |value|); the line search ends at the accepted
        # point, so the cached gradient normally belongs to this iterate
        if not np.array_equal(intermediate_result.x, state["y"]):
            fun(intermediate_result.x)
        f, g = state["f"], state["g"]
        if float(np.linalg.norm(g)) <= TOL * (1.0 + abs(float(f))):
            state["tol_met"] = True
            raise StopIteration

    res = scipy.optimize.minimize(
        fun, y0, jac=True, method="L-BFGS-B", callback=scale_aware_stop,
        options={"maxiter": max_iter, "maxcor": 30,
                 "gtol": TOL, "ftol": 1e-12})
    converged = bool(res.success) or state.get("tol_met", False)
    return FunctionalMap(to_c(res.x).reshape(k, k), converged,
                         float(res.fun), int(res.nit))


def recover_pointmap(C, basis_M: SpectralBasis, basis_N: SpectralBasis,
                     method: str = RECOVERY_METHODS[0]) -> PointMap:
    """Dense vertex map from a spectral map.

    ``nearest`` sends target vertex j to the source vertex whose row of
    Phi_M is nearest to row j of Phi_N C (a k-d tree, O(n k) memory);
    ``argmax`` takes the row-argmax of the clamped Pi = Phi_N C Phi_M^+
    (ties to the smallest index), which builds the dense n_N x n_M Pi.
    The confidence of j is the clamped Pi entry of its chosen pair.
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
        match = np.argmax(np.clip(emb_n @ basis_M.pinv(), 0.0, 1.0), axis=1)
    # Pi[j, i] = (Phi_N C)[j] . Phi_M[i] a_M[i]
    conf = np.einsum("jk,jk->j", emb_n, basis_M.phi[match])
    conf *= basis_M.areas.areas[match]
    return PointMap(match, np.clip(conf, 0.0, 1.0))


def fmap_from_pointmap(target_to_source, basis_M: SpectralBasis,
                       basis_N: SpectralBasis) -> np.ndarray:
    """Spectral map of a dense vertex map: C = Phi_N^+ Pi Phi_M."""
    idx = np.asarray(target_to_source, dtype=np.int64)
    if idx.shape != (basis_N.n,):
        raise ArgumentError(
            f"map length {idx.shape} != target vertex count {basis_N.n}")
    if idx.size and (idx.min() < 0 or idx.max() >= basis_M.n):
        raise ArgumentError("map index out of source range")
    # Pi is the binary matrix with Pi[j, match(j)] = 1
    return (basis_N.phi.T * basis_N.areas.areas) @ basis_M.phi[idx]


# ------------------------------------------------------- partial maps

W_AREA = 1.0          # area preservation
W_MS = 1e-2           # boundary smoothness
W_ETA = 1e-3          # mask entropy
MAX_ROUNDS = 20
ETA_STEPS = 40        # projected gradient steps on eta per round
ROUND_TOL = 1e-6      # relative change of the joint objective


def solve_partial(problem: FmapProblem, g,
                  edges: np.ndarray) -> PartialSolution:
    """Partial source vs full target matching (Rodola et al., CGF 2017).

    Alternates between solving C at fixed mask eta (target features
    replaced by Diag(eta) g) and projected gradient steps on eta for the
    masked data term plus area preservation, boundary smoothness, and
    mask entropy. ``edges`` are the target-mesh edges used by the
    smoothness term. ``converged`` is True when the joint objective
    changed by at most ROUND_TOL (relative) within MAX_ROUNDS rounds.
    """
    import warnings

    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    bn = problem.basis_N
    if g.shape[0] != bn.n:
        raise ArgumentError("g rows must match the target vertex count")
    a_n = bn.areas.areas
    area_n = bn.areas.total
    area_m = problem.basis_M.areas.total
    if area_m > area_n:
        warnings.warn("source area exceeds target area; mask will saturate")

    edges = np.asarray(edges, dtype=np.int64)
    ew = 0.5 * (a_n[edges[:, 0]] + a_n[edges[:, 1]])  # area-weighted edges

    eta = np.full(bn.n, min(1.0, area_m / area_n))
    pinv_n = bn.phi.T * a_n

    def eta_objective(eta_vec, C):
        G_eta = pinv_n @ (eta_vec[:, None] * g)
        resid = C @ problem.F - G_eta
        data = float((resid ** 2).sum())
        area_pen = W_AREA * (float(eta_vec @ a_n) - area_m) ** 2
        d = eta_vec[edges[:, 0]] - eta_vec[edges[:, 1]]
        ms = W_MS * float(ew @ (d ** 2))
        ent = W_ETA * float(-(eta_vec * np.log(eta_vec + EPS_LOG)).sum())
        return data, area_pen + ms + ent, resid

    def eta_gradient(eta_vec, C, resid):
        # d/d eta of |CF - Phi_N^+ Diag(eta) g|^2
        grad = -2.0 * np.einsum("nd,nd->n",
                                (a_n[:, None] * bn.phi) @ resid, g)
        grad += 2.0 * W_AREA * (float(eta_vec @ a_n) - area_m) * a_n
        d = eta_vec[edges[:, 0]] - eta_vec[edges[:, 1]]
        lap = np.zeros_like(eta_vec)
        np.add.at(lap, edges[:, 0], 2.0 * W_MS * ew * d)
        np.add.at(lap, edges[:, 1], -2.0 * W_MS * ew * d)
        grad += lap
        grad += -W_ETA * (np.log(eta_vec + EPS_LOG)
                          + eta_vec / (eta_vec + EPS_LOG))
        return grad

    prev, C, converged = np.inf, None, False
    for rounds in range(1, MAX_ROUNDS + 1):
        fm = solve_fmap(replace(problem, G=pinv_n @ (eta[:, None] * g)),
                        C0=C)
        C = fm.C

        # projected gradient with backtracking on the joint eta objective
        data, reg, resid = eta_objective(eta, C)
        current = data + reg
        step = 1.0
        for _ in range(ETA_STEPS):
            grad = eta_gradient(eta, C, resid)
            while step > 1e-12:
                trial = np.clip(eta - step * grad, 0.0, 1.0)
                d2, r2, resid2 = eta_objective(trial, C)
                if d2 + r2 < current:
                    eta, current, resid = trial, d2 + r2, resid2
                    step *= 1.5
                    break
                step *= 0.5
            else:
                break

        total = current + fm.final_objective - data  # avoid double counting
        converged = abs(prev - total) <= ROUND_TOL * max(1.0, abs(total))
        prev = total
        if converged:
            break

    fraction = float(eta @ a_n) / area_n
    return PartialSolution(C, eta, fraction, float(prev), rounds, converged)


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
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_map(path):
    """Read a map written by ``save_map``; a missing or malformed file,
    or a C that is not a square matrix, raises FormatError."""
    if not Path(path).exists():
        raise FormatError(f"map file not found: {path}")
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
            pmap = PointMap(np.asarray(doc["target_to_source"], np.int64),
                            np.asarray(doc["confidence"], np.float64))
            fmap = FunctionalMap(np.asarray(doc["C"], np.float64),
                                 bool(doc["converged"]),
                                 float(doc["objective"]),
                                 int(doc["iterations"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed map file "
                              f"({type(exc).__name__}: {exc})") from exc
    if fmap.C.ndim != 2 or fmap.C.shape[0] != fmap.C.shape[1]:
        raise FormatError(f"{path}: C is not a square matrix "
                          f"(shape {fmap.C.shape})")
    return fmap, pmap, doc.get("weights", {})
