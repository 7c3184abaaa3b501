import numpy as np
import pytest

import meshcorr.funcmap as funcmap
from meshcorr.errors import ArgumentError, NumericError
from meshcorr.mesh import cotangent_weights, vertex_areas
from meshcorr.spectral import eigenbasis
from meshcorr.funcmap import (FmapProblem, FmapWeights, build_problem,
                              fmap_from_pointmap, fmap_objective, load_map,
                              multiplication_operator, recover_pointmap,
                              save_map, solve_fmap, solve_partial)

from conftest import grid_patch, icosphere


def basis_pair(k=8):
    m = grid_patch(8, 8, z_fn=lambda x, y: 0.3 * np.sin(3 * x) * np.cos(2 * y))
    b = eigenbasis(cotangent_weights(m), vertex_areas(m), k)
    return m, b


def random_problem(k=6, d=4, seed=0, weights=None):
    m, b = basis_pair(k)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(m.n_vertices, d))
    g = rng.normal(size=(m.n_vertices, d))
    return build_problem(b, b, f, g, weights or FmapWeights())


def test_weights_validation():
    with pytest.raises(ArgumentError):
        FmapWeights(alpha=-1.0)
    w = FmapWeights()
    assert set(w.as_dict()) == {"alpha", "beta", "w_entropy", "w_sum"}


def test_multiplication_operator_property():
    # the operator must reproduce projection of the pointwise product:
    # X_p (coeffs of h) == coeffs of (ch * h) for band-limited h
    m, b = basis_pair(10)
    rng = np.random.default_rng(3)
    ch = rng.normal(size=m.n_vertices)
    X = multiplication_operator(b, ch)
    coeffs = rng.normal(size=10)
    h = b.phi @ coeffs
    want = b.pinv() @ (ch * h)
    np.testing.assert_allclose(X @ coeffs, want, atol=1e-10)
    with pytest.raises(ArgumentError):
        multiplication_operator(b, ch[:-1])


def test_build_problem_shapes_and_validation():
    m, b = basis_pair(6)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(m.n_vertices, 5))
    prob = build_problem(b, b, f, f)
    assert prob.F.shape == (6, 5)
    assert len(prob.mult_ops_M) == 5
    with pytest.raises(ArgumentError):
        build_problem(b, b, f[:-1], f)
    with pytest.raises(ArgumentError):
        build_problem(b, b, f, f[:, :3])


def test_objective_value_oracle():
    # recompute every term from its definition at a random C
    prob = random_problem(k=5, d=3, seed=7)
    rng = np.random.default_rng(8)
    C = rng.normal(size=(5, 5))
    value, _ = fmap_objective(C, prob)

    w = prob.weights
    want = ((C @ prob.F - prob.G) ** 2).sum()
    lam_m, lam_n = prob.basis_M.lam, prob.basis_N.lam
    want += w.alpha * ((np.diag(lam_n) @ C - C @ np.diag(lam_m)) ** 2).sum()
    for X, Y in zip(prob.mult_ops_M, prob.mult_ops_N):
        want += w.beta * ((C @ X - Y @ C) ** 2).sum()
    pi = prob.basis_N.phi @ C @ prob.basis_M.pinv()
    pic = np.clip(pi, 0.0, 1.0)
    want += w.w_entropy * (-pic * np.log(pic + 1e-12)).sum()
    want += w.w_sum * (((pi.sum(axis=1) - 1.0) ** 2).sum()
                       + ((pi.sum(axis=0) - prob.n_N / prob.n_M) ** 2).sum())
    assert value == pytest.approx(want, rel=1e-10)


def test_objective_gradient_finite_differences():
    prob = random_problem(k=4, d=3, seed=2)
    rng = np.random.default_rng(4)
    C = 0.1 * rng.normal(size=(4, 4))
    _, grad = fmap_objective(C, prob)
    h = 1e-6
    for _ in range(10):
        i, j = rng.integers(0, 4, 2)
        E = np.zeros((4, 4))
        E[i, j] = h
        fp, _ = fmap_objective(C + E, prob)
        fm, _ = fmap_objective(C - E, prob)
        assert grad[i, j] == pytest.approx((fp - fm) / (2 * h),
                                           rel=1e-4, abs=1e-8)


def test_objective_rejects_bad_shape():
    prob = random_problem(k=4)
    with pytest.raises(ArgumentError):
        fmap_objective(np.zeros((3, 3)), prob)


def test_solve_identity_self_match():
    # matching a mesh against itself with informative features must give
    # a map whose recovered vertex correspondence is the identity
    m, b = basis_pair(8)
    rng = np.random.default_rng(5)
    f = b.phi @ rng.normal(size=(8, 12))  # band-limited random features
    prob = build_problem(b, b, f, f)
    fm = solve_fmap(prob)
    assert fm.converged
    pmap = recover_pointmap(fm.C, b, b, method="nearest")
    ident = (pmap.target_to_source == np.arange(m.n_vertices)).mean()
    assert ident >= 0.95


def test_solve_nonfinite_objective_keeps_last_valid_C(monkeypatch):
    # the objective turns NaN after the first evaluation: the solver
    # stops there, and the error carries the one C whose objective was
    # finite
    prob = random_problem(k=4, d=3, seed=2)
    evaluated = []

    def nan_after_first(C, problem):
        evaluated.append(np.array(C))
        if len(evaluated) == 1:
            return fmap_objective(C, problem)
        return np.nan, np.full(C.shape, np.nan)

    monkeypatch.setattr(funcmap, "fmap_objective", nan_after_first)
    with pytest.raises(NumericError, match="last valid C") as info:
        solve_fmap(prob)
    assert len(evaluated) == 2
    assert info.value.last_valid.shape == (4, 4)
    np.testing.assert_array_equal(info.value.last_valid, evaluated[0])


def test_solve_rank_deficient_quadratic():
    # with only the data and entropy terms and fewer features than basis
    # functions, the quadratic part is singular; the solver must still
    # whiten it and not end worse than the zero map
    w = FmapWeights(alpha=0.0, beta=0.0, w_sum=0.0)
    prob = random_problem(k=6, d=4, seed=3, weights=w)
    H, _, _ = prob.quadratic
    assert np.linalg.matrix_rank(H) < H.shape[0]
    fm = solve_fmap(prob)
    assert np.isfinite(fm.C).all()
    assert fm.final_objective == pytest.approx(fmap_objective(fm.C, prob)[0])
    assert fm.final_objective <= fmap_objective(np.zeros((6, 6)), prob)[0]


def test_recover_pointmap_methods_and_dense():
    m, b = basis_pair(6)
    C = np.eye(6)
    pa = recover_pointmap(C, b, b, method="argmax")
    pn = recover_pointmap(C, b, b, method="nearest")
    pi = np.clip(b.phi @ C @ b.pinv(), 0.0, 1.0)   # clamped dense Pi
    assert pa.n == pn.n == m.n_vertices
    assert (pa.confidence >= 0).all() and (pa.confidence <= 1).all()
    rows = np.arange(pn.n)
    np.testing.assert_array_equal(pa.target_to_source, np.argmax(pi, axis=1))
    np.testing.assert_allclose(pa.confidence, pi.max(axis=1), atol=1e-12)
    np.testing.assert_allclose(pn.confidence, pi[rows, pn.target_to_source],
                               atol=1e-12)
    with pytest.raises(ArgumentError):
        recover_pointmap(C, b, b, method="bogus")
    with pytest.raises(ArgumentError):
        recover_pointmap(np.eye(4), b, b)


def test_fmap_from_pointmap_roundtrip():
    # C of the identity vertex map is the identity in the shared basis
    m, b = basis_pair(7)
    C = fmap_from_pointmap(np.arange(m.n_vertices), b, b)
    np.testing.assert_allclose(C, np.eye(7), atol=1e-10)
    with pytest.raises(ArgumentError):
        fmap_from_pointmap(np.arange(m.n_vertices - 1), b, b)
    bad = np.arange(m.n_vertices)
    bad[0] = m.n_vertices + 5
    with pytest.raises(ArgumentError):
        fmap_from_pointmap(bad, b, b)


def test_save_load_map_roundtrip(tmp_path):
    m, b = basis_pair(5)
    rng = np.random.default_rng(9)
    fm_in = solve_fmap(random_problem(k=5, d=3, seed=9), max_iter=30)
    pmap = recover_pointmap(fm_in.C, b, b)
    p = tmp_path / "map.json"
    save_map(p, fm_in, pmap, FmapWeights(alpha=0.5))
    fm, pm, w = load_map(p)
    np.testing.assert_allclose(fm.C, fm_in.C)
    np.testing.assert_array_equal(pm.target_to_source, pmap.target_to_source)
    np.testing.assert_array_equal(pm.confidence, pmap.confidence)
    assert (fm.converged, fm.iterations, fm.final_objective) == \
        (fm_in.converged, fm_in.iterations, fm_in.final_objective)
    assert w["alpha"] == 0.5


def test_solve_partial_full_overlap(monkeypatch):
    # with the full target visible the mask should stay close to one
    m, b = basis_pair(6)
    rng = np.random.default_rng(11)
    f = b.phi @ rng.normal(size=(6, 8))
    prob = build_problem(b, b, f, f)
    sol = solve_partial(prob, f, m.edges())
    assert sol.eta.shape == (m.n_vertices,)
    assert (sol.eta >= 0).all() and (sol.eta <= 1).all()
    assert sol.matched_area_fraction > 0.8
    assert sol.rounds >= 1
    assert sol.converged is True
    # a single round cannot meet the round-to-round stop test
    monkeypatch.setattr(funcmap, "MAX_ROUNDS", 1)
    sol = solve_partial(prob, f, m.edges())
    assert sol.rounds == 1
    assert sol.converged is False
