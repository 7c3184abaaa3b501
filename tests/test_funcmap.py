import itertools
import json
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import meshcorr.funcmap as funcmap
import meshcorr.pipeline as pipeline
import meshcorr.spectral as spectral
from meshcorr.blas import ONE_BLAS_THREAD, openblas_thread_controls
from meshcorr.errors import ArgumentError, NumericError
from meshcorr.features import FeatureField
from meshcorr.mesh import TriMesh, cotangent_weights, vertex_areas
from meshcorr.spectral import eigenbasis
from meshcorr.funcmap import (FmapProblem, FmapWeights, build_problem,
                              fmap_from_pointmap, fmap_objective, load_map,
                              multiplication_operator, project_features,
                              recover_pointmap, save_map, solve_fmap,
                              solve_partial)

from conftest import (blas_threads, bumpy_grid, grid_patch, icosphere,
                      permuted, torus)


def wavy(x, y):
    return 0.3 * np.sin(3 * x) * np.cos(2 * y)


def basis_pair(k=8, mesh=None):
    m = grid_patch(8, 8, z_fn=wavy) if mesh is None else mesh
    b = eigenbasis(cotangent_weights(m), vertex_areas(m), k)
    return m, b


def random_problem(k=6, d=4, seed=0, weights=None, mesh=None):
    m, b = basis_pair(k, mesh)
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
    assert prob.source.spectral_features.shape == (6, 5)
    assert prob.source.mult_ops.shape == (5, 6, 6)
    assert prob.source.basis is b and prob.target.basis is b
    with pytest.raises(ArgumentError):
        build_problem(b, b, f[:-1], f)
    with pytest.raises(ArgumentError):
        build_problem(b, b, f, f[:, :3])
    src = prob.source
    for target, message in [
            (project_features(basis_pair(5)[1], f), "same k"),
            (replace(src, spectral_features=src.spectral_features[:-1]),
             "k rows"),
            (replace(src, mult_ops=src.mult_ops[:-1]), "equal length")]:
        with pytest.raises(ArgumentError, match=message):
            FmapProblem(src, target)


def test_quadratic_sums_every_term_whatever_its_weight():
    # with any of alpha, beta and w_sum at zero, (H, b, const) is the
    # data-only quadratic plus the own contribution of each other term,
    # that term's quadratic with its weight alone less the data's
    prob = random_problem()
    F, G = prob.source.spectral_features, prob.target.spectral_features
    data = (np.kron(np.eye(prob.k), F @ F.T), (G @ F.T).ravel(),
            float((G ** 2).sum()))
    weights = {"alpha": 0.3, "beta": 0.02, "w_sum": 0.05}
    zero = dict.fromkeys(weights, 0.0)

    def quadratic(kept):
        w = FmapWeights(**{**zero, **{n: weights[n] for n in kept}})
        return replace(prob, weights=w).quadratic

    own = {n: [part - d for part, d in zip(quadratic([n]), data)]
           for n in weights}
    for r in range(len(weights) + 1):
        for kept in itertools.combinations(weights, r):
            for i, part in enumerate(quadratic(kept)):
                want = data[i] + sum(own[n][i] for n in kept)
                np.testing.assert_allclose(
                    part, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                    err_msg=f"part {i} with {kept}")


def kron_quadratic(prob):
    """(H, b, const) assembled term by term with np.kron: the oracle of
    FmapProblem.quadratic."""
    k, w = prob.k, prob.weights
    bm, bn = prob.source.basis, prob.target.basis
    F, G = prob.source.spectral_features, prob.target.spectral_features
    X, Y = prob.source.mult_ops, prob.target.mult_ops
    eye = np.eye(k)
    H = np.kron(eye, F @ F.T)
    b = (G @ F.T).ravel()
    const = float((G ** 2).sum())
    diff = bn.lam[:, None] - bm.lam[None, :]
    H[np.diag_indices_from(H)] += w.alpha * (diff ** 2).ravel()
    # sum_p A_p^T A_p with A_p = I kron X_p^T - Y_p kron I
    cross = np.einsum("pij,pab->iajb", Y, X).reshape(k * k, k * k)
    H += w.beta * (np.kron(eye, np.einsum("pij,pkj->ik", X, X))
                   + np.kron(np.einsum("pji,pjk->ik", Y, Y), eye)
                   - cross - cross.T)
    P = bm.pinv()
    s, t = P.sum(axis=1), bn.phi.sum(axis=0)
    r = bn.n / bm.n
    H += w.w_sum * (np.kron(bn.phi.T @ bn.phi, np.outer(s, s))
                    + np.kron(np.outer(t, t), P @ P.T))
    b += w.w_sum * (1.0 + r) * np.outer(t, s).ravel()
    const += w.w_sum * (bn.n + r * r * bm.n)
    return H, b, const


@pytest.mark.parametrize("weights", [
    {"alpha": 0.3}, {"beta": 0.02}, {"w_sum": 0.05},
    {"alpha": 0.3, "beta": 0.02, "w_sum": 0.05}])
def test_quadratic_matches_kron_assembly(weights):
    # two meshes of different sizes, d = 3 operators per side
    k, rng = 6, np.random.default_rng(5)
    (m, bm), (n, bn) = (basis_pair(k, grid_patch(s, s, z_fn=wavy))
                        for s in (7, 9))
    assert m.n_vertices != n.n_vertices
    w = FmapWeights(**{**dict.fromkeys(("alpha", "beta", "w_sum"), 0.0),
                       **weights})
    prob = build_problem(bm, bn, rng.normal(size=(m.n_vertices, 3)),
                         rng.normal(size=(n.n_vertices, 3)), w)
    # operators that are not symmetric tell every index order apart
    prob = replace(prob, **{side: replace(
        getattr(prob, side), mult_ops=rng.normal(size=(3, k, k)))
        for side in ("source", "target")})
    for part, want in zip(prob.quadratic, kron_quadratic(prob)):
        np.testing.assert_allclose(part, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_problem_refuses_operators_that_are_not_k_by_k():
    prob = random_problem(k=6, d=3)
    for side in ("source", "target"):
        part = getattr(prob, side)
        for ops in (part.mult_ops[:, :5, :5], part.mult_ops[0]):
            with pytest.raises(ArgumentError, match="mult_ops"):
                replace(prob, **{side: replace(part, mult_ops=ops)})


def test_prepared_problem_is_build_problems(monkeypatch):
    # match_prepared solves the problem of the two records made in
    # preparation; build_problem projects the descriptor stack itself
    config = pipeline.RunConfig()
    meshes = [grid_patch(n, n, z_fn=wavy) for n in (8, 9)]
    source, target = (pipeline.prepare_for_matching(m, config)
                      for m in meshes)
    features = []
    for m in meshes:
        mesh, basis, _ = pipeline.prepare_mesh(m, spectral.DEFAULT_DESC_K,
                                               config.k)
        features.append(pipeline._standardize(pipeline.descriptor_stack(
            mesh, basis, config.descriptors), basis).values)
    built = []
    solve = pipeline.solve_fmap

    def recorded(problem, **kwargs):
        built.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(pipeline, "solve_fmap", recorded)
    pipeline.match_prepared(source, target, config)
    want = build_problem(source.basis, target.basis, *features,
                         config.weights)
    with ONE_BLAS_THREAD:  # as solve_fmap builds got.quadratic
        want.quadratic
    got, = built
    assert got.source is source and got.target is target
    for side in ("source", "target"):
        for name in ("spectral_features", "mult_ops"):
            assert np.array_equal(getattr(getattr(got, side), name),
                                  getattr(getattr(want, side), name)), name
    for part, want_part in zip(got.quadratic, want.quadratic):
        assert np.array_equal(part, want_part)


def blas_thread_counts():
    return [get() for get, _ in openblas_thread_controls()]


def test_match_meshes_output_does_not_depend_on_blas_threads():
    # each eigensolve, projection and solve runs at one BLAS thread,
    # whatever the caller set: through match_meshes, and through the
    # benchmark's prepare_for_matching and match_prepared
    config = pipeline.RunConfig()

    def benchmark_path(source, target):
        return pipeline.match_prepared(
            pipeline.prepare_for_matching(source, config),
            pipeline.prepare_for_matching(target, config), config)

    m = bumpy_grid(32)
    for match, source, target in [
            (lambda s, t: pipeline.match_meshes(s, t, config),
             grid_patch(10, 10, z_fn=wavy), grid_patch(12, 12, z_fn=wavy)),
            (benchmark_path, m, permuted(m))]:
        outputs = []
        for count in (1, 2):
            with blas_threads(count):
                result = match(source, target)
            outputs.append((result.fmap.C.tobytes(),
                            result.pmap.target_to_source.tobytes()))
        assert outputs[0] == outputs[1]


def test_match_meshes_restores_blas_threads_and_leaves_no_thread(
        monkeypatch):
    dense_eigh, during = spectral._dense_eigh, []

    def recorded(W, inv_sqrt, k):  # inside eigenbasis' pin
        during.append(blas_thread_counts())
        return dense_eigh(W, inv_sqrt, k)

    monkeypatch.setattr(spectral, "_dense_eigh", recorded)
    mesh = grid_patch(8, 8, z_fn=wavy)
    config = pipeline.RunConfig(descriptors=("hks",))
    threads = threading.active_count()
    with blas_threads(2):
        pipeline.match_meshes(mesh, mesh, config)
        assert blas_thread_counts() == [2, 2]
        assert threading.active_count() == threads
        # the target fails after the source's eigensolve: k > 9
        with pytest.raises(ArgumentError, match="exceeds mesh vertex count 9"):
            pipeline.match_meshes(mesh, grid_patch(3, 3), config)
        assert blas_thread_counts() == [2, 2]
        assert threading.active_count() == threads
    assert len(during) == 3 and all(c == [1, 1] for c in during)


def test_overlapping_blas_pins_restore_the_first_counts():
    # entries from several threads overlap; a lost update of the entry
    # count would leave one thread unpinned or the counts at 1
    inside, switch = [], sys.getswitchinterval()

    def enter_and_exit():
        for _ in range(200):
            with ONE_BLAS_THREAD:
                inside.append(blas_thread_counts())

    sys.setswitchinterval(1e-6)
    try:
        with blas_threads(2):
            workers = [threading.Thread(target=enter_and_exit)
                       for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert blas_thread_counts() == [2, 2]
    finally:
        sys.setswitchinterval(switch)
    assert len(inside) == 800 and all(c == [1, 1] for c in inside)


def test_match_meshes_raises_the_source_error_first(monkeypatch):
    eigenbasis_ = spectral.eigenbasis

    def failing_on_source(W, A, k):
        if A.areas.size == 64:
            raise NumericError("the source's eigensolve failed")
        return eigenbasis_(W, A, k)

    monkeypatch.setattr(spectral, "eigenbasis", failing_on_source)
    mesh = grid_patch(8, 8, z_fn=wavy)
    config = pipeline.RunConfig(descriptors=("hks",))
    # the target's preparation would fail too: k > 9
    with pytest.raises(NumericError, match="source's eigensolve"):
        pipeline.match_meshes(mesh, grid_patch(3, 3), config)
    with pytest.raises(ArgumentError, match="exceeds mesh vertex count 9"):
        pipeline.match_meshes(grid_patch(3, 3), mesh, config)


def test_external_features_match_at_any_mesh_or_feature_scale():
    # the mesh is normalized and the features standardized on the external
    # path too, so neither the mesh's units nor the features' change the map
    m = bumpy_grid(20)
    config = pipeline.RunConfig()
    prepared, basis, _ = pipeline.prepare_mesh(m, spectral.DEFAULT_DESC_K)
    f = pipeline.descriptor_stack(prepared, basis, config.descriptors).values
    maps = []
    for scale in (0.01, 1.0, 100.0):
        mesh = TriMesh(scale * m.vertices, m.triangles)
        for feature_scale in (1e-3, 1.0, 1e3):
            field = FeatureField(feature_scale * f)
            maps.append(pipeline.match_meshes(mesh, mesh, config, field,
                                              field).pmap.target_to_source)
    assert all(np.array_equal(match, maps[0]) for match in maps)
    assert np.array_equal(maps[0], np.arange(m.n_vertices))


def test_flat_grid_matches_its_permuted_copies():
    # posenc's z and cos(0) columns are constant on a flat mesh; scaled to
    # full weight, their roundoff would make the map depend on vertex order
    m = grid_patch(30, 30)
    for seed in range(4):
        result = pipeline.match_meshes(m, permuted(m, seed),
                                       pipeline.RunConfig())
        truth = np.random.default_rng(seed).permutation(m.n_vertices)
        identity = (result.pmap.target_to_source == truth).mean()
        assert identity >= 0.95, (seed, identity)


def test_external_feature_rows_must_fit_the_mesh():
    mesh = grid_patch(10, 10, z_fn=wavy)
    f = FeatureField(np.random.default_rng(0).random((mesh.n_vertices, 4)))
    extra = FeatureField(np.random.default_rng(0).random((101, 4)))
    config = pipeline.RunConfig()
    for source, target in ((extra, f), (f, extra)):
        with pytest.raises(ArgumentError,
                           match="feature rows 101 != vertex count 100"):
            pipeline.match_meshes(mesh, mesh, config, source, target)


@pytest.mark.parametrize("mesh", [lambda: torus(32, 32),
                                  lambda: icosphere(3)],
                         ids=["torus1024", "sphere642"])
def test_low_rank_external_features_are_refused(mesh):
    # HKS is invariant under these meshes' symmetries, so it projects onto
    # few eigenfunctions, and inside repeated eigenvalues no term pins C
    m = mesh()
    config = pipeline.RunConfig()
    f = spectral.hks(pipeline.prepare_mesh(m, spectral.DEFAULT_DESC_K)[1], 16)
    with pytest.raises(NumericError, match="directions of C are unconstrained"):
        pipeline.match_meshes(m, m, config, f, f)


def with_zero_area_triangle(m):
    """``m`` plus a triangle over its first three vertices, on one line."""
    return TriMesh(m.vertices, np.vstack([m.triangles, [[0, 1, 2]]]))


def test_source_warning_reaches_the_caller():
    source = with_zero_area_triangle(grid_patch(8, 8, z_fn=wavy))
    target = grid_patch(8, 8, z_fn=wavy)
    config = pipeline.RunConfig(descriptors=("hks",))
    threads, counts = threading.active_count(), blas_thread_counts()
    with pytest.warns(UserWarning, match="1 zero-area triangles"):
        pipeline.match_meshes(source, target, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="1 zero-area triangles"):
            pipeline.match_meshes(source, target, config)
    assert blas_thread_counts() == counts
    assert threading.active_count() == threads


def entropy_blocks_problem(k, seed):
    """A problem whose 210 target rows fill one entropy block and part of
    a second, with the entropy weighted up so its share of the value and
    the gradient shows."""
    m = grid_patch(15, 14, z_fn=wavy)
    rows = funcmap.ENTROPY_BLOCK // m.n_vertices   # per block
    assert rows < m.n_vertices and m.n_vertices % rows
    return random_problem(k, 3, seed, FmapWeights(w_entropy=1.0), m)


def dense_pi(prob, C):
    return prob.target.basis.phi @ C @ prob.source.basis.pinv()


def test_objective_value_oracle():
    # recompute every term from its definition at a random C, on one
    # entropy block and on several whose Pi crosses both clamp bounds
    rng = np.random.default_rng(8)
    cases = [(random_problem(k=5, d=3, seed=7), rng.normal(size=(5, 5))),
             (entropy_blocks_problem(k=5, seed=7),
              20.0 * rng.normal(size=(5, 5)))]
    pi = dense_pi(*cases[1])
    assert (pi < 0.0).any() and (pi > 1.0).any()
    for prob, C in cases:
        value, _ = fmap_objective(C, prob)

        w = prob.weights
        src, tgt = prob.source, prob.target
        want = ((C @ src.spectral_features - tgt.spectral_features)
                ** 2).sum()
        lam_m, lam_n = src.basis.lam, tgt.basis.lam
        want += w.alpha * ((np.diag(lam_n) @ C
                            - C @ np.diag(lam_m)) ** 2).sum()
        for X, Y in zip(src.mult_ops, tgt.mult_ops):
            want += w.beta * ((C @ X - Y @ C) ** 2).sum()
        pi = dense_pi(prob, C)
        pic = np.clip(pi, 0.0, 1.0)
        want += w.w_entropy * (-pic * np.log(pic + 1e-12)).sum()
        want += w.w_sum * (((pi.sum(axis=1) - 1.0) ** 2).sum()
                           + ((pi.sum(axis=0) - tgt.basis.n / src.basis.n)
                              ** 2).sum())
        assert value == pytest.approx(want, rel=1e-10)


def test_objective_gradient_finite_differences():
    # one entropy block, then several whose Pi crosses both clamp bounds
    for prob, scale in [(random_problem(k=4, d=3, seed=2), 0.1),
                        (entropy_blocks_problem(k=4, seed=2), 20.0)]:
        rng = np.random.default_rng(4)
        C = scale * rng.normal(size=(4, 4))
        if scale > 1.0:
            pi = dense_pi(prob, C)
            assert (pi < 0.0).any() and (pi > 1.0).any()
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


def whitened(prob):
    """(fun, y0, to_C): prob's objective in y = L^T vec(C), as
    ``_minimize`` takes it, and the quadratic part's minimizer in y."""
    to_C, lower = funcmap._whitening(prob)

    def fun(y):
        value, grad = fmap_objective(to_C(y), prob)
        return value, lower(grad.ravel())

    return fun, lower(prob.quadratic[1]), to_C


def test_solve_reports_unconverged_at_max_iter():
    # L-BFGS-B on the entropy-weighted objective needs more than one
    # iteration from the quadratic's minimizer; stopped after one, it
    # reports that it did not converge
    prob = random_problem(k=4, d=3, seed=2, weights=FmapWeights(w_entropy=1e-5))
    fun, y0, to_C = whitened(prob)
    assert funcmap._minimize(fun, y0, to_C, funcmap.DEFAULT_MAX_ITER).nit > 1
    res = funcmap._minimize(fun, y0, to_C, 1)
    assert not res.success
    assert res.nit == 1


def test_solve_refuses_an_entropy_weight():
    # the full solve is the quadratic part's closed form; the entropy
    # term is fmap_objective's and solve_partial's
    prob = random_problem(k=4, d=3, seed=2, weights=FmapWeights(w_entropy=1e-5))
    with pytest.raises(ArgumentError, match="w_entropy"):
        solve_fmap(prob)


def test_run_config_refuses_an_entropy_weight_before_any_eigensolve(
        monkeypatch):
    asked = []
    monkeypatch.setattr(spectral, "eigenbasis",
                        lambda W, A, k: asked.append(k))
    m = grid_patch(8, 8, z_fn=wavy)
    with pytest.raises(ArgumentError, match="w_entropy 0, got 1e-05"):
        pipeline.match_meshes(m, m, pipeline.RunConfig(
            weights=FmapWeights(w_entropy=1e-5)))
    assert asked == []


def test_solve_without_entropy_is_the_closed_form(monkeypatch):
    # the quadratic part alone: its minimizer, returned with no optimizer
    # call, is where L-BFGS-B started from it stops, to roundoff
    config = pipeline.RunConfig(weights=FmapWeights(w_entropy=0.0))
    prob = FmapProblem(*(pipeline.prepare_for_matching(
        grid_patch(n, n, z_fn=wavy), config) for n in (8, 10)),
        config.weights)
    fun, y0, to_C = whitened(prob)
    iterated = funcmap._minimize(fun, y0, to_C, funcmap.DEFAULT_MAX_ITER)
    assert iterated.success

    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer was called")

    monkeypatch.setattr(funcmap.scipy.optimize, "minimize", no_optimizer)
    fm = solve_fmap(prob)
    assert fm.converged is True and fm.iterations == 0
    assert fm.final_objective == fmap_objective(fm.C, prob)[0]
    assert fm.final_objective == pytest.approx(iterated.fun, rel=1e-12)
    C = to_C(iterated.x)
    np.testing.assert_allclose(fm.C, C, rtol=0, atol=1e-6 * np.abs(C).max())


def test_default_match_never_reads_the_soft_map(monkeypatch):
    # the default solve is the quadratic's closed form: no n_N x n_M entry
    # of Pi is read, so a match stays O(n k) in memory and time
    def no_soft_map(*args):
        raise AssertionError("the default match read Pi")

    monkeypatch.setattr(funcmap, "_pi_rows", no_soft_map)
    config = pipeline.RunConfig()
    m = bumpy_grid(20)
    source, target = (pipeline.prepare_for_matching(mesh, config)
                      for mesh in (m, permuted(m)))
    fm = pipeline.match_prepared(source, target, config).fmap
    assert fm.iterations == 0 and fm.converged is True
    prob = FmapProblem(source, target, config.weights)
    to_C, lower = funcmap._whitening(prob)
    np.testing.assert_allclose(fm.C, to_C(lower(prob.quadratic[1])),
                               rtol=0, atol=1e-12)


def test_solve_refuses_rank_deficient_quadratic():
    # with only the data term and 4 features for 6 basis functions,
    # H = I kron F F^T leaves 6 x 2 directions of C free; only the
    # whitening ridge would pin them, so the solve refuses
    w = FmapWeights(alpha=0.0, beta=0.0, w_sum=0.0)
    prob = random_problem(k=6, d=4, seed=3, weights=w)
    H, _, _ = prob.quadratic
    assert np.linalg.matrix_rank(H) == 24
    with pytest.raises(NumericError, match="12 of 36 directions"):
        solve_fmap(prob)


@pytest.mark.parametrize("weight", ["alpha", "beta", "w_sum"])
def test_both_solves_refuse_an_overflowing_weight(weight):
    # 1e308 is a valid weight, but it overflows H to inf; _whitening,
    # which both solves share, refuses that before factoring, with no
    # warning (a warning fails the test)
    m, b = basis_pair(6)
    f = b.phi @ np.random.default_rng(11).normal(size=(6, 8))
    prob = build_problem(b, b, f, f, FmapWeights(**{weight: 1e308}))
    assert not np.isfinite(prob.quadratic[0]).all()
    with pytest.raises(NumericError, match="the objective overflows"):
        solve_fmap(prob)
    with pytest.raises(NumericError, match="the objective overflows"):
        solve_partial(prob, f, m.edges())


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
    # 210 target rows are a 156-row block and a 54-row one; with a large C
    # most rows clamp several entries to exactly 1, and ties go to the
    # smallest index as in the dense argmax
    m, b = basis_pair(10, grid_patch(15, 14, z_fn=wavy))
    C = 20.0 * np.eye(10) + np.random.default_rng(0).normal(size=(10, 10))
    pi = np.clip(b.phi @ C @ b.pinv(), 0.0, 1.0)
    assert ((pi == 1.0).sum(axis=1) > 1).sum() > 100
    pa = recover_pointmap(C, b, b, method="argmax")
    np.testing.assert_array_equal(pa.target_to_source, np.argmax(pi, axis=1))
    np.testing.assert_allclose(pa.confidence, pi.max(axis=1), atol=1e-12)


def test_no_dense_pi_buffer():
    # neither the entropy nor argmax recovery holds an n_N x n_M array
    m = grid_patch(30, 30, z_fn=wavy)
    prob = random_problem(10, 3, 5, mesh=m)
    C = np.eye(10)
    prob.quadratic                   # cached, so built outside the trace
    dense = m.n_vertices ** 2 * 8
    for run in (lambda: fmap_objective(C, prob),
                lambda: recover_pointmap(C, prob.source.basis,
                                         prob.target.basis, method="argmax")):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense, (peak, dense)


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
    fm_in = solve_fmap(random_problem(k=5, d=3, seed=9))
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
    doc = json.loads(p.read_text())
    del doc["weights"]
    p.write_text(json.dumps(doc))
    assert load_map(p)[2] == {}


def test_solve_partial_full_overlap():
    # with the full target visible the mask should stay close to one
    m, b = basis_pair(6)
    rng = np.random.default_rng(11)
    f = b.phi @ rng.normal(size=(6, 8))
    prob = build_problem(b, b, f, f)
    sol = solve_partial(prob, f, m.edges())
    assert sol.eta.shape == (m.n_vertices,)
    assert (sol.eta >= 0).all() and (sol.eta <= 1).all()
    assert sol.matched_area_fraction > 0.8
    assert sol.converged is True


def smooth_features(mesh):
    x, y, _ = mesh.vertices.T
    return np.column_stack([np.sin(3 * x), np.cos(2 * y), x * y, x - y])


def corner_cut():
    """A problem whose source is the lower-left quarter of its target
    grid (the same vertices, spacing and height field), with the target
    features and edges that solve_partial takes."""
    full = grid_patch(9, 9, z_fn=wavy)
    part = grid_patch(5, 5, scale=0.5, z_fn=wavy)
    bases = [eigenbasis(cotangent_weights(m), vertex_areas(m), 6)
             for m in (part, full)]
    g = smooth_features(full)
    return build_problem(*bases, smooth_features(part), g), g, full.edges()


def masked_problem(prob, g, eta):
    """prob with G = Phi_N^+ Diag(eta) g."""
    G = prob.target.basis.pinv() @ (eta[:, None] * g)
    return replace(prob, target=replace(prob.target, spectral_features=G))


def partial_objective(prob, g, edges, C, eta):
    """J(C, eta) from its definition in solve_partial's docstring."""
    masked = masked_problem(prob, g, eta)
    a = prob.target.basis.areas.areas
    i, j = edges.T
    return (fmap_objective(C, masked)[0]
            + funcmap.W_AREA * (eta @ a - prob.source.basis.areas.total) ** 2
            + funcmap.W_MS * (0.5 * (a[i] + a[j]) * (eta[i] - eta[j]) ** 2).sum()
            - funcmap.W_ETA * (eta * np.log(eta + 1e-12)).sum())


def test_solve_partial_objective_is_J():
    prob, g, edges = corner_cut()
    sol = solve_partial(prob, g, edges)
    assert sol.converged is True and sol.reason
    assert sol.iterations >= 1 and sol.rounds == 1
    assert sol.objective == pytest.approx(
        partial_objective(prob, g, edges, sol.C, sol.eta), rel=1e-12)
    ratio = prob.source.basis.areas.total / prob.target.basis.areas.total
    assert sol.matched_area_fraction == pytest.approx(ratio, abs=0.15)

    # the start point: the uniform mask at the area ratio, and the
    # minimizer of the quadratic part of the objective under that mask
    eta0 = np.full(prob.target.basis.n, ratio)
    H, b, _ = masked_problem(prob, g, eta0).quadratic
    C0 = np.linalg.solve(H, b).reshape(prob.k, prob.k)
    assert sol.objective <= partial_objective(prob, g, edges, C0, eta0)


def test_solve_nonfinite_objective_keeps_last_valid_C(monkeypatch):
    # the objective turns NaN after the first evaluation: the solver
    # stops there, and the error carries the one C whose objective was
    # finite
    prob, g, edges = corner_cut()
    evaluated, objective = [], funcmap.fmap_objective

    def nan_after_first(C, problem):
        evaluated.append(np.array(C))
        if len(evaluated) == 1:
            return objective(C, problem)
        return np.nan, np.full(C.shape, np.nan)

    monkeypatch.setattr(funcmap, "fmap_objective", nan_after_first)
    with pytest.raises(NumericError, match="last valid C") as info:
        solve_partial(prob, g, edges)
    assert len(evaluated) == 2
    assert info.value.last_valid.shape == (prob.k, prob.k)
    np.testing.assert_array_equal(info.value.last_valid, evaluated[0])


def test_solve_partial_runs_at_one_blas_thread(monkeypatch):
    # the caller's counts come back, and (C, eta) do not depend on them
    objective, during = funcmap.fmap_objective, []

    def recorded(C, problem):
        during.append(blas_thread_counts())
        return objective(C, problem)

    monkeypatch.setattr(funcmap, "fmap_objective", recorded)
    prob, g, edges = corner_cut()
    solutions = []
    for count in (1, 2):
        with blas_threads(count):
            solutions.append(solve_partial(prob, g, edges))
            assert blas_thread_counts() == [count, count]
    assert during and all(c == [1, 1] for c in during)
    assert np.array_equal(solutions[0].C, solutions[1].C)
    assert np.array_equal(solutions[0].eta, solutions[1].eta)


def test_solve_partial_larger_source_saturates():
    # a source with more area than the target: every target vertex is
    # matched
    m, b = basis_pair(6)
    big = TriMesh(1.2 * m.vertices, m.triangles)
    bb = eigenbasis(cotangent_weights(big), vertex_areas(big), 6)
    prob = build_problem(bb, b, smooth_features(big), smooth_features(m))
    with pytest.warns(UserWarning, match="mask will saturate"):
        sol = solve_partial(prob, smooth_features(m), m.edges())
    assert sol.eta.min() == 1.0
    assert sol.matched_area_fraction == pytest.approx(1.0)
