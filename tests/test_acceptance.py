"""End-to-end acceptance checks, one test per criterion so the verbose
pytest report gives one pass/fail line for each."""

import csv
import itertools
import time

import numpy as np
import pytest

from meshcorr.errors import ArgumentError
from meshcorr.evalbench import (auc, benchmark_category, geodesic_error,
                                load_dataset, write_results_csv)
from meshcorr.features import FeatureField
from meshcorr.funcmap import (FmapProblem, FmapWeights, build_problem,
                              fmap_from_pointmap, fmap_objective,
                              recover_pointmap, solve_fmap, solve_partial)
from meshcorr.geodesics import (SemanticGroups, geodesic_matrix,
                                min_cost_assignment, save_groups,
                                semantic_distance)
from meshcorr.mesh import TriMesh, cotangent_weights, vertex_areas
from meshcorr.meshio import save_mesh
from meshcorr.funcmap import PointMap
from meshcorr.pipeline import RunConfig, match_meshes, prepare_for_matching
from meshcorr.spectral import eigenbasis, positional_encoding
from meshcorr.transfer import transfer_colors

from conftest import (FIXTURE_MESHES, all_pairs_geodesics, bumpy_grid,
                      grid_patch, icosphere, octant_groups, rotation_matrix,
                      sign_flipped, torus)


def basis_of(mesh, k):
    return eigenbasis(cotangent_weights(mesh), vertex_areas(mesh), k)


def identity_fraction(pmap):
    return (pmap.target_to_source == np.arange(pmap.n)).mean()


def mean_err_identity_truth(pmap, mesh, groups=None):
    """Mean normalized geodesic error when the ground truth map is the
    identity (same connectivity on both sides)."""
    groups = groups if groups is not None else octant_groups(mesh)
    geo = geodesic_matrix(mesh)
    err = geodesic_error(pmap.target_to_source, groups, groups, geo,
                         vertex_areas(mesh))
    return float(np.nanmean(err))


# ------------------------------------------------------------ criterion 1

def test_criterion_01_spectral_invariants():
    assert len(FIXTURE_MESHES) >= 10
    for name, build in FIXTURE_MESHES.items():
        m = build()
        assert 100 <= m.n_vertices <= 2500, name
        k = min(128, m.n_vertices)
        start = time.perf_counter()
        b = basis_of(m, k)
        elapsed = time.perf_counter() - start
        a = b.areas.areas
        gram = b.phi.T @ (a[:, None] * b.phi)
        assert np.abs(gram - np.eye(k)).max() <= 1e-6, name
        assert b.lam[0] <= 1e-8 * b.lam[-1], name
        W = cotangent_weights(m)
        resid = (-W) @ b.phi - (a[:, None] * b.phi) * b.lam[None, :]
        scale = np.maximum(1.0, b.lam) * np.linalg.norm(a[:, None] * b.phi,
                                                        axis=0)
        assert (np.linalg.norm(resid, axis=0) <= 1e-6 * scale).all(), name
        assert elapsed <= 5.0, f"{name}: eigendecomposition took {elapsed:.2f}s"


# ------------------------------------------------------------ criterion 2

def _term_problems():
    m = bumpy_grid(8)
    b = basis_of(m, 10)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(m.n_vertices, 6))
    g = rng.normal(size=(m.n_vertices, 6))

    def prob(**kw):
        w = dict(alpha=0.0, beta=0.0, w_entropy=0.0, w_sum=0.0)
        w.update(kw)
        return build_problem(b, b, f, g, FmapWeights(**w))

    zero = prob()
    return b, zero, {
        "data": zero,
        "isometry": prob(alpha=1e-2),
        "pointwise": prob(beta=1e-4),
        "entropy": prob(w_entropy=1e-5),
        "sums": prob(w_sum=1e-3),
    }


def _entropy_interior(C, basis):
    pi = basis.phi @ C @ (basis.phi.T * basis.areas.areas)
    return (pi > 0.0) & (pi < 1.0)


def test_criterion_02_gradient_oracle():
    h = 1e-5
    basis, zero, problems = _term_problems()
    rng = np.random.default_rng(1)
    k = 10
    for name, prob in problems.items():
        checked = total = 0
        for _ in range(20):
            C = 0.3 * rng.normal(size=(k, k))
            v0, g0 = fmap_objective(C, zero)
            v1, g1 = fmap_objective(C, prob)
            grad = g1 - g0 if name != "data" else g1
            for i, j in itertools.product(range(k), range(k)):
                total += 1
                E = np.zeros((k, k))
                E[i, j] = h
                if name == "entropy":
                    # the clamp is non-smooth; skip components whose
                    # clamped set changes inside the stencil
                    ma = _entropy_interior(C + E, basis)
                    mb = _entropy_interior(C - E, basis)
                    if not np.array_equal(ma, mb):
                        continue
                fp = fmap_objective(C + E, prob)[0]
                fm = fmap_objective(C - E, prob)[0]
                if name != "data":
                    fp -= fmap_objective(C + E, zero)[0]
                    fm -= fmap_objective(C - E, zero)[0]
                fd = (fp - fm) / (2 * h)
                assert abs(grad[i, j] - fd) <= 1e-4 * max(1.0, abs(fd)), \
                    f"{name} grad[{i},{j}]: analytic {grad[i, j]}, fd {fd}"
                checked += 1
        assert checked >= 0.8 * total, name  # the kink skip must stay rare


# ------------------------------------------------------------ criterion 3

def test_criterion_03_self_matching_all_fixtures():
    for name, build in FIXTURE_MESHES.items():
        m = build()
        result = match_meshes(m, m, RunConfig())
        ident = identity_fraction(result.pmap)
        err = mean_err_identity_truth(result.pmap, m)
        assert ident >= 0.95, f"{name}: identity fraction {ident:.3f}"
        assert err <= 1.0, f"{name}: mean err {err:.3f}"


# ------------------------------------------------------------ criterion 4

def test_criterion_04_isometry_matching():
    # rotation built from axis flips and a quarter turn: an exact
    # isometry that also maps the bounding box onto itself, so the
    # box-based normalization treats both meshes identically
    R = rotation_matrix([0, 0, 1], np.pi / 2) @ rotation_matrix(
        [1, 0, 0], np.pi)
    for m in (bumpy_grid(20), bumpy_grid(32)):
        rotated = TriMesh(m.vertices @ R.T, m.triangles)
        config = RunConfig(descriptors=("hks", "wks"))
        result = match_meshes(m, rotated, config)
        groups = octant_groups(m)
        geo = geodesic_matrix(m)
        err = geodesic_error(result.pmap.target_to_source, groups, groups,
                             geo, vertex_areas(m))
        assert float(np.nanmean(err)) <= 1.0


# ------------------------------------------------------------ criterion 5

def test_criterion_05_full_rank_roundtrip():
    m = grid_patch(15, 10, z_fn=lambda x, y: 0.2 * np.sin(4 * x) * y)
    n = m.n_vertices
    assert n == 150
    b = basis_of(m, n)
    rng = np.random.default_rng(4)
    perm = rng.permutation(n)
    C = fmap_from_pointmap(perm, b, b)
    for method in ("argmax", "nearest"):
        back = recover_pointmap(C, b, b, method=method)
        np.testing.assert_array_equal(back.target_to_source, perm)


# ------------------------------------------------------------ criterion 6

def clamped_entropy(C, basis_M, basis_N):
    pi = basis_N.phi @ C @ basis_M.pinv()
    p = np.clip(pi, 0.0, 1.0)
    return float(-(p * np.log(p + 1e-12)).sum())


def test_criterion_06_regularizer_reduces_entropy():
    src, tgt = bumpy_grid(20), bumpy_grid(24)
    config_on = RunConfig()
    config_off = RunConfig(weights=FmapWeights(w_entropy=0.0, w_sum=0.0))
    vals = {}
    for tag, config in (("on", config_on), ("off", config_off)):
        prep_s = prepare_for_matching(src, config)
        prep_t = prepare_for_matching(tgt, config)
        fm = solve_fmap(FmapProblem(prep_s, prep_t, config.weights))
        vals[tag] = clamped_entropy(fm.C, prep_s.basis, prep_t.basis)
    delta = vals["off"] - vals["on"]
    print(f"clamped-map entropy: regularized {vals['on']:.1f}, "
          f"unregularized {vals['off']:.1f}, reduction {delta:.1f}")
    assert vals["on"] < vals["off"], vals


# ------------------------------------------------------------ criterion 7

def test_criterion_07_assignment_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        if min(m, n) > 6:
            n = 6
        cost = rng.uniform(0, 10, size=(m, n))
        _, total = min_cost_assignment(cost)
        best = np.inf
        small, axis = (m, 0) if m <= n else (n, 1)
        big = max(m, n)
        for perm in itertools.permutations(range(big), small):
            s = (sum(cost[i, j] for i, j in enumerate(perm)) if axis == 0
                 else sum(cost[i, j] for j, i in enumerate(perm)))
            best = min(best, s)
        assert abs(total - best) <= 1e-9


# ------------------------------------------------------------ criterion 8

def test_criterion_08_semantic_distance():
    m = grid_patch(6, 6)
    geo = geodesic_matrix(m)
    d = all_pairs_geodesics(geo)
    rng = np.random.default_rng(8)
    n = m.n_vertices
    for _ in range(100):
        picks = rng.choice(n, size=10, replace=False)
        ga = picks[:int(rng.integers(1, 6))]
        gb = picks[5:5 + int(rng.integers(1, 6))]
        labels = np.full(n, 2)
        labels[gb] = 1
        labels[ga] = 0
        groups = SemanticGroups(labels)
        assert semantic_distance(groups, geo, 0, 0) == 0.0
        dab = semantic_distance(groups, geo, 0, 1)
        dba = semantic_distance(groups, geo, 1, 0)
        assert abs(dab - dba) <= 1e-12
        # brute-force optimal injection of the smaller group
        cost = d[np.ix_(ga, gb)]
        if len(ga) > len(gb):
            cost = cost.T
        best = min(sum(cost[i, j] for i, j in enumerate(p))
                   for p in itertools.permutations(range(cost.shape[1]),
                                                   cost.shape[0]))
        assert dab == pytest.approx(best / min(len(ga), len(gb)))


# ------------------------------------------------------------ criterion 9

def test_criterion_09_auc_calibration():
    _, area = auc(np.zeros(500))
    assert area == 1.0
    rng = np.random.default_rng(9)
    _, area = auc(rng.uniform(0.0, 25.0, size=10_000))
    assert area == pytest.approx(0.5, abs=0.02)


# ------------------------------------------------------------ criterion 10

def _timed_solve(mesh):
    config = RunConfig(descriptors=("hks", "posenc"))
    prep = prepare_for_matching(mesh, config)
    assert len(prep.mult_ops) <= 64
    prob = FmapProblem(prep, prep, config.weights)
    start = time.perf_counter()
    fm = solve_fmap(prob)
    return time.perf_counter() - start, fm


def test_criterion_10_runtime_envelope():
    t500, fm = _timed_solve(torus(25, 20))
    assert t500 <= 3.0, f"500-vertex solve took {t500:.2f}s"
    t2000, fm = _timed_solve(torus(50, 40))
    assert t2000 <= 10.0, f"2000-vertex solve took {t2000:.2f}s"
    print(f"solve times: 500 verts {t500:.2f}s, 2000 verts {t2000:.2f}s")


# ------------------------------------------------------------ criterion 11

def test_criterion_11_benchmark_protocol(tmp_path):
    templates = [bumpy_grid(10),
                 grid_patch(10, 10, z_fn=lambda x, y: 0.3 * np.sin(4 * x + 1)
                            * np.cos(3 * y)),
                 grid_patch(10, 10, z_fn=lambda x, y: 0.2 * np.cos(5 * x)
                            * np.sin(2 * y + 0.3))]
    root = tmp_path / "data"
    for i, m in enumerate(templates):
        d = root / "grids" / f"g{i}"
        d.mkdir(parents=True)
        save_mesh(d / "mesh.ply", m)
        save_mesh(d / "remeshed.ply", m)
        save_groups(d / "groups.json", octant_groups(m))
    instances = load_dataset(root)

    config = RunConfig(descriptors=("hks",), max_iter=150)

    def matcher(src, tgt):
        return match_meshes(src.remeshed, tgt.remeshed, config).pmap

    results, agg = benchmark_category(instances, "grids", matcher, jobs=1)
    assert len(results) == 9
    ok = [r for r in results if not r.failed]
    assert agg["pairs"] == 9
    assert agg["err_mean"] == pytest.approx(np.mean([r.err_mean for r in ok]))
    assert agg["auc_mean"] == pytest.approx(np.mean([r.auc for r in ok]))

    results8, _ = benchmark_category(instances, "grids", matcher, jobs=8)

    def rows_without_wall(res, path):
        write_results_csv(path, res)
        with open(path) as fh:
            return [row[:-1] for row in csv.reader(fh)]

    rows1 = rows_without_wall(results, tmp_path / "r1.csv")
    rows8 = rows_without_wall(results8, tmp_path / "r8.csv")
    assert rows1 == rows8


# ------------------------------------------------------------ criterion 12

def submesh(mesh, keep):
    idx = np.flatnonzero(keep)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[idx] = np.arange(len(idx))
    tris = mesh.triangles[keep[mesh.triangles].all(axis=1)]
    return TriMesh(mesh.vertices[idx], remap[tris])


def _partial_case(full, keep, flip=False):
    part = submesh(full, keep)
    bs = basis_of(part, 10)
    bt = basis_of(full, 10)
    if flip:  # columns negated, as an eigensolver could return them
        bs, bt = sign_flipped(bs, 0)[0], sign_flipped(bt, 1)[0]
    f = positional_encoding(part, 6).values
    g = positional_encoding(full, 6).values
    prob = build_problem(bs, bt, f, g, FmapWeights())
    sol = solve_partial(prob, g, full.edges())
    ratio = vertex_areas(part).total / vertex_areas(full).total
    return sol, ratio


def test_criterion_12_partial_matching():
    sphere = icosphere(3)
    cuts = (sphere.vertices[:, 2] > -0.05, sphere.vertices[:, 0] > 0.0,
            sphere.vertices[:, 1] > -0.3)
    solutions = [_partial_case(sphere, keep) for keep in cuts]
    for sol, ratio in solutions:
        fraction = sol.matched_area_fraction
        assert abs(fraction - ratio) <= 0.15, (fraction, ratio)
    sol, _ = _partial_case(sphere, np.ones(sphere.n_vertices, bool))
    assert sol.matched_area_fraction >= 0.9
    # the z-cut's mask does not depend on the eigenvectors' signs
    z, flipped = solutions[0][0], _partial_case(sphere, cuts[0], True)[0]
    assert np.array_equal(flipped.eta, z.eta)
    assert (flipped.objective, flipped.iterations) == (z.objective,
                                                      z.iterations)


# ------------------------------------------------------------ criterion 13

def test_criterion_13_color_transfer():
    # identity transfer preserves colors bitwise
    m = bumpy_grid(12)
    rng = np.random.default_rng(13)
    colors = rng.integers(0, 256, size=(m.n_vertices, 3)) / 255.0
    textured = m.with_colors(colors)
    plain = TriMesh(m.vertices, m.triangles)
    n = m.n_vertices
    ident = PointMap(np.arange(n), np.ones(n))
    out = transfer_colors(textured, plain, plain, ident)
    np.testing.assert_array_equal(out.colors, colors)

    # two-tone transfer through a computed map: any mis-colored vertex
    # must sit within one edge ring of the true tone boundary
    tone = (m.vertices[:, 0] > 0.5).astype(int)
    two_tone = np.where(tone[:, None], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    textured = m.with_colors(two_tone)
    result = match_meshes(m, m, RunConfig())
    out = transfer_colors(textured, plain, plain, result.pmap)
    got_tone = (out.colors[:, 0] > 0.5).astype(int)
    edges = m.edges()
    near_boundary = np.zeros(n, dtype=bool)
    crossing = tone[edges[:, 0]] != tone[edges[:, 1]]
    near_boundary[edges[crossing].ravel()] = True
    wrong = got_tone != tone
    assert (~wrong | near_boundary).all()
