import tracemalloc

import numpy as np
import pytest

import meshcorr.spectral as spectral
from meshcorr.blas import ONE_BLAS_THREAD, openblas_thread_controls
from meshcorr.errors import (ArgumentError, DegenerateGeometryError,
                             NumericError)
from meshcorr.mesh import (TriMesh, VertexAreas, cotangent_weights,
                           normalize_mesh, vertex_areas)
from meshcorr.pipeline import DESCRIPTOR_K, RunConfig, match_meshes
from meshcorr.spectral import (SpectralBasis, eigenbasis, hks,
                               positional_encoding, wks)

from conftest import (blas_threads, bumpy_grid, grid_patch, icosphere,
                      permuted, reference_eigenbasis, rotation_matrix,
                      torus)


def basis_of(mesh, k):
    return eigenbasis(cotangent_weights(mesh), vertex_areas(mesh), k)


def force(monkeypatch, solver):
    """Make ``eigenbasis`` take the dense or the Lanczos path at any n
    and k < n, through the constants its rule reads."""
    ratio, min_n = {"dense": (np.inf, np.inf), "lanczos": (1, 0)}[solver]
    monkeypatch.setattr(spectral, "LANCZOS_N_PER_K", ratio)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_N", min_n)


def union(*meshes):
    """The meshes side by side as one mesh, 3 units apart along x."""
    offsets = np.cumsum([0] + [m.n_vertices for m in meshes[:-1]])
    return TriMesh(np.vstack([m.vertices + [3.0 * i, 0.0, 0.0]
                              for i, m in enumerate(meshes)]),
                   np.vstack([m.triangles + o
                              for m, o in zip(meshes, offsets)]))


def assert_a_orthonormal(b):
    gram = b.phi.T @ (b.areas.areas[:, None] * b.phi)
    assert np.abs(gram - np.eye(b.k)).max() < 1e-10


def assert_eigen_residuals(W, A, b):
    for i in range(b.k):
        r = (-W) @ b.phi[:, i] - b.lam[i] * (A.areas * b.phi[:, i])
        scale = max(1.0, b.lam[i]) * np.linalg.norm(A.areas * b.phi[:, i])
        assert np.linalg.norm(r) <= 1e-6 * scale


def test_a_orthonormality(sphere2):
    assert_a_orthonormal(basis_of(sphere2, 20))


def test_first_eigenpair_is_constant_mode(sphere2):
    b = basis_of(sphere2, 10)
    assert b.lam[0] <= 1e-8 * b.lam[-1]
    assert np.ptp(b.phi[:, 0]) < 1e-6 * np.abs(b.phi[:, 0]).max()
    assert (np.diff(b.lam) >= -1e-10).all()


def test_sphere_spectrum_degeneracies():
    # Laplace-Beltrami spectrum of the unit sphere: l(l+1), multiplicity 2l+1
    b = basis_of(icosphere(3), 10)
    np.testing.assert_allclose(b.lam[1:4], 2.0, rtol=0.02)
    np.testing.assert_allclose(b.lam[4:9], 6.0, rtol=0.05)


def test_eigen_residual(sphere2):
    W = cotangent_weights(sphere2)
    A = vertex_areas(sphere2)
    assert_eigen_residuals(W, A, eigenbasis(W, A, 15))


def test_lanczos_solves_the_generalized_problem():
    # the Lanczos path solves the standard problem of S = A^-1/2 (-W)
    # A^-1/2; scaled back, its vectors solve (-W, A) and are A-orthonormal
    m = bumpy_grid(32)
    assert m.n_vertices >= max(spectral.LANCZOS_MIN_N,
                               spectral.LANCZOS_N_PER_K * 32)  # Lanczos
    W, A = cotangent_weights(m), vertex_areas(m)
    b = eigenbasis(W, A, 32)
    assert_eigen_residuals(W, A, b)
    assert_a_orthonormal(b)


def test_deterministic_signs(sphere2):
    b1 = basis_of(sphere2, 12)
    b2 = basis_of(sphere2, 12)
    np.testing.assert_array_equal(b1.phi, b2.phi)


def test_dense_and_sparse_paths_agree(monkeypatch):
    assert_paths_agree(monkeypatch, torus(18, 10), 8)


def test_dense_and_sparse_paths_agree_at_descriptor_size(monkeypatch):
    assert_paths_agree(monkeypatch, bumpy_grid(32), DESCRIPTOR_K)


def assert_paths_agree(monkeypatch, m, k):
    force(monkeypatch, "dense")
    b_dense = basis_of(m, k)
    force(monkeypatch, "lanczos")
    b_sparse = basis_of(m, k)
    np.testing.assert_allclose(b_sparse.lam, b_dense.lam, rtol=1e-8, atol=1e-10)
    # eigenspaces of the torus are degenerate, so compare the heat kernel
    # built from each basis instead of individual eigenvectors
    a = b_dense.areas.areas
    t = 1.0 / max(b_dense.lam[-1], 1.0)

    def kernel(b):
        return (b.phi * np.exp(-t * b.lam)) @ (b.phi.T * a)

    np.testing.assert_allclose(kernel(b_sparse), kernel(b_dense), atol=1e-8)


@pytest.mark.parametrize("mesh, k", [
    (lambda: permuted(bumpy_grid(24)), 128),
    (lambda: icosphere(3), 10),
    (lambda: icosphere(3), 128),
    (lambda: torus(18, 10), 8),
    (lambda: grid_patch(15, 10), 1),
    (lambda: grid_patch(15, 10), 75),
    (lambda: grid_patch(15, 10), 150),
], ids=["bumpy576-permuted", "sphere642-k10", "sphere642-k128", "torus180",
        "grid150-k1", "grid150-k75", "grid150-k-equals-n"])
def test_dense_path_equals_reference_formula(monkeypatch, mesh, k):
    # bit for bit: LAPACK gets the same matrix and one BLAS thread, so
    # degenerate eigenspaces (sphere, torus) come back as the same
    # vectors too
    force(monkeypatch, "dense")
    m = mesh()
    W, A = cotangent_weights(m), vertex_areas(m)
    b = eigenbasis(W, A, k)
    with ONE_BLAS_THREAD:
        phi, lam = reference_eigenbasis(W, A, k)
    assert np.array_equal(b.phi, phi)
    assert np.array_equal(b.lam, lam)


def test_eigenbasis_does_not_depend_on_blas_threads():
    # at two BLAS threads LAPACK would return other vectors of the
    # sphere's repeated eigenspaces; the caller's counts come back.
    # icosphere(2) takes the dense solve, whose vectors move with an
    # unpinned thread count (icosphere(3)'s Lanczos vectors did not)
    m = icosphere(2)
    W, A = cotangent_weights(m), vertex_areas(m)
    bases = []
    for count in (1, 2):
        with blas_threads(count):
            bases.append(eigenbasis(W, A, 10))
            assert [get() for get, _ in openblas_thread_controls()] \
                == [count, count]
    assert np.array_equal(bases[0].phi, bases[1].phi)
    assert np.array_equal(bases[0].lam, bases[1].lam)


@pytest.mark.parametrize("mesh, k, solver", [
    (lambda: bumpy_grid(19), 32, "_lanczos_eigh"),
    (lambda: bumpy_grid(24), 32, "_lanczos_eigh"),
    (lambda: icosphere(3), 10, "_lanczos_eigh"),
    (lambda: grid_patch(12, 12), 10, "_dense_eigh"),
    (lambda: bumpy_grid(24), 289, "_dense_eigh"),
], ids=["bumpy361-k32", "bumpy576-k32", "sphere642-k10", "grid144-k10",
        "bumpy576-k-above-half-n"])
def test_rule_takes_the_faster_solver(monkeypatch, mesh, k, solver):
    # the crossover measured in the module docstring: Lanczos from
    # n = 300 and n = 10 k, dense below and for every k > n/2
    calls = []
    for name in ("_dense_eigh", "_lanczos_eigh"):
        def spy(S, k, name=name, solve=getattr(spectral, name)):
            calls.append(name)
            return solve(S, k)
        monkeypatch.setattr(spectral, name, spy)
    basis_of(mesh(), k)
    assert calls == [solver]


def test_dense_path_holds_one_n_by_n_buffer():
    m = grid_patch(30, 30)
    assert m.n_vertices < spectral.LANCZOS_N_PER_K * 128  # dense
    W, A = cotangent_weights(m), vertex_areas(m)
    W_before, a_before = W.copy(), A.areas.copy()
    n = m.n_vertices
    tracemalloc.start()
    try:
        eigenbasis(W, A, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dense scaling, symmetrizing and eigh's copy peaked at 2.19 n^2 doubles
    assert peak < 1.5 * n * n * 8
    # the solve overwrites its own buffer, never the caller's inputs
    assert (W != W_before).nnz == 0
    assert np.array_equal(A.areas, a_before)


@pytest.mark.parametrize("mesh, k", [
    (lambda: bumpy_grid(32), 32),
    (lambda: torus(18, 10), 8),
    (lambda: icosphere(3), 10),
], ids=["bumpy1024-k32", "torus180-k8", "sphere642-k10"])
def test_lanczos_repeats_bit_for_bit(monkeypatch, mesh, k):
    # ARPACK's own random start moves the last bits from call to call,
    # and rotates a degenerate eigenspace (torus, sphere) as a whole
    force(monkeypatch, "lanczos")
    m = mesh()
    W, A = cotangent_weights(m), vertex_areas(m)
    first = eigenbasis(W, A, k)
    for _ in range(2):
        again = eigenbasis(W, A, k)
        assert np.array_equal(again.phi, first.phi)
        assert np.array_equal(again.lam, first.lam)


def test_dense_and_lanczos_give_the_same_map(monkeypatch):
    # a rotated, permuted copy: the exact isometry of criterion 4, which
    # the bounding-box normalization treats like the original; and a
    # permuted copy of a 576-vertex grid with the default stack
    R = rotation_matrix([0, 0, 1], np.pi / 2) @ rotation_matrix(
        [1, 0, 0], np.pi)
    small = bumpy_grid(20)
    cases = [(small, TriMesh(small.vertices @ R.T, small.triangles),
              RunConfig(descriptors=("hks", "wks"))),
             (bumpy_grid(24), bumpy_grid(24), RunConfig())]
    for m, moved, config in cases:
        target = permuted(moved, seed=3)
        truth = np.random.default_rng(3).permutation(m.n_vertices)
        maps = []
        for solver in ("dense", "lanczos"):
            force(monkeypatch, solver)
            maps.append(match_meshes(m, target, config).pmap.target_to_source)
        assert np.array_equal(maps[0], maps[1])
        assert np.array_equal(maps[0], truth)


def test_non_finite_or_zero_area_inputs_raise():
    m = grid_patch(6, 6)
    W, A = cotangent_weights(m), vertex_areas(m)
    bad_W = W.copy()
    bad_W.data[3] = np.nan
    with pytest.raises(DegenerateGeometryError, match="stiffness"):
        eigenbasis(bad_W, A, 5)
    for value in (0.0, np.nan, np.inf):
        areas = A.areas.copy()
        areas[7] = value
        with pytest.raises(DegenerateGeometryError, match="1 vertices"):
            eigenbasis(W, VertexAreas(areas), 5)


def test_k_exceeds_n():
    m = grid_patch(3, 3)
    with pytest.raises(ArgumentError):
        basis_of(m, 10)


def test_truncate(sphere2):
    b = basis_of(sphere2, 20)
    t = b.truncate(5)
    assert t.k == 5
    np.testing.assert_array_equal(t.phi, b.phi[:, :5])
    np.testing.assert_array_equal(t.lam, b.lam[:5])



def test_basis_size_and_shape_refusals(sphere2):
    W, A = cotangent_weights(sphere2), vertex_areas(sphere2)
    for k in (0, -3):
        with pytest.raises(ArgumentError, match="k must be >= 1"):
            eigenbasis(W, A, k)
    with pytest.raises(ArgumentError, match=r"W shape \(9, 9\) does not "
                                            r"match n=162"):
        eigenbasis(W[:9, :9], A, 5)
    with pytest.raises(ArgumentError, match="cannot truncate basis of "
                                            "size 6 to 7"):
        basis_of(sphere2, 6).truncate(7)


def test_signatures_refuse_a_basis_below_two(sphere2):
    one = basis_of(sphere2, 1)
    with pytest.raises(ArgumentError, match="hks needs a basis with k >= 2"):
        hks(one)
    with pytest.raises(ArgumentError, match="wks needs a basis with k >= 2"):
        wks(one)

def test_pinv_identity(sphere2):
    b = basis_of(sphere2, 10)
    np.testing.assert_allclose(b.pinv() @ b.phi, np.eye(10), atol=1e-10)


def test_hks_formula_oracle(sphere2):
    # independent recomputation from the definition
    b = basis_of(sphere2, 30)
    out = hks(b).values
    assert out.shape == (sphere2.n_vertices, spectral.HKS_TIMES)
    lam, phi, a = b.lam, b.phi, b.areas.areas
    t_min = 4.0 * np.log(10.0) / lam[-1]
    t_max = 4.0 * np.log(10.0) / lam[1]
    times = np.geomspace(t_min, t_max, spectral.HKS_TIMES)
    raw = (phi[:, 1:, None] ** 2
           * np.exp(-np.outer(lam[1:], times))[None, :, :]).sum(axis=1)
    raw += (phi[:, 0] ** 2)[:, None]
    mean = (a @ raw) / a.sum()
    np.testing.assert_allclose(out, raw / mean, rtol=1e-10)
    assert (out > 0).all()


def test_hks_columns_unit_area_mean(sphere2):
    b = basis_of(sphere2, 25)
    out = hks(b).values
    a = b.areas.areas
    np.testing.assert_allclose((a @ out) / a.sum(), 1.0, rtol=1e-12)


def test_wks_formula_oracle(sphere2):
    b = basis_of(sphere2, 30)
    out = wks(b).values
    assert out.shape == (sphere2.n_vertices, spectral.WKS_ENERGIES)
    lam, phi = b.lam, b.phi
    log_e = np.linspace(np.log(lam[1]), np.log(lam[-1]),
                        spectral.WKS_ENERGIES)
    sigma = 7.0 * (log_e[1] - log_e[0])
    raw = np.zeros_like(out)
    for j, e in enumerate(log_e):
        w = np.exp(-(e - np.log(lam[1:])) ** 2 / (2 * sigma ** 2))
        raw[:, j] = (phi[:, 1:] ** 2) @ w / w.sum()
    np.testing.assert_allclose(out, raw, rtol=1e-8)


def test_zero_modes_do_not_depend_on_units():
    # one zero mode per connected component, found at any scale: two
    # disjoint grids keep eigenpairs from the third on, and twelve
    # disjoint triangles have no nonzero eigenvalue among their first 10
    g = bumpy_grid(20)
    two = TriMesh(np.vstack([g.vertices, g.vertices + [3.0, 0.0, 0.0]]),
                  np.vstack([g.triangles, g.triangles + g.n_vertices]))
    triangle = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    twelve = TriMesh(np.vstack([triangle + [3.0 * i, 0.0, 0.0]
                                for i in range(12)]),
                     np.arange(36).reshape(12, 3))
    for scale in (1e-3, 1.0, 1e3):
        for mesh in (two, normalize_mesh(two)):
            b = basis_of(TriMesh(scale * mesh.vertices, mesh.triangles), 20)
            lam, phi = spectral._nonzero_spectrum(b)
            np.testing.assert_array_equal(lam, b.lam[2:])
            np.testing.assert_array_equal(phi, b.phi[:, 2:])
        for mesh in (twelve, normalize_mesh(twelve)):
            b = basis_of(TriMesh(scale * mesh.vertices, mesh.triangles), 10)
            with pytest.raises(NumericError, match="degenerate spectrum"):
                hks(b)


def test_hks_of_several_components_follows_a_permutation():
    # the kernel of a two-component mesh comes back in whatever basis the
    # solver picks for each vertex order; hks must not depend on it
    m = union(bumpy_grid(20), bumpy_grid(12))
    perm = np.random.default_rng(0).permutation(m.n_vertices)
    out = hks(basis_of(m, 32)).values
    moved = hks(basis_of(permuted(m, 0), 32)).values
    np.testing.assert_allclose(moved, out[perm], rtol=1e-8)


@pytest.mark.parametrize("parts", [
    lambda: (bumpy_grid(20), bumpy_grid(12)),
    lambda: (bumpy_grid(20), torus(16, 8)),
    lambda: (bumpy_grid(20), bumpy_grid(12), bumpy_grid(8)),
], ids=["grid400-grid144", "grid400-torus128", "grid400-grid144-grid64"])
def test_several_components_self_match_in_any_vertex_order(parts):
    # criterion 3's identity bound against permuted copies
    m = union(*parts())
    for seed in range(6):
        truth = np.random.default_rng(seed).permutation(m.n_vertices)
        match = match_meshes(m, permuted(m, seed), RunConfig()).pmap
        ident = np.mean(match.target_to_source == truth)
        assert ident >= 0.95, f"seed {seed}: identity fraction {ident:.3f}"


def test_positional_encoding_shape_and_values():
    m = grid_patch(4, 4)
    out = positional_encoding(m, 2).values
    assert out.shape == (16, 3 + 6 * 2)
    np.testing.assert_array_equal(out[:, :3], m.vertices)
    np.testing.assert_allclose(out[:, 3:6], np.sin(np.pi * m.vertices))
    np.testing.assert_allclose(out[:, 6:9], np.cos(np.pi * m.vertices))
    np.testing.assert_allclose(out[:, 9:12], np.sin(2 * np.pi * m.vertices))


def test_positional_encoding_bands_up_to_a_finite_top_frequency():
    # pi 2^b is exact, as ldexp gives it, up to the last finite band
    top = spectral.MAX_POSENC_BANDS - 1
    assert np.ldexp(np.pi, top) == 2.0 ** top * np.pi
    with np.errstate(over="ignore"):
        assert np.isinf(np.ldexp(np.pi, top + 1))
    m = grid_patch(3, 3)
    m = TriMesh(m.vertices / np.abs(m.vertices).max(), m.triangles)
    out = positional_encoding(m, spectral.MAX_POSENC_BANDS).values
    assert out.shape == (9, 3 + 6 * spectral.MAX_POSENC_BANDS)
    for bands in (-1, spectral.MAX_POSENC_BANDS + 1, 10 ** 30):
        with pytest.raises(ArgumentError, match="bands must be in"):
            positional_encoding(m, bands)
    # at |xyz| <= 2 the top band's argument overflows: refused before any
    # sine, with no warning (a warning fails the test); one band fewer fits
    m = TriMesh(2.0 * m.vertices, m.triangles)
    with pytest.raises(ArgumentError, match="bands overflow on this mesh"):
        positional_encoding(m, spectral.MAX_POSENC_BANDS)
    out = positional_encoding(m, spectral.MAX_POSENC_BANDS - 1).values
    assert np.isfinite(out).all()
