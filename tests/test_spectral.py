import numpy as np
import pytest

import meshcorr.spectral as spectral
from meshcorr.errors import ArgumentError
from meshcorr.mesh import cotangent_weights, vertex_areas
from meshcorr.spectral import (SpectralBasis, eigenbasis, hks, load_basis,
                               positional_encoding, project, reconstruct,
                               save_basis, wks)

from conftest import grid_patch, icosphere, torus


def basis_of(mesh, k):
    return eigenbasis(cotangent_weights(mesh), vertex_areas(mesh), k)


def test_a_orthonormality(sphere2):
    b = basis_of(sphere2, 20)
    gram = b.phi.T @ (b.areas.areas[:, None] * b.phi)
    assert np.abs(gram - np.eye(20)).max() < 1e-10


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
    b = eigenbasis(W, A, 15)
    for i in range(15):
        r = (-W) @ b.phi[:, i] - b.lam[i] * (A.areas * b.phi[:, i])
        scale = max(1.0, b.lam[i]) * np.linalg.norm(A.areas * b.phi[:, i])
        assert np.linalg.norm(r) <= 1e-6 * scale


def test_deterministic_signs(sphere2):
    b1 = basis_of(sphere2, 12)
    b2 = basis_of(sphere2, 12)
    np.testing.assert_array_equal(b1.phi, b2.phi)


def test_dense_and_sparse_paths_agree(monkeypatch):
    m = torus(18, 10)
    b_dense = basis_of(m, 8)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    b_sparse = basis_of(m, 8)
    np.testing.assert_allclose(b_sparse.lam, b_dense.lam, rtol=1e-8, atol=1e-10)
    # eigenspaces of the torus are degenerate, so compare the heat kernel
    # built from each basis instead of individual eigenvectors
    a = b_dense.areas.areas
    t = 1.0 / max(b_dense.lam[-1], 1.0)

    def kernel(b):
        return (b.phi * np.exp(-t * b.lam)) @ (b.phi.T * a)

    np.testing.assert_allclose(kernel(b_sparse), kernel(b_dense), atol=1e-8)


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


def test_project_reconstruct_roundtrip(sphere2):
    # a band-limited function reconstructs exactly
    b = basis_of(sphere2, 12)
    coeffs = np.linspace(1.0, -1.0, 12)
    f = b.phi @ coeffs
    np.testing.assert_allclose(project(b, f).ravel(), coeffs, atol=1e-10)
    np.testing.assert_allclose(reconstruct(b, project(b, f)).values.ravel(),
                               f, atol=1e-10)


def test_pinv_identity(sphere2):
    b = basis_of(sphere2, 10)
    np.testing.assert_allclose(b.pinv() @ b.phi, np.eye(10), atol=1e-10)


def test_hks_formula_oracle(sphere2):
    # independent recomputation from the definition
    b = basis_of(sphere2, 30)
    out = hks(b, 8).values
    assert out.shape == (sphere2.n_vertices, 8)
    lam, phi, a = b.lam, b.phi, b.areas.areas
    t_min = 4.0 * np.log(10.0) / lam[-1]
    t_max = 4.0 * np.log(10.0) / lam[1]
    times = np.geomspace(t_min, t_max, 8)
    raw = (phi[:, 1:, None] ** 2
           * np.exp(-np.outer(lam[1:], times))[None, :, :]).sum(axis=1)
    raw += (phi[:, 0] ** 2)[:, None]
    mean = (a @ raw) / a.sum()
    np.testing.assert_allclose(out, raw / mean, rtol=1e-10)
    assert (out > 0).all()


def test_hks_columns_unit_area_mean(sphere2):
    b = basis_of(sphere2, 25)
    out = hks(b, 6).values
    a = b.areas.areas
    np.testing.assert_allclose((a @ out) / a.sum(), 1.0, rtol=1e-12)


def test_wks_formula_oracle(sphere2):
    b = basis_of(sphere2, 30)
    out = wks(b, 12).values
    assert out.shape == (sphere2.n_vertices, 12)
    lam, phi = b.lam, b.phi
    log_e = np.linspace(np.log(lam[1]), np.log(lam[-1]), 12)
    sigma = 7.0 * (log_e[1] - log_e[0])
    raw = np.zeros_like(out)
    for j, e in enumerate(log_e):
        w = np.exp(-(e - np.log(lam[1:])) ** 2 / (2 * sigma ** 2))
        raw[:, j] = (phi[:, 1:] ** 2) @ w / w.sum()
    np.testing.assert_allclose(out, raw, rtol=1e-8)


def test_positional_encoding_shape_and_values():
    m = grid_patch(4, 4)
    out = positional_encoding(m, 2).values
    assert out.shape == (16, 3 + 6 * 2)
    np.testing.assert_array_equal(out[:, :3], m.vertices)
    np.testing.assert_allclose(out[:, 3:6], np.sin(np.pi * m.vertices))
    np.testing.assert_allclose(out[:, 6:9], np.cos(np.pi * m.vertices))
    np.testing.assert_allclose(out[:, 9:12], np.sin(2 * np.pi * m.vertices))


def test_basis_file_roundtrip(tmp_path, sphere2):
    b = basis_of(sphere2, 10)
    p = tmp_path / "basis.dsb"
    save_basis(p, b)
    back = load_basis(p)
    assert back.n == b.n and back.k == b.k
    np.testing.assert_array_equal(back.phi, b.phi)
    np.testing.assert_array_equal(back.lam, b.lam)
    np.testing.assert_array_equal(back.areas.areas, b.areas.areas)
    assert p.read_bytes()[:4] == b"DSB1"


def test_near_degenerate_flags():
    b = basis_of(icosphere(3), 10)
    # the sphere's l=1 and l=2 eigenspaces are (numerically near) degenerate
    assert b.near_degenerate.any()


def test_descriptor_defaults_are_run_config():
    import inspect
    from meshcorr.pipeline import RunConfig

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    config = RunConfig()
    assert default(spectral.hks, "num_times") == config.hks_times
    assert default(spectral.wks, "num_energies") == config.wks_energies
    assert default(spectral.positional_encoding, "bands") \
        == config.posenc_bands
