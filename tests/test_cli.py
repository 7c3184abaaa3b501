import csv
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from click.testing import CliRunner

from meshcorr import funcmap, geodesics, pipeline, spectral
from meshcorr.cli import main
from meshcorr.errors import DegenerateGeometryError
from meshcorr.evalbench import (benchmark_category, load_dataset,
                                write_results_csv)
from meshcorr.features import FeatureField, write_features
from meshcorr.funcmap import FmapWeights, FunctionalMap, PointMap, save_map
from meshcorr.geodesics import save_groups
from meshcorr.mesh import TriMesh
from meshcorr.meshio import load_mesh, save_mesh
from meshcorr.pipeline import RunConfig, match_meshes, prepare_for_matching

from conftest import (blas_threads, bumpy_grid, grid_patch, icosphere,
                      octant_groups, rotation_matrix, seam_split_grid, torus)


NESTED = "[" * 100000  # deeper than json's parser recurses


def strong_bump_grid(nx=16):
    return grid_patch(nx, nx, z_fn=lambda x, y: (
        0.4 * np.sin(3 * x + 0.7) * np.cos(2 * y - 0.4)
        + 0.15 * np.sin(7 * x * y)))


def all_output(result):
    out = result.output
    try:
        out += result.stderr
    except (ValueError, AttributeError):
        pass
    return out


@pytest.fixture()
def runner():
    return CliRunner()


def test_match_self_identity(runner, tmp_path):
    m = strong_bump_grid()
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    out = tmp_path / "map.json"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(out), "--descriptors",
                               "hks"])
    assert res.exit_code == 0, all_output(res)
    doc = json.loads(out.read_text())
    match = np.asarray(doc["target_to_source"])
    assert (match == np.arange(m.n_vertices)).mean() >= 0.95
    assert "objective" in doc and doc["k"] == 10


def test_match_seed_determinism(runner, tmp_path):
    m = strong_bump_grid(10)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = runner.invoke(main, ["match", "--source", str(p), "--target",
                                   str(p), "-o", str(out), "--descriptors",
                                   "hks"])
        assert res.exit_code == 0, all_output(res)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_match_defaults_are_run_config(runner, tmp_path):
    # with no solver options the CLI runs what RunConfig() runs
    p = tmp_path / "m.ply"
    save_mesh(p, strong_bump_grid(10))
    out = tmp_path / "map.json"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(out)])
    assert res.exit_code == 0, all_output(res)
    m = load_mesh(p)
    want = match_meshes(m, m, RunConfig()).pmap.target_to_source
    doc = json.loads(out.read_text())
    np.testing.assert_array_equal(doc["target_to_source"], want)


def test_solving_commands_offer_no_iteration_options(runner):
    # the solve is the closed form: no entropy weight, no iterations
    for command in ("match", "benchmark"):
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0, all_output(res)
        assert "--w-entropy" not in res.output
        assert "--max-iter" not in res.output


def test_solver_options_are_the_settable_run_config_fields(runner):
    # the options match and benchmark share, --log-json aside, set a
    # RunConfig one field each; max_iter is the benchmark's own, and
    # w_entropy may only be 0
    settable = {f.name for f in dataclasses.fields(RunConfig)} | {
        f.name for f in dataclasses.fields(FmapWeights)}
    settable -= {"weights", "max_iter", "w_entropy"}
    commands = [main.commands[name] for name in ("match", "benchmark")]
    shared = set.intersection(*({p.name for p in c.params} for c in commands))
    assert shared - {"log_json"} == settable
    for command in commands:
        res = runner.invoke(main, [command.name, "--help"])
        assert res.exit_code == 0, all_output(res)
        assert "--recovery" not in res.output
        for param in command.params:
            if param.name in settable:
                assert param.opts[-1] in res.output, param.name


def test_match_missing_feature_file_exits_3(runner, tmp_path):
    m = strong_bump_grid(6)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    missing = tmp_path / "absent.dmf"
    for _ in ("missing", "directory"):
        res = runner.invoke(main, ["match", "--source", str(p), "--target",
                                   str(p), "--source-features", str(missing),
                                   "--target-features", str(missing),
                                   "-o", str(tmp_path / "o.json")])
        assert res.exit_code == 3, all_output(res)
        assert "absent.dmf" in all_output(res)
        missing.mkdir(exist_ok=True)


@pytest.mark.parametrize("rows", [0, 2, 37], ids=["empty", "short", "long"])
@pytest.mark.parametrize("side", ["--source-features", "--target-features"])
def test_match_text_features_not_filling_header_exit_3(runner, tmp_path,
                                                       side, rows):
    m = strong_bump_grid(6)  # 36 vertices
    p, good, bad = tmp_path / "m.ply", tmp_path / "f.dmf", tmp_path / "f.txt"
    save_mesh(p, m)
    write_features(good, FeatureField(np.ones((m.n_vertices, 3))))
    bad.write_text(f"# {m.n_vertices} 3\n" + "1 2 3\n" * rows)
    other = {"--source-features": "--target-features",
             "--target-features": "--source-features"}[side]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["match", "--source", str(p), "--target",
                                   str(p), side, str(bad), other, str(good),
                                   "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 3, all_output(res)
    assert "f.txt" in all_output(res) and "header promises" in all_output(res)
    assert not caught


@pytest.mark.parametrize("fmt", ["dmf", "txt"])
def test_match_feature_file_without_channels_exits_3(runner, tmp_path, fmt):
    m = bumpy_grid(6)  # 36 vertices
    p, out = tmp_path / "m.ply", tmp_path / "o.json"
    bad = tmp_path / f"f.{fmt}"
    save_mesh(p, m)
    if fmt == "dmf":
        bad.write_bytes(b"DMF1" + struct.pack("<II", m.n_vertices, 0))
    else:
        bad.write_text(f"# {m.n_vertices} 0\n")
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(bad),
                               "--target-features", str(bad), "-o", str(out)])
    assert res.exit_code == 3, all_output(res)
    assert f"f.{fmt}" in all_output(res)
    assert not out.exists()


@pytest.mark.parametrize("side", ["--source-features", "--target-features"])
def test_match_one_feature_file_exits_2(runner, tmp_path, side):
    m = strong_bump_grid(6)
    p, feat = tmp_path / "m.ply", tmp_path / "f.dmf"
    save_mesh(p, m)
    write_features(feat, FeatureField(np.ones((m.n_vertices, 3))))
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), side, str(feat),
                               "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 2, all_output(res)
    assert "both meshes or neither" in all_output(res)


def test_match_feature_widths_differ_exits_2_before_any_eigensolve(
        runner, tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(spectral, "eigenbasis",
                        lambda W, A, k: asked.append(k))
    m = strong_bump_grid(6)
    p, out = tmp_path / "m.ply", tmp_path / "o.json"
    save_mesh(p, m)
    feats = []
    for d in (3, 4):
        feats.append(tmp_path / f"f{d}.dmf")
        write_features(feats[-1], FeatureField(np.ones((m.n_vertices, d))))
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(feats[0]),
                               "--target-features", str(feats[1]),
                               "-o", str(out)])
    assert res.exit_code == 2, all_output(res)
    assert "must share the feature dimension, got 3 and 4" in all_output(res)
    assert asked == [] and not out.exists()


def test_match_bad_weight_exits_2(runner, tmp_path):
    m = strong_bump_grid(6)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(tmp_path / "o.json"),
                               "--alpha", "-1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("option, value", [
    ("--alpha", "nan"), ("--beta", "inf"), ("--w-sum", "-inf"),
])
def test_match_non_finite_weight_exits_2(runner, tmp_path, option, value):
    p = tmp_path / "m.ply"
    save_mesh(p, strong_bump_grid(6))
    out = tmp_path / "o.json"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(out), option, value])
    assert res.exit_code == 2, all_output(res)
    assert "must be finite" in all_output(res)
    assert not out.exists()


def test_descriptors_command_and_external_features(runner, tmp_path):
    m = strong_bump_grid(10)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    feat = tmp_path / "m.dmf"
    res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                               "--descriptors", "hks", "-o", str(feat)])
    assert res.exit_code == 0, all_output(res)
    from meshcorr.features import load_features
    bundle = load_features(feat, expected_n=m.n_vertices)
    assert bundle.values.shape == (m.n_vertices, 16)

    out = tmp_path / "map.json"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(feat),
                               "--target-features", str(feat),
                               "-o", str(out)])
    assert res.exit_code == 0, all_output(res)
    assert out.exists()

    res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                               "--descriptors", "", "-o", str(feat)])
    assert res.exit_code == 2  # no descriptor family chosen


def default_and_descriptor_file_maps(runner, tmp_path, source, target):
    """The target_to_source of ``match`` with the default stack, and of
    ``match`` given the default stack as ``descriptors`` files."""
    maps = {}
    for name, mesh in (("source", source), ("target", target)):
        save_mesh(tmp_path / f"{name}.ply", mesh)
        res = runner.invoke(main, [
            "descriptors", "--mesh", str(tmp_path / f"{name}.ply"),
            "-o", str(tmp_path / f"{name}.dmf")])
        assert res.exit_code == 0, all_output(res)
    meshes = ["--source", str(tmp_path / "source.ply"),
              "--target", str(tmp_path / "target.ply")]
    files = ["--source-features", str(tmp_path / "source.dmf"),
             "--target-features", str(tmp_path / "target.dmf")]
    for name, extra in (("default", []), ("files", files)):
        res = runner.invoke(main, ["match", *meshes, *extra,
                                   "-o", str(tmp_path / f"{name}.json")])
        assert res.exit_code == 0, all_output(res)
        maps[name] = funcmap.load_map(tmp_path / f"{name}.json")[1]
    return maps["default"].target_to_source, maps["files"].target_to_source


def test_descriptor_files_give_the_default_map(runner, tmp_path):
    # descriptors writes the default stack of the prepared mesh in file
    # order, and match standardizes it as it does its own stack. Not on a
    # torus: k = 10 cuts a 2-fold eigenspace there, and the two paths' 10-
    # and 32-eigenpair solves keep different vectors of it (ROADMAP item
    # 3(a))
    m = bumpy_grid(20)
    p = np.random.default_rng(5).permutation(m.n_vertices)
    rotated = m.vertices @ rotation_matrix([0.2, 1.0, 0.4], 0.07).T
    target = TriMesh(rotated[p], np.argsort(p)[m.triangles])
    default, files = default_and_descriptor_file_maps(runner, tmp_path, m,
                                                      target)
    assert np.array_equal(files, default)


def test_seam_split_descriptor_files_give_the_default_map(runner, tmp_path):
    # a duplicate's row is its original's, the row match reads for it
    m = seam_split_grid()
    default, files = default_and_descriptor_file_maps(runner, tmp_path, m, m)
    assert len(default) == m.n_vertices == 420
    assert np.array_equal(files, default)


def test_seam_split_map_indexes_every_file_vertex(runner, tmp_path):
    # the weld merges the duplicates, and the map is taken back to the
    # file's vertices: a duplicate goes where its original goes
    m = seam_split_grid()
    n = m.n_vertices
    mesh, textured = str(tmp_path / "m.ply"), str(tmp_path / "tex.ply")
    map_path, kp_path = str(tmp_path / "map.json"), tmp_path / "kp.json"
    save_mesh(mesh, m)
    save_mesh(textured,
              m.with_colors(np.random.default_rng(0).random((n, 3))))
    res = runner.invoke(main, ["match", "--source", mesh, "--target", mesh,
                               "-o", map_path])
    assert res.exit_code == 0, all_output(res)
    match = funcmap.load_map(map_path)[1].target_to_source
    assert len(match) == n == 420
    assert np.array_equal(match[:400], np.arange(400))
    assert np.array_equal(match[400:], match[200:220])

    kp_path.write_text(json.dumps([{"label": "seam", "vertex": 210}]))
    res = runner.invoke(main, [
        "transfer-keypoints", "--source", mesh, "--target", mesh,
        "--keypoints", str(kp_path), "--map", map_path,
        "-o", str(tmp_path / "kp_out.json")])
    assert res.exit_code == 0, all_output(res)
    res = runner.invoke(main, [
        "transfer-color", "--source-textured", textured, "--source", mesh,
        "--target", mesh, "--map", map_path, "-o", str(tmp_path / "o.ply")])
    assert res.exit_code == 0, all_output(res)
    colors = load_mesh(tmp_path / "o.ply").colors
    assert np.array_equal(colors[400:], colors[200:220])


def test_two_component_mesh_is_matched_whole(runner, tmp_path):
    grid = bumpy_grid(20)
    m = TriMesh(np.vstack([grid.vertices, [[2.0, 2.0, 0.0], [2.1, 2.0, 0.0],
                                           [2.0, 2.1, 0.0]]]),
                np.vstack([grid.triangles, [[400, 401, 402]]]))
    p, out = tmp_path / "m.ply", tmp_path / "map.json"
    save_mesh(p, m)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(out)])
    assert res.exit_code == 0, all_output(res)
    match = funcmap.load_map(out)[1].target_to_source
    assert len(match) == 403
    assert np.array_equal(match[:400], np.arange(400))


def test_descriptors_do_not_depend_on_blas_threads(runner, tmp_path):
    # the eigensolve runs at one BLAS thread: at two, the sphere's basis
    # keeps other vectors of an eigenspace it cuts (ROADMAP item 3(a))
    p = tmp_path / "m.ply"
    save_mesh(p, icosphere(3))
    written = []
    for count in (1, 2):
        feat = tmp_path / f"m{count}.dmf"
        with blas_threads(count):
            res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                                       "-o", str(feat)])
        assert res.exit_code == 0, all_output(res)
        written.append(feat.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("mesh", [lambda: torus(32, 32),
                                  lambda: icosphere(3)],
                         ids=["torus1024", "sphere642"])
def test_low_rank_feature_files_exit_4(runner, tmp_path, mesh):
    m = mesh()
    feat, out = tmp_path / "m.dmf", tmp_path / "o.json"
    basis = pipeline.prepare_mesh(m, spectral.DEFAULT_DESC_K)[1]
    write_features(feat, spectral.hks(basis, 16))
    save_mesh(tmp_path / "m.ply", m)
    res = runner.invoke(main, [
        "match", "--source", str(tmp_path / "m.ply"), "--target",
        str(tmp_path / "m.ply"), "--source-features", str(feat),
        "--target-features", str(feat), "-o", str(out)])
    assert res.exit_code == 4, all_output(res)
    assert "directions of C are unconstrained" in all_output(res)
    assert not out.exists()


def test_descriptors_basis_is_k_eigenpairs(runner, tmp_path, monkeypatch):
    asked, eigenbasis = [], spectral.eigenbasis

    def spy(W, A, k):
        asked.append(k)
        return eigenbasis(W, A, k)

    monkeypatch.setattr(spectral, "eigenbasis", spy)
    for mesh in (strong_bump_grid(8), grid_patch(3, 2)):
        p, feat = tmp_path / "m.ply", tmp_path / "m.dmf"
        save_mesh(p, mesh)
        res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                                   "--descriptors", "hks", "-o", str(feat)])
        assert res.exit_code == 0, all_output(res)
    assert asked == [32, 6]  # min(32, n); n = 6 on the 3x2 grid


def test_descriptors_degenerate_spectrum_exits_4(runner, tmp_path):
    triangle = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    m = TriMesh(np.vstack([triangle + [3.0 * i, 0.0, 0.0]
                           for i in range(33)]),
                np.arange(99).reshape(33, 3))  # 33 disjoint triangles
    p, feat = tmp_path / "m.ply", tmp_path / "m.dmf"
    save_mesh(p, m)
    res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                               "--descriptors", "hks", "-o", str(feat)])
    assert res.exit_code == 4, all_output(res)
    assert "degenerate spectrum" in all_output(res)
    assert not feat.exists()


@pytest.mark.parametrize("error", [
    spla.ArpackNoConvergence("No convergence (3000 iterations, 5/32 "
                             "eigenvectors converged)", [], []),
    spla.ArpackError(-9999),
    RuntimeError("Factor is exactly singular"),
], ids=["no-convergence", "arpack-error", "singular-factor"])
def test_lanczos_failure_exits_4(runner, tmp_path, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(spectral.spla, "eigsh", failing)
    m = strong_bump_grid(32)
    assert m.n_vertices >= max(spectral.LANCZOS_MIN_N,
                               spectral.LANCZOS_N_PER_K * 32)  # Lanczos
    p, out = tmp_path / "m.ply", tmp_path / "map.json"
    save_mesh(p, m)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(out)])
    assert res.exit_code == 4, all_output(res)
    assert f"Lanczos eigensolver failed: {error}" in all_output(res)
    assert "Traceback" not in all_output(res)
    assert not out.exists()


def make_instance(root, category, name, mesh, groups):
    d = root / category / name
    d.mkdir(parents=True)
    save_mesh(d / "mesh.ply", mesh)
    save_mesh(d / "remeshed.ply", mesh)
    save_groups(d / "groups.json", groups)
    return d


@pytest.fixture()
def sphere_dataset(tmp_path):
    m = icosphere(1)
    groups = octant_groups(m)
    dirs = [make_instance(tmp_path / "data", "spheres", n, m, groups)
            for n in ("a", "b")]
    return tmp_path / "data", dirs, m


def test_eval_command(runner, sphere_dataset, tmp_path):
    root, dirs, m = sphere_dataset
    n = m.n_vertices
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    res = runner.invoke(main, ["eval", "--map", str(map_path),
                               "--source-instance", str(dirs[0]),
                               "--target-instance", str(dirs[1])])
    assert res.exit_code == 0, all_output(res)
    assert "err 0.0000" in res.output and "auc 1.0000" in res.output


def test_eval_reads_only_the_source_geodesics(runner, sphere_dataset,
                                             tmp_path):
    root, dirs, m = sphere_dataset
    n = m.n_vertices
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    args = ["eval", "--map", str(map_path), "--source-instance",
            str(dirs[0]), "--target-instance", str(dirs[1])]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, all_output(res)
    assert not any((d / "geo.dgm").exists() for d in dirs)
    # the target's groups are still checked against its mesh
    save_groups(dirs[1] / "groups.json", octant_groups(icosphere(0)))
    assert runner.invoke(main, args).exit_code == 3


def test_seam_split_instance_is_evaluated_through_the_weld(runner, tmp_path):
    # the file duplicates a seam; evaluation welds it, as match does
    m = seam_split_grid()
    n = m.n_vertices
    groups = octant_groups(m)  # a duplicate lies on its original
    assert np.array_equal(groups.group_of[400:], groups.group_of[200:220])
    root = tmp_path / "data"
    inst = str(make_instance(root, "grids", "seam", m, groups))
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    res = runner.invoke(main, ["eval", "--map", str(map_path),
                               "--source-instance", inst,
                               "--target-instance", inst])
    assert res.exit_code == 0, all_output(res)
    assert "err 0.0000" in res.output and "auc 1.0000" in res.output
    csv_path = tmp_path / "r.csv"
    res = runner.invoke(main, ["benchmark", "--dataset", str(root), "--csv",
                               str(csv_path), "--json",
                               str(tmp_path / "agg.json")])
    assert res.exit_code == 0, all_output(res)
    assert [row["failed"] for row in benchmark_rows(csv_path)] == ["0"]


@pytest.mark.parametrize("names", [["head", "arm"], {"x": "head"}],
                         ids=["list", "non-integer-key"])
def test_eval_ignores_group_names(runner, sphere_dataset, tmp_path, names):
    root, dirs, m = sphere_dataset
    n = m.n_vertices
    doc = json.loads((dirs[1] / "groups.json").read_text())
    (dirs[1] / "groups.json").write_text(json.dumps({**doc, "names": names}))
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    args = ["eval", "--map", str(map_path), "--source-instance",
            str(dirs[0]), "--target-instance", str(dirs[1])]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, all_output(res)
    assert "err 0.0000" in res.output
    (dirs[1] / "groups.json").unlink()
    res = runner.invoke(main, args)
    assert res.exit_code == 3, all_output(res)
    assert "groups.json" in all_output(res)


@pytest.mark.parametrize("field, value", [
    ("n", "1e999"), ("group_of", "[1e999]"),
    pytest.param("group_of", "fractional", id="group_of-fractional"),
    pytest.param("group_of", "bool", id="group_of-bool"),
    pytest.param("group_of", "true-first", id="group_of-true-first"),
    pytest.param("group_of", "false-first", id="group_of-false-first"),
    pytest.param("n", "fractional-n", id="n-fractional"),
    pytest.param("n", "string-n", id="n-string"),
    pytest.param("n", "true", id="n-bool"),
    pytest.param(None, NESTED, id="nested")])
def test_eval_overflowing_groups_exits_3(runner, sphere_dataset, tmp_path,
                                        field, value):
    root, dirs, m = sphere_dataset
    n = m.n_vertices
    path = dirs[1] / "groups.json"
    doc = json.loads(path.read_text())
    # full-length labels or an n that a cast to int64 would take: 1.5 -> 1,
    # true -> 1, false -> 0, "42" -> 42, 42.7 -> 42
    labels = doc["group_of"]
    value = {"fractional": json.dumps([labels[0] + 0.5] + labels[1:]),
             "bool": json.dumps([label > 0 for label in labels]),
             "true-first": json.dumps([True] + labels[1:]),
             "false-first": json.dumps([False] + labels[1:]),
             "fractional-n": f"{n}.7", "string-n": f'"{n}"',
             }.get(value, value)
    if field is not None:
        doc[field] = "VALUE"
        value = json.dumps(doc).replace('"VALUE"', value)
    path.write_text(value)
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    res = runner.invoke(main, ["eval", "--map", str(map_path),
                               "--source-instance", str(dirs[0]),
                               "--target-instance", str(dirs[1])])
    assert res.exit_code == 3, all_output(res)
    assert "groups.json" in all_output(res)


@pytest.mark.parametrize("text", ["{not json", '["spheres/a"]', None, NESTED,
                                  '{"spheres/a": 5, "spheres/b": ["test"]}'],
                         ids=["not-json", "not-an-object", "directory",
                              "nested", "not-a-split-name"])
def test_benchmark_bad_splits_exits_3(runner, sphere_dataset, tmp_path,
                                      text):
    root, _, _ = sphere_dataset
    if text is None:
        (root / "splits.json").mkdir()
    else:
        (root / "splits.json").write_text(text)
    res = runner.invoke(main, ["benchmark", "--dataset", str(root), "--csv",
                               str(tmp_path / "r.csv"), "--json",
                               str(tmp_path / "agg.json")])
    assert res.exit_code == 3, all_output(res)
    assert "splits.json" in all_output(res)


@pytest.mark.parametrize("empty, split", [(True, "test"), (False, "train")],
                         ids=["empty-root", "no-train-instance"])
def test_benchmark_selecting_no_instance_exits_3(runner, sphere_dataset,
                                                 tmp_path, empty, split):
    root = sphere_dataset[0]
    if empty:
        root = tmp_path / "empty"
        root.mkdir()
    res = runner.invoke(main, ["benchmark", "--dataset", str(root),
                               "--split", split, "--csv",
                               str(tmp_path / "r.csv"), "--json",
                               str(tmp_path / "agg.json")])
    assert res.exit_code == 3, all_output(res)
    assert f"no instance of split '{split}' under {root}" in all_output(res)
    assert not (tmp_path / "r.csv").exists()


def test_benchmark_command(runner, sphere_dataset, tmp_path):
    root, dirs, m = sphere_dataset
    csv_path = tmp_path / "results.csv"
    json_path = tmp_path / "agg.json"
    res = runner.invoke(main, ["benchmark", "--dataset", str(root),
                               "--csv", str(csv_path), "--json",
                               str(json_path), "--descriptors", "posenc"])
    assert res.exit_code == 0, all_output(res)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2x2 ordered pairs
    assert [r[:2] for r in rows[1:]] == [["a", "a"], ["a", "b"],
                                         ["b", "a"], ["b", "b"]]
    doc = json.loads(json_path.read_text())
    assert "spheres" in doc

    res = runner.invoke(main, ["benchmark", "--dataset", str(root),
                               "--category", "dogs", "--csv", str(csv_path),
                               "--json", str(json_path)])
    assert res.exit_code == 2


def test_benchmark_one_category(runner, sphere_dataset, tmp_path):
    root, _, m = sphere_dataset
    make_instance(root, "others", "c", m, octant_groups(m))
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "agg.json"
    res = runner.invoke(main, ["benchmark", "--dataset", str(root),
                               "--category", "spheres", "--csv",
                               str(csv_path), "--json", str(json_path),
                               "--descriptors", "posenc"])
    assert res.exit_code == 0, all_output(res)
    assert "spheres: pairs 4" in res.output and "others" not in res.output
    assert len(benchmark_rows(csv_path)) == 4
    assert list(json.loads(json_path.read_text())) == ["spheres"]


@pytest.mark.parametrize("command, keys", [
    ("match", {"command", "objective", "iterations", "wall_s", "output"}),
    ("eval", {"command", "err", "auc", "coverage"}),
    ("benchmark", {"command", "category", "pairs", "failed", "err_mean",
                   "auc_mean"})])
def test_log_json_prints_json_lines(runner, sphere_dataset, tmp_path,
                                    command, keys):
    root, dirs, m = sphere_dataset
    n, mesh = m.n_vertices, str(dirs[0] / "remeshed.ply")
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    args = {"match": ["--source", mesh, "--target", mesh, "-o",
                      str(tmp_path / "o.json")],
            "eval": ["--map", str(map_path), "--source-instance",
                     str(dirs[0]), "--target-instance", str(dirs[1])],
            "benchmark": ["--dataset", str(root), "--csv",
                          str(tmp_path / "r.csv"), "--json",
                          str(tmp_path / "agg.json"), "--descriptors",
                          "posenc"]}[command]
    res = runner.invoke(main, [command, *args, "--log-json"])
    assert res.exit_code == 0, all_output(res)
    lines = [json.loads(line) for line in res.output.splitlines()
             if line.startswith("{")]
    assert len(lines) == 1 and set(lines[0]) == keys
    assert lines[0]["command"] == command


@pytest.fixture()
def grid_dataset(tmp_path):
    """One category of three distinct 10x10 height fields."""
    heights = [lambda x, y: 0.25 * np.sin(3 * x + 0.7) * np.cos(2 * y - 0.4),
               lambda x, y: 0.3 * np.sin(4 * x + 1) * np.cos(3 * y),
               lambda x, y: 0.2 * np.cos(5 * x) * np.sin(2 * y + 0.3)]
    root = tmp_path / "data"
    for name, z_fn in zip("abc", heights):
        m = grid_patch(10, 10, z_fn=z_fn)
        make_instance(root, "grids", name, m, octant_groups(m))
    return root


def benchmark_rows(path):
    """The results CSV as dicts, without the timing column."""
    with open(path, newline="") as fh:
        return [{key: value for key, value in row.items() if key != "wall_ms"}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_benchmark_prepares_each_instance_once(runner, grid_dataset,
                                               tmp_path, monkeypatch, jobs):
    # feature channels per instance: one multiplication operator each
    d = len(prepare_for_matching(grid_patch(10, 10), RunConfig()).mult_ops)
    # one ground-truth distance field per group of each source instance
    fields = sum(len(inst.groups.ids()) for inst in load_dataset(grid_dataset))
    calls = {"eigenbasis": 0, "multiplication_operator": 0, "dijkstra": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(spectral, "eigenbasis")
    counted(funcmap, "multiplication_operator")
    counted(geodesics, "dijkstra")
    res = runner.invoke(main, [
        "benchmark", "--dataset", str(grid_dataset), "--csv",
        str(tmp_path / "r.csv"), "--json", str(tmp_path / "a.json"),
        "--jobs", str(jobs)])
    assert res.exit_code == 0, all_output(res)
    assert calls == {"eigenbasis": 3, "multiplication_operator": 3 * d,
                     "dijkstra": fields}

    # the same rows as matching every pair from scratch
    config = RunConfig()

    def per_pair(src, tgt):
        return match_meshes(src.remeshed, tgt.remeshed, config).pmap

    results, _ = benchmark_category(load_dataset(grid_dataset), "grids",
                                    per_pair, jobs=jobs)
    write_results_csv(tmp_path / "ref.csv", results)
    rows = benchmark_rows(tmp_path / "r.csv")
    assert len(rows) == 9 and all(r["failed"] == "0" for r in rows)
    assert rows == benchmark_rows(tmp_path / "ref.csv")


@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_failed_preparation_fails_only_its_pairs(
        runner, grid_dataset, tmp_path, jobs):
    tiny = grid_patch(3, 3)  # fewer vertices than -k
    make_instance(grid_dataset, "grids", "tiny", tiny, octant_groups(tiny))
    res = runner.invoke(main, [
        "benchmark", "--dataset", str(grid_dataset), "--csv",
        str(tmp_path / "r.csv"), "--json", str(tmp_path / "a.json"),
        "-k", "12", "--jobs", str(jobs)])
    assert res.exit_code == 0, all_output(res)
    rows = benchmark_rows(tmp_path / "r.csv")
    assert len(rows) == 16
    failed = [r for r in rows if r["failed"] == "1"]
    assert len(failed) == 2 * 4 - 1
    assert all("tiny" in (r["source"], r["target"]) for r in failed)
    assert all(r["error"].startswith("ArgumentError: ") for r in failed)
    assert all(r["err"] and not r["error"] for r in rows if r not in failed)


def test_transfer_color_command(runner, tmp_path):
    m = strong_bump_grid(6)
    rng = np.random.default_rng(0)
    textured = m.with_colors(rng.integers(0, 256, size=(m.n_vertices, 3))
                             / 255.0)
    n = m.n_vertices
    perm = rng.permutation(n)
    tex_path = tmp_path / "tex.ply"
    plain_path = tmp_path / "plain.ply"
    save_mesh(tex_path, textured)
    save_mesh(plain_path, m)
    map_path = tmp_path / "map.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(perm, np.ones(n)), FmapWeights())
    out = tmp_path / "colored.ply"
    res = runner.invoke(main, ["transfer-color", "--source-textured",
                               str(tex_path), "--source", str(plain_path),
                               "--target", str(plain_path), "--map",
                               str(map_path), "-o", str(out)])
    assert res.exit_code == 0, all_output(res)
    lines = out.read_bytes().split(b"\n")
    assert lines[1] == b"format binary_little_endian 1.0"
    colored = load_mesh(out)
    assert np.array_equal(colored.vertices, m.vertices)
    assert np.array_equal(colored.triangles, m.triangles)
    assert np.array_equal(colored.colors, load_mesh(tex_path).colors[perm])


@pytest.mark.parametrize("field, value", [
    (None, "{not json"),
    (None, '{"k": 1, "C": [[1.0]], "confidence": [1.0], "objective": 0.0, '
     '"converged": true, "iterations": 0}'),
    (None, '{"k": 1, "C": [[1.0]], "target_to_source": [0], '
     '"confidence": [1.0], "objective": 0.0, "iterations": 0}'),
    (None, '{"k": 1, "C": [[1.0]], "target_to_source": [0], '
     '"confidence": [1.0], "objective": 0.0, "converged": true}'),
    (None, '{"k": 1, "C": [[1.0, 0.0]], "target_to_source": [0], '
     '"confidence": [1.0], "objective": 0.0, "converged": true, '
     '"iterations": 0}'),
    (None, '{"k": 1, "C": [1.0], "target_to_source": [0], '
     '"confidence": [1.0], "objective": 0.0, "converged": true, '
     '"iterations": 0}'),
    (None, '{"k": 1, "C": [[1.0]], "target_to_source": [0], '
     '"confidence": [1.0], "objective": 0.0, "converged": true, '
     '"iterations": 1e999}'),
    (None, NESTED),
    ("target_to_source", "true-first"), ("target_to_source", "false-first"),
    ("iterations", "2.7"), ("iterations", '"2"'), ("iterations", "true"),
    ("converged", '"no"'), ("objective", '"12"'), ("objective", "true"),
    ("C", "C-string"), ("C", "C-bool"),
    ("confidence", "confidence-string"), ("confidence", "confidence-bool"),
    ("k", "3"),
], ids=["bad-json", "no-target_to_source", "no-converged", "no-iterations",
        "C-not-square", "C-not-2-D", "iterations-overflow", "nested",
        "target_to_source-true", "target_to_source-false",
        "iterations-fractional", "iterations-string", "iterations-bool",
        "converged-string", "objective-string", "objective-bool",
        "C-string", "C-bool", "confidence-string", "confidence-bool",
        "k-not-C-size"])
def test_transfer_color_malformed_map_exits_3(runner, tmp_path, field,
                                              value):
    m = strong_bump_grid(6)
    n = m.n_vertices
    tex_path = tmp_path / "tex.ply"
    save_mesh(tex_path, m.with_colors(np.ones((n, 3))))
    map_path = tmp_path / "map.json"
    if field is None:
        map_path.write_text(value)
    else:  # one field of a map that loads, with values a cast would take
        save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
                 PointMap(np.arange(n), np.ones(n)), FmapWeights())
        doc = json.loads(map_path.read_text())
        rows, conf = doc["C"], doc["confidence"]
        value = {"true-first": [True, *range(1, n)],
                 "false-first": [False, *range(1, n)],
                 "C-string": [["1", *rows[0][1:]], *rows[1:]],
                 "C-bool": [[True, *rows[0][1:]], *rows[1:]],
                 "confidence-string": ["1", *conf[1:]],
                 "confidence-bool": [True, *conf[1:]]}.get(value, value)
        doc[field] = "VALUE"
        map_path.write_text(json.dumps(doc).replace(
            '"VALUE"', value if isinstance(value, str) else json.dumps(value)))
    res = runner.invoke(main, ["transfer-color", "--source-textured",
                               str(tex_path), "--source", str(tex_path),
                               "--target", str(tex_path), "--map",
                               str(map_path), "-o", str(tmp_path / "o.ply")])
    assert res.exit_code == 3, all_output(res)
    assert "map.json" in all_output(res)
    assert not (tmp_path / "o.ply").exists()


def test_transfer_keypoints_command(runner, tmp_path, monkeypatch):
    m = strong_bump_grid(8)
    n = m.n_vertices
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    kp_path = tmp_path / "kp.json"
    kp_path.write_text(json.dumps([{"label": "tip", "vertex": 5}]))
    map_path = tmp_path / "map.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    out = tmp_path / "kp_out.json"
    asked, eigenbasis = [], spectral.eigenbasis

    def spy(W, A, k):
        asked.append(k)
        return eigenbasis(W, A, k)

    monkeypatch.setattr(spectral, "eigenbasis", spy)
    args = ["transfer-keypoints", "--source", str(p), "--target", str(p),
            "--keypoints", str(kp_path), "--map", str(map_path),
            "-o", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, all_output(res)
    doc = json.loads(out.read_text())
    assert doc[0]["vertex"] == 5 and doc[0]["label"] == "tip"
    # only the point map is read, so the size of C plays no part
    save_map(map_path, FunctionalMap(np.eye(n + 1), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    res = runner.invoke(main, args)
    assert res.exit_code == 0, all_output(res)
    assert json.loads(out.read_text()) == doc
    assert asked == []  # no eigensolve
    res = runner.invoke(main, ["transfer-keypoints", "--help"])
    assert "--basis-size" not in res.output


OPTIMIZER_PROBE = """
import json, sys
from meshcorr.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
    if "scipy.optimize" in sys.modules:
        sys.exit(f"{args[0]} loaded scipy.optimize")
"""


def test_no_command_loads_the_optimizer(sphere_dataset, tmp_path):
    # a fresh interpreter, since this session has loaded scipy.optimize
    root, dirs, m = sphere_dataset
    n, mesh = m.n_vertices, str(dirs[0] / "remeshed.ply")
    map_path, tex, kps = (str(tmp_path / name) for name in
                          ("map.json", "tex.ply", "kp.json"))
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    save_mesh(tex, m.with_colors(np.random.default_rng(0).random((n, 3))))
    Path(kps).write_text(json.dumps([{"label": "tip", "vertex": 5}]))
    out = str(tmp_path / "out")
    commands = [
        ["eval", "--map", map_path, "--source-instance", str(dirs[0]),
         "--target-instance", str(dirs[1])],
        ["transfer-color", "--source-textured", tex, "--source", mesh,
         "--target", mesh, "--map", map_path, "-o", out + ".ply"],
        ["transfer-keypoints", "--source", mesh, "--target", mesh,
         "--keypoints", kps, "--map", map_path, "-o", out + ".json"],
        ["descriptors", "--mesh", mesh, "-o", out + ".dmf"],
        ["match", "--source", mesh, "--target", mesh,
         "-o", out + "-default.json"],
        ["benchmark", "--dataset", str(root), "--csv", out + ".csv",
         "--json", out + "-agg.json"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_PROBE,
         json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("text, code", [
    (None, 3), ('[{"vertex": 5}]', 3), ('[{"label": "a", "vertex": "x"}]', 3),
    ('{"label": "a", "vertex": 5}', 3), ('["a"]', 3),
    ('[{"label": "a", "xyz": "up"}]', 3),
    ('[{"label": "a", "vertex": 999}]', 2), ('[{"label": "a"}]', 2),
    ('[{"label": "a", "xyz": [9, 9, 9]}]', 2), ("[]", 2),
    ('[{"label": "a", "vertex": 2.7}]', 3),
    ('[{"label": "a", "vertex": true}]', 3),
    ('[{"label": "a", "vertex": "3"}]', 3),
    ('[{"label": "a", "xyz": [NaN, 0, 0]}]', 2),
    ('[{"label": ["a", "b"], "vertex": 5}]', 3),
    ('[{"label": "a", "xyz": ["1", 0, 0]}]', 3),
    ('[{"label": "a", "xyz": [true, 0, 0]}]', 3), (NESTED, 3),
], ids=["missing", "no-label", "vertex-not-int", "not-a-list",
        "entry-not-an-object", "xyz-not-a-point", "vertex-out-of-range",
        "no-vertex-or-xyz", "xyz-beyond-snap", "empty", "vertex-fractional",
        "vertex-bool", "vertex-numeric-string", "xyz-nan",
        "label-not-a-string", "xyz-string", "xyz-bool", "nested"])
def test_transfer_keypoints_bad_keypoints_exit_code(runner, tmp_path, text,
                                                    code):
    m = strong_bump_grid(6)
    n = m.n_vertices
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    kp_path = tmp_path / "kp.json"
    if text is not None:
        kp_path.write_text(text)
    map_path = tmp_path / "map.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    res = runner.invoke(main, ["transfer-keypoints", "--source", str(p),
                               "--target", str(p), "--keypoints",
                               str(kp_path), "--map", str(map_path),
                               "-o", str(tmp_path / "o.json")])
    assert res.exit_code == code, all_output(res)
    if code == 3:
        assert "kp.json" in all_output(res)


@pytest.mark.parametrize("command", ["eval", "transfer-color",
                                     "transfer-keypoints"])
@pytest.mark.parametrize("case, code", [
    ("negative", 2), ("beyond-source", 2), ("short-map", 2),
    ("fractional", 3), ("short-confidence", 3), ("weights-not-object", 3),
    ("nested", 3), ("C-nan", 3), ("confidence-infinity", 3),
    ("objective-nan", 3)])
def test_map_that_does_not_fit_exits(runner, sphere_dataset, tmp_path,
                                     command, case, code):
    _, dirs, m = sphere_dataset
    n = m.n_vertices
    mesh = str(dirs[0] / "remeshed.ply")
    textured = tmp_path / "tex.ply"
    save_mesh(textured, m.with_colors(np.ones((n, 3))))
    kp_path = tmp_path / "kp.json"
    kp_path.write_text(json.dumps([{"label": "tip", "vertex": 5}]))
    map_path = tmp_path / "map.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    doc = json.loads(map_path.read_text())
    if case.startswith("short"):
        doc["confidence"].pop()
        if case == "short-map":
            doc["target_to_source"].pop()
    elif case == "weights-not-object":
        doc["weights"] = 3
    elif case == "C-nan":  # Python's json reads NaN and Infinity; JSON lacks them
        doc["C"][1][2] = float("nan")
    elif case == "confidence-infinity":
        doc["confidence"][5] = float("inf")
    elif case == "objective-nan":
        doc["objective"] = float("nan")
    elif case != "nested":
        doc["target_to_source"][3] = {"negative": -1, "beyond-source": n + 5,
                                      "fractional": 2.7}[case]
    map_path.write_text(NESTED if case == "nested" else json.dumps(doc))
    args = {"eval": ["--source-instance", str(dirs[0]),
                     "--target-instance", str(dirs[1])],
            "transfer-color": ["--source-textured", str(textured),
                               "--source", mesh, "--target", mesh, "-o",
                               str(tmp_path / "o.ply")],
            "transfer-keypoints": ["--source", mesh, "--target", mesh,
                                   "--keypoints", str(kp_path), "-o",
                                   str(tmp_path / "o.json")]}[command]
    res = runner.invoke(main, [command, "--map", str(map_path), *args])
    assert res.exit_code == code, all_output(res)
    assert code == 2 or "map.json" in all_output(res)
    assert not (tmp_path / "o.ply").exists()
    assert not (tmp_path / "o.json").exists()


def test_match_external_features_solve_k_eigenpairs(runner, tmp_path,
                                                    monkeypatch):
    m = strong_bump_grid(10)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    feat = tmp_path / "m.dmf"
    write_features(feat, FeatureField(m.vertices.copy()))
    asked, eigenbasis = [], spectral.eigenbasis

    def spy(W, A, k):
        asked.append(k)
        return eigenbasis(W, A, k)

    monkeypatch.setattr(spectral, "eigenbasis", spy)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(feat),
                               "--target-features", str(feat), "-k", "6",
                               "-o", str(tmp_path / "map.json")])
    assert res.exit_code == 0, all_output(res)
    assert asked == [6, 6]


@pytest.mark.parametrize("command, args", [
    ("match", ["-k", "0"]),
    ("benchmark", ["--jobs", "0"]),
    ("benchmark", ["--jobs", "-3"]),
], ids=["match-k", "benchmark-jobs-0", "benchmark-jobs-neg"])
def test_sizes_below_one_exit_2(runner, sphere_dataset, tmp_path, command,
                                args):
    root, dirs, _ = sphere_dataset
    mesh = str(dirs[0] / "remeshed.ply")
    out = tmp_path / "out"
    inputs = {"match": ["--source", mesh, "--target", mesh, "-o", str(out)],
              "benchmark": ["--dataset", str(root), "--csv", str(out),
                            "--json", str(tmp_path / "agg.json")]}[command]
    res = runner.invoke(main, [command, *inputs, *args])
    assert res.exit_code == 2, all_output(res)
    assert not out.exists()


@pytest.mark.parametrize("names", ["bogus", "", "hks,bogus"],
                         ids=["unknown", "empty", "one-unknown"])
@pytest.mark.parametrize("command", ["match", "benchmark", "descriptors"])
@pytest.mark.parametrize("present", [True, False],
                         ids=["inputs", "absent-inputs"])
def test_bad_descriptors_exit_2_before_reading_inputs(
        runner, sphere_dataset, tmp_path, names, command, present):
    root, dirs, _ = sphere_dataset
    if not present:
        root, dirs = tmp_path / "absent", [tmp_path / "absent"] * 2
    mesh = str(dirs[0] / "remeshed.ply")
    out, agg = tmp_path / "out", tmp_path / "agg.json"
    inputs = {"match": ["--source", mesh, "--target", mesh, "-o", str(out)],
              "benchmark": ["--dataset", str(root), "--csv", str(out),
                            "--json", str(agg)],
              "descriptors": ["--mesh", mesh, "-o", str(out)]}[command]
    res = runner.invoke(main, [command, *inputs, "--descriptors", names])
    assert res.exit_code == 2, all_output(res)
    assert "descriptors must be one or more of" in all_output(res)
    assert not out.exists() and not agg.exists()


def test_k_beyond_physical_memory_exits_2_before_reading_meshes(
        runner, tmp_path, monkeypatch):
    # a solve holds about 5 k^4 doubles: with 100 pages of 4 KiB reported,
    # k = 10 (0.40 MB) fits and k = 12 (0.83 MB) does not
    sysconf, pages = os.sysconf, {"SC_PHYS_PAGES": 100, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages.get(name) or sysconf(name))
    assert RunConfig(k=10).k == 10
    absent, out = str(tmp_path / "absent.ply"), tmp_path / "map.json"
    res = runner.invoke(main, ["match", "--source", absent, "--target",
                               absent, "-k", "12", "-o", str(out)])
    assert res.exit_code == 2, all_output(res)  # a missing mesh exits 3
    assert "physical memory" in all_output(res)
    assert not out.exists()

    def unknown(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "sysconf", unknown)
    assert RunConfig(k=12).k == 12  # no bound where sysconf cannot tell


@pytest.mark.parametrize("command", ["eval", "benchmark"])
def test_mesh_ply_directory_exits_3(runner, sphere_dataset, tmp_path,
                                    command):
    root, dirs, m = sphere_dataset
    (dirs[0] / "mesh.ply").unlink()
    (dirs[0] / "mesh.ply").mkdir()
    n = m.n_vertices
    map_path = tmp_path / "ident.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    args = {"eval": ["--map", str(map_path), "--source-instance",
                     str(dirs[0]), "--target-instance", str(dirs[1])],
            "benchmark": ["--dataset", str(root), "--csv",
                          str(tmp_path / "r.csv"), "--json",
                          str(tmp_path / "a.json")]}[command]
    res = runner.invoke(main, [command, *args])
    assert res.exit_code == 3, all_output(res)
    assert "mesh.ply" in all_output(res) and "directory" in all_output(res)


PLY_ASCII_HEADER = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "element face 1\n"
                    "property list uchar int vertex_indices\nend_header\n")


@pytest.mark.parametrize("name, text, where", [
    ("bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nx 0 1 2\n", "bad.off:6"),
    ("short.ply", PLY_ASCII_HEADER + "0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
     "short.ply:11"),
    ("quad.ply", PLY_ASCII_HEADER.replace("vertex 3", "vertex 4")
     + "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n", "triangle faces"),
    ("c.off", "COFF\n3 1 0\n0 0 0 1 0 0 1\n1 0 0 0 1 0 1\n0 1 0 0 0 1 1\n"
     "3 0 1 2\n", "c.off:1"),
    ("d.ply", None, "is a directory"),
], ids=["off-bad-face-count", "ply-short-vertex-row", "ply-quad",
        "off-color-header", "directory"])
def test_match_malformed_mesh_exits_3(runner, tmp_path, name, text, where):
    p = tmp_path / name
    if text is None:
        p.mkdir()
    else:
        p.write_text(text)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 3, all_output(res)
    assert where in all_output(res)
    assert name in all_output(res)


def test_input_name_too_long_exits_3(runner, tmp_path):
    p = str(tmp_path / ("a" * 300 + ".ply"))
    res = runner.invoke(main, ["match", "--source", p, "--target", p,
                               "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 3, all_output(res)
    assert "File name too long" in all_output(res)


def test_benchmark_dataset_name_too_long_exits_3(runner, tmp_path):
    res = runner.invoke(main, ["benchmark", "--dataset",
                               str(tmp_path / ("a" * 300)), "--csv",
                               str(tmp_path / "r.csv"), "--json",
                               str(tmp_path / "a.json")])
    assert res.exit_code == 3, all_output(res)
    assert "File name too long" in all_output(res)


@pytest.mark.parametrize("command", ["eval", "transfer-color",
                                     "transfer-keypoints"])
def test_missing_map_exits_3(runner, sphere_dataset, tmp_path, command):
    _, dirs, _ = sphere_dataset
    mesh = str(dirs[0] / "remeshed.ply")
    kp_path = tmp_path / "kp.json"
    kp_path.write_text(json.dumps([{"label": "tip", "vertex": 5}]))
    args = {"eval": ["--source-instance", str(dirs[0]),
                     "--target-instance", str(dirs[1])],
            "transfer-color": ["--source-textured", mesh, "--source", mesh,
                               "--target", mesh, "-o",
                               str(tmp_path / "o.ply")],
            "transfer-keypoints": ["--source", mesh, "--target", mesh,
                                   "--keypoints", str(kp_path), "-o",
                                   str(tmp_path / "o.json")]}[command]
    for kind in ("missing", "directory"):
        res = runner.invoke(main, [command, "--map",
                                   str(tmp_path / "absent.json"), *args])
        assert res.exit_code == 3, (kind, all_output(res))
        assert "absent.json" in all_output(res)
        (tmp_path / "absent.json").mkdir(exist_ok=True)


OUTPUT_COMMANDS = {
    "match": ["match", "--source", "{in}.ply", "--target", "{in}.ply",
              "-o", "{out}"],
    "descriptors": ["descriptors", "--mesh", "{in}.ply", "-o", "{out}"],
    "transfer-color": ["transfer-color", "--source-textured", "{in}.ply",
                       "--source", "{in}.ply", "--target", "{in}.ply",
                       "--map", "{in}.json", "-o", "{out}"],
    "transfer-keypoints": ["transfer-keypoints", "--source", "{in}.ply",
                           "--target", "{in}.ply", "--keypoints",
                           "{in}.json", "--map", "{in}.json", "-o", "{out}"],
    "benchmark-csv": ["benchmark", "--dataset", "{in}", "--csv", "{out}",
                      "--json", "{tmp}/a.json"],
    "benchmark-json": ["benchmark", "--dataset", "{in}", "--csv",
                       "{tmp}/r.csv", "--json", "{out}"],
}


@pytest.mark.parametrize("bad, message", [
    ("missing/out.ply", "does not exist"), ("", "is a directory"),
    ("a" * 300, "File name too long")],
    ids=["missing-directory", "directory", "name-too-long"])
@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_unwritable_output_exits_2_before_any_work(runner, tmp_path, command,
                                                   bad, message):
    # every input is absent, so a command that read one before checking its
    # output would exit 3 instead
    args = [a.format(**{"in": str(tmp_path / "absent"),
                        "out": str(tmp_path / bad), "tmp": str(tmp_path)})
            for a in OUTPUT_COMMANDS[command]]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, all_output(res)
    assert message in all_output(res)


def with_unreferenced_vertex(m):
    """``m`` plus one vertex that no triangle uses: its area is zero."""
    return TriMesh(np.vstack([m.vertices, [[2.0, 2.0, 0.0]]]), m.triangles)


def test_zero_area_vertex_exits_3(runner, tmp_path):
    # the weld keeps every vertex, so every path meets the unreferenced one
    m = with_unreferenced_vertex(strong_bump_grid(8))
    p, feat = tmp_path / "m.ply", tmp_path / "f.dmf"
    save_mesh(p, m)
    res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                               "-o", str(feat)])
    assert res.exit_code == 3, all_output(res)
    assert "1 vertices have zero or non-finite area" in all_output(res)
    assert not feat.exists()

    f = FeatureField(np.random.default_rng(0).random((m.n_vertices, 4)))
    write_features(feat, f)
    out = tmp_path / "o.json"
    for files in ([], ["--source-features", str(feat),
                       "--target-features", str(feat)]):
        res = runner.invoke(main, ["match", "--source", str(p), "--target",
                                   str(p), *files, "-o", str(out)])
        assert res.exit_code == 3, all_output(res)
        assert "1 vertices have zero or non-finite area" in all_output(res)
        assert not out.exists()
    with pytest.raises(DegenerateGeometryError,
                       match="1 vertices have zero or non-finite area"):
        match_meshes(m, m, RunConfig(), f, f)


@pytest.mark.parametrize("source, target, code, message", [
    ("unreferenced", "good", 3, "zero or non-finite area"),
    ("small", "good", 2, "k=10 exceeds mesh vertex count 9"),
    ("unreferenced", "small", 3, "zero or non-finite area"),
], ids=["unreferenced-vertex", "k-above-n", "both-bad"])
def test_match_reports_the_source_error(runner, tmp_path, source, target,
                                        code, message):
    meshes = {"good": strong_bump_grid(8), "small": grid_patch(3, 3),
              "unreferenced": with_unreferenced_vertex(strong_bump_grid(8))}
    args = ["match", "-o", str(tmp_path / "o.json")]
    for side, name in (("source", source), ("target", target)):
        save_mesh(tmp_path / f"{side}.ply", meshes[name])
        args += [f"--{side}", str(tmp_path / f"{side}.ply")]
    res = runner.invoke(main, args)
    assert res.exit_code == code, all_output(res)
    assert message in all_output(res)
    assert not (tmp_path / "o.json").exists()


def test_benchmark_names_zero_area_error(runner, tmp_path):
    root = tmp_path / "data"
    good = strong_bump_grid(8)
    bad = with_unreferenced_vertex(good)
    make_instance(root, "grids", "good", good, octant_groups(good))
    make_instance(root, "grids", "bad", bad, octant_groups(bad))
    res = runner.invoke(main, [
        "benchmark", "--dataset", str(root), "--csv", str(tmp_path / "r.csv"),
        "--json", str(tmp_path / "a.json")])
    assert res.exit_code == 0, all_output(res)
    rows = benchmark_rows(tmp_path / "r.csv")
    failed = [r for r in rows if r["failed"] == "1"]
    assert len(rows) == 4 and len(failed) == 3
    assert all(r["error"].startswith("DegenerateGeometryError: ")
               for r in failed)


@pytest.mark.parametrize("option", ["--alpha", "--beta", "--w-sum"])
def test_overflowing_weight_exits_4(runner, tmp_path, option):
    # a weight of 1e308 is finite, but it overflows H to inf; the solve
    # refuses that before any factorization, with no numpy warning
    p, out = tmp_path / "m.ply", tmp_path / "o.json"
    save_mesh(p, bumpy_grid(8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["match", "--source", str(p), "--target",
                                   str(p), option, "1e308", "-o", str(out)])
    assert res.exit_code == 4, all_output(res)
    assert "the objective overflows" in all_output(res)
    assert caught == [] and "Warning" not in all_output(res)
    assert not out.exists()


def test_benchmark_of_failed_pairs_writes_null_means(runner, tmp_path):
    # k = 10 exceeds both meshes' 4 vertices, so every pair fails; no
    # mean exists, and JSON has null for it, not NaN
    root = tmp_path / "data"
    tiny = grid_patch(2, 2)
    for name in ("a", "b"):
        make_instance(root, "tiny", name, tiny, octant_groups(tiny))
    json_path = tmp_path / "a.json"
    res = runner.invoke(main, [
        "benchmark", "--dataset", str(root), "--csv", str(tmp_path / "r.csv"),
        "--json", str(json_path), "--log-json"])
    assert res.exit_code == 0, all_output(res)
    assert "tiny: pairs 4  err nan  auc nan" in res.output
    assert json_path.read_text() == ('{\n "tiny": {\n  "auc_mean": null,\n'
                                     '  "err_mean": null\n }\n}\n')
    line = [line for line in res.output.splitlines()
            if line.startswith("{")][0]
    assert "NaN" not in line
    assert json.loads(line)["err_mean"] is None


def test_json_writers_refuse_non_finite_numbers(tmp_path, capsys):
    from meshcorr.cli import _log
    from meshcorr.errors import write_json
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "a.json", {"err_mean": value})
        with pytest.raises(ValueError, match="not JSON compliant"):
            _log(True, err=value)
    assert not (tmp_path / "a.json").exists()
    assert capsys.readouterr().out == ""


def test_readme_cli_section_names_the_options_there_are():
    # every option the CLI section names exists, and every option of
    # every command is named there under one of its aliases
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("## CLI")
    section = readme[start:readme.index("\n## ", start)]
    named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", section))
    aliases = [set(param.opts) for command in main.commands.values()
               for param in command.params]
    assert named - set().union({"--help"}, *aliases) == set()
    assert [sorted(a) for a in aliases if not a & named] == []
