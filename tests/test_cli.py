import csv
import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from meshcorr import spectral
from meshcorr.cli import main
from meshcorr.evalbench import (benchmark_category, load_dataset,
                                write_results_csv)
from meshcorr.funcmap import FmapWeights, FunctionalMap, PointMap, save_map
from meshcorr.geodesics import save_groups
from meshcorr.mesh import normalize_mesh
from meshcorr.meshio import load_mesh, save_mesh
from meshcorr.pipeline import RunConfig, match_meshes

from conftest import grid_patch, icosphere, octant_groups


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
                               "hks", "--recovery", "nearest"])
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
                                   "hks", "--max-iter", "50"])
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


def test_match_missing_feature_file_exits_3(runner, tmp_path):
    m = strong_bump_grid(6)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    missing = tmp_path / "absent.dmf"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(missing),
                               "--target-features", str(missing),
                               "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 3
    assert "absent.dmf" in all_output(res)


def test_match_bad_weight_exits_2(runner, tmp_path):
    m = strong_bump_grid(6)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(tmp_path / "o.json"),
                               "--alpha", "-1"])
    assert res.exit_code == 2


def test_descriptors_command_and_external_features(runner, tmp_path):
    m = strong_bump_grid(10)
    p = tmp_path / "m.ply"
    save_mesh(p, m)
    feat = tmp_path / "m.dmf"
    res = runner.invoke(main, ["descriptors", "--mesh", str(p), "--hks",
                               "16", "-k", "40", "--no-preprocess",
                               "-o", str(feat)])
    assert res.exit_code == 0, all_output(res)
    from meshcorr.features import load_features
    bundle = load_features(feat, expected_n=m.n_vertices)
    assert bundle.values.shape == (m.n_vertices, 16)

    out = tmp_path / "map.json"
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "--source-features", str(feat),
                               "--target-features", str(feat),
                               "-o", str(out), "--recovery", "nearest"])
    assert res.exit_code == 0, all_output(res)
    assert out.exists()

    res = runner.invoke(main, ["descriptors", "--mesh", str(p),
                               "-o", str(feat)])
    assert res.exit_code == 2  # no descriptor family chosen


@pytest.mark.parametrize("flag", ["--hks", "--wks"])
def test_descriptors_zero_samples_exits_2(runner, tmp_path, flag):
    p = tmp_path / "m.ply"
    save_mesh(p, strong_bump_grid(6))
    feat = tmp_path / "m.dmf"
    res = runner.invoke(main, ["descriptors", "--mesh", str(p), flag, "0",
                               "-o", str(feat)])
    assert res.exit_code == 2, all_output(res)
    assert not feat.exists()


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


@pytest.mark.parametrize("text", ["{not json", '["spheres/a"]'],
                         ids=["not-json", "not-an-object"])
def test_benchmark_bad_splits_exits_3(runner, sphere_dataset, tmp_path,
                                      text):
    root, _, _ = sphere_dataset
    (root / "splits.json").write_text(text)
    res = runner.invoke(main, ["benchmark", "--dataset", str(root), "--csv",
                               str(tmp_path / "r.csv"), "--json",
                               str(tmp_path / "agg.json")])
    assert res.exit_code == 3, all_output(res)
    assert "splits.json" in all_output(res)


def test_benchmark_command(runner, sphere_dataset, tmp_path):
    root, dirs, m = sphere_dataset
    csv_path = tmp_path / "results.csv"
    json_path = tmp_path / "agg.json"
    res = runner.invoke(main, ["benchmark", "--dataset", str(root),
                               "--csv", str(csv_path), "--json",
                               str(json_path), "--max-iter", "60",
                               "--descriptors", "posenc",
                               "--recovery", "nearest"])
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
    calls = []
    eigenbasis = spectral.eigenbasis

    def counted(*args, **kwargs):
        calls.append(1)
        return eigenbasis(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigenbasis", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more chances to race
    try:
        res = runner.invoke(main, [
            "benchmark", "--dataset", str(grid_dataset), "--csv",
            str(tmp_path / "r.csv"), "--json", str(tmp_path / "a.json"),
            "--jobs", str(jobs)])
    finally:
        sys.setswitchinterval(interval)
    assert res.exit_code == 0, all_output(res)
    assert len(calls) == 3

    # the same rows as matching every pair from scratch
    config = RunConfig(preprocess=False)

    def per_pair(src, tgt):
        return match_meshes(normalize_mesh(src.remeshed),
                            normalize_mesh(tgt.remeshed), config).pmap

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
    tex_path = tmp_path / "tex.ply"
    plain_path = tmp_path / "plain.ply"
    save_mesh(tex_path, textured)
    save_mesh(plain_path, m)
    map_path = tmp_path / "map.json"
    save_map(map_path, FunctionalMap(np.eye(10), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    out = tmp_path / "colored.ply"
    res = runner.invoke(main, ["transfer-color", "--source-textured",
                               str(tex_path), "--source", str(plain_path),
                               "--target", str(plain_path), "--map",
                               str(map_path), "-o", str(out)])
    assert res.exit_code == 0, all_output(res)
    from meshcorr.meshio import load_mesh
    np.testing.assert_allclose(load_mesh(out).colors,
                               load_mesh(tex_path).colors)


@pytest.mark.parametrize("text", [
    "{not json",
    '{"C": [[1.0]], "confidence": [1.0], "objective": 0.0, '
    '"converged": true, "iterations": 0}',
    '{"C": [[1.0]], "target_to_source": [0], "confidence": [1.0], '
    '"objective": 0.0, "iterations": 0}',
    '{"C": [[1.0]], "target_to_source": [0], "confidence": [1.0], '
    '"objective": 0.0, "converged": true}',
    '{"C": [[1.0, 0.0]], "target_to_source": [0], "confidence": [1.0], '
    '"objective": 0.0, "converged": true, "iterations": 0}',
    '{"C": [1.0], "target_to_source": [0], "confidence": [1.0], '
    '"objective": 0.0, "converged": true, "iterations": 0}',
], ids=["bad-json", "no-target_to_source", "no-converged", "no-iterations",
        "C-not-square", "C-not-2-D"])
def test_transfer_color_malformed_map_exits_3(runner, tmp_path, text):
    m = strong_bump_grid(6)
    tex_path = tmp_path / "tex.ply"
    save_mesh(tex_path, m.with_colors(np.ones((m.n_vertices, 3))))
    map_path = tmp_path / "map.json"
    map_path.write_text(text)
    res = runner.invoke(main, ["transfer-color", "--source-textured",
                               str(tex_path), "--source", str(tex_path),
                               "--target", str(tex_path), "--map",
                               str(map_path), "-o", str(tmp_path / "o.ply")])
    assert res.exit_code == 3, all_output(res)
    assert "map.json" in all_output(res)


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
    assert asked == [10, 10]  # only the basis the map lives in
    # the basis size is the map's k, which must fit the mesh
    save_map(map_path, FunctionalMap(np.eye(n + 1), True, 0.0, 0),
             PointMap(np.arange(n), np.ones(n)), FmapWeights())
    asked.clear()
    res = runner.invoke(main, args)
    assert res.exit_code == 2, all_output(res)
    assert asked == [n + 1]
    res = runner.invoke(main, ["transfer-keypoints", "--help"])
    assert "--basis-size" not in res.output


@pytest.mark.parametrize("text, code", [
    (None, 3), ('[{"vertex": 5}]', 3), ('[{"label": "a", "vertex": "x"}]', 3),
    ('{"label": "a", "vertex": 5}', 3), ('["a"]', 3),
    ('[{"label": "a", "xyz": "up"}]', 3),
    ('[{"label": "a", "vertex": 999}]', 2), ('[{"label": "a"}]', 2),
    ('[{"label": "a", "xyz": [9, 9, 9]}]', 2), ("[]", 2),
    ('[{"label": "a", "vertex": 2.7}]', 3),
    ('[{"label": "a", "vertex": true}]', 3),
    ('[{"label": "a", "vertex": "3"}]', 3),
], ids=["missing", "no-label", "vertex-not-int", "not-a-list",
        "entry-not-an-object", "xyz-not-a-point", "vertex-out-of-range",
        "no-vertex-or-xyz", "xyz-beyond-snap", "empty", "vertex-fractional",
        "vertex-bool", "vertex-numeric-string"])
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


@pytest.mark.parametrize("command, args", [
    ("match", ["-k", "0"]),
    ("descriptors", ["--hks", "4", "-k", "0"]),
    ("benchmark", ["--jobs", "0"]),
    ("benchmark", ["--jobs", "-3"]),
], ids=["match-k", "descriptors-k", "benchmark-jobs-0", "benchmark-jobs-neg"])
def test_sizes_below_one_exit_2(runner, sphere_dataset, tmp_path, command,
                                args):
    root, dirs, _ = sphere_dataset
    mesh = str(dirs[0] / "remeshed.ply")
    out = tmp_path / "out"
    inputs = {"match": ["--source", mesh, "--target", mesh, "-o", str(out)],
              "descriptors": ["--mesh", mesh, "-o", str(out)],
              "benchmark": ["--dataset", str(root), "--csv", str(out),
                            "--json", str(tmp_path / "agg.json")]}[command]
    res = runner.invoke(main, [command, *inputs, *args])
    assert res.exit_code == 2, all_output(res)
    assert not out.exists()


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
], ids=["off-bad-face-count", "ply-short-vertex-row", "ply-quad"])
def test_match_malformed_mesh_exits_3(runner, tmp_path, name, text, where):
    p = tmp_path / name
    p.write_text(text)
    res = runner.invoke(main, ["match", "--source", str(p), "--target",
                               str(p), "-o", str(tmp_path / "o.json")])
    assert res.exit_code == 3, all_output(res)
    assert where in all_output(res)


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
    res = runner.invoke(main, [command, "--map", str(tmp_path / "absent.json"),
                               *args])
    assert res.exit_code == 3, all_output(res)
    assert "absent.json" in all_output(res)
