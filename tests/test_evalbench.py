import csv
import json
import threading

import numpy as np
import pytest

from meshcorr.errors import ArgumentError, EvaluationError, FormatError
from meshcorr.evalbench import (auc, benchmark_category, evaluate_pair,
                                geodesic_error, load_dataset, load_instance,
                                write_aggregates_json, write_results_csv)
from meshcorr.funcmap import PointMap
from meshcorr.geodesics import SemanticGroups, geodesic_matrix
from meshcorr.meshio import save_mesh
from meshcorr.mesh import vertex_areas

from conftest import (all_pairs_geodesics, grid_patch, icosphere,
                      octant_groups)


def grid_setup(n=6):
    m = grid_patch(n, n)
    geo = geodesic_matrix(m)
    rng = np.random.default_rng(0)
    groups = SemanticGroups(rng.integers(0, 4, size=m.n_vertices))
    return m, geo, groups


def test_geodesic_error_identity_is_zero():
    m, geo, groups = grid_setup()
    err = geodesic_error(np.arange(m.n_vertices), groups, groups, geo,
                         vertex_areas(m))
    np.testing.assert_allclose(err, 0.0)


def test_geodesic_error_oracle():
    # independent recomputation: distance from the match to the nearest
    # member of the target vertex's group, scaled by 100/sqrt(area)
    m, geo, groups = grid_setup()
    areas = vertex_areas(m)
    rng = np.random.default_rng(1)
    match = rng.integers(0, m.n_vertices, size=m.n_vertices)
    err = geodesic_error(match, groups, groups, geo, areas)
    d = all_pairs_geodesics(geo)
    for j in range(m.n_vertices):
        members = np.flatnonzero(groups.group_of == groups.group_of[j])
        want = d[match[j], members].min() * 100.0 / np.sqrt(areas.total)
        assert err[j] == pytest.approx(want)


def test_geodesic_error_missing_groups():
    m, geo, _ = grid_setup()
    areas = vertex_areas(m)
    n = m.n_vertices
    src = SemanticGroups(np.zeros(n, dtype=int))
    tgt_labels = np.zeros(n, dtype=int)
    tgt_labels[:5] = 7  # group absent on the source
    tgt = SemanticGroups(tgt_labels)
    err = geodesic_error(np.arange(n), src, tgt, geo, areas)
    assert np.isnan(err[:5]).all() and not np.isnan(err[5:]).any()
    with pytest.raises(EvaluationError):
        geodesic_error(np.arange(n), SemanticGroups(np.ones(n, dtype=int)),
                       SemanticGroups(np.zeros(n, dtype=int)), geo, areas)


def test_auc_perfect_and_uniform():
    curve, area = auc(np.zeros(100))
    assert area == pytest.approx(1.0)
    assert len(curve) == 100
    rng = np.random.default_rng(2)
    _, area = auc(rng.uniform(0, 25, size=20000))
    assert area == pytest.approx(0.5, abs=0.02)
    with pytest.raises(ArgumentError):
        auc([])


def test_auc_equals_the_broadcast_count():
    # errors with ties, some on a threshold: the curve and the area are
    # exactly those of comparing every error with every threshold
    rng = np.random.default_rng(6)
    thresholds = np.linspace(0.0, 25.0, 100)
    for n in (1, 7, 420):
        errors = np.round(rng.uniform(0.0, 30.0, size=n), 1)
        errors[: n // 3] = rng.choice(thresholds, size=n // 3)
        accuracy = (errors[None, :] <= thresholds[:, None]).mean(axis=1)
        curve, area = auc(errors)
        assert curve == list(zip(thresholds.tolist(), accuracy.tolist()))
        assert area == float(np.trapezoid(accuracy, thresholds) / 25.0)


def write_instance(root, category, name, mesh, groups):
    d = root / category / name
    d.mkdir(parents=True)
    save_mesh(d / "mesh.ply", mesh)
    save_mesh(d / "remeshed.ply", mesh)
    from meshcorr.geodesics import save_groups
    save_groups(d / "groups.json", groups)
    return d


@pytest.fixture()
def tiny_dataset(tmp_path):
    m = icosphere(1)
    groups = octant_groups(m)
    for name in ("a", "b"):
        write_instance(tmp_path, "spheres", name, m, groups)
    return tmp_path, m, groups


def test_load_dataset_and_geo_caching(tiny_dataset):
    root, m, groups = tiny_dataset
    instances = load_dataset(root)
    assert len(instances) == 2
    assert {i.name for i in instances} == {"a", "b"}
    assert "geo" not in vars(instances[0])  # built on first use
    # geodesics are computed in memory; nothing is written into the tree
    assert not (root / "spheres" / "a" / "geo.dgm").exists()
    np.testing.assert_array_equal(all_pairs_geodesics(instances[0].geo),
                                  all_pairs_geodesics(geodesic_matrix(m)))


def test_load_instance_needs_but_does_not_parse_mesh_ply(tiny_dataset):
    # evaluation reads remeshed.ply; mesh.ply is transfer-color's input
    root, m, _ = tiny_dataset
    (root / "spheres" / "a" / "mesh.ply").write_text("not a mesh")
    assert load_instance(root / "spheres" / "a").remeshed.n_vertices \
        == m.n_vertices
    (root / "spheres" / "a" / "mesh.ply").unlink()
    with pytest.raises(FormatError, match="mesh.ply"):
        load_instance(root / "spheres" / "a")


def test_load_dataset_splits(tiny_dataset):
    root, _, _ = tiny_dataset
    (root / "splits.json").write_text(
        json.dumps({"spheres/a": "train", "spheres/b": "test"}))
    assert [i.name for i in load_dataset(root, split="train")] == ["a"]
    assert [i.name for i in load_dataset(root, split="test")] == ["b"]


def identity_matcher(src, tgt):
    return PointMap(np.arange(tgt.remeshed.n_vertices),
                    np.ones(tgt.remeshed.n_vertices))


def test_evaluate_pair_and_failure_capture(tiny_dataset):
    root, _, _ = tiny_dataset
    a, b = load_dataset(root)
    res = evaluate_pair(a, b, identity_matcher)
    assert not res.failed
    assert res.err_mean == pytest.approx(0.0)
    assert res.auc == pytest.approx(1.0)
    assert res.coverage == 1.0

    def broken(src, tgt):
        raise RuntimeError("boom")

    res = evaluate_pair(a, b, broken)
    assert res.failed and res.message == "RuntimeError: boom"
    assert np.isnan(res.err_mean)


@pytest.mark.parametrize("jobs", [1, 8])
def test_benchmark_category_runs_pairs_in_order_on_calling_thread(
        tiny_dataset, jobs):
    root, _, _ = tiny_dataset
    calls = []

    def recording(src, tgt):
        calls.append((src.name, tgt.name, threading.get_ident()))
        return identity_matcher(src, tgt)

    benchmark_category(load_dataset(root), "spheres", recording, jobs=jobs)
    caller = threading.get_ident()
    assert calls == [(s, t, caller) for s in "ab" for t in "ab"]


def test_benchmark_category_and_outputs(tiny_dataset, tmp_path):
    root, _, _ = tiny_dataset
    instances = load_dataset(root)
    results, agg = benchmark_category(instances, "spheres", identity_matcher)
    assert len(results) == 4  # all ordered pairs incl. self-pairs
    assert agg["pairs"] == 4 and agg["failed"] == 0
    assert agg["err_mean"] == pytest.approx(0.0)
    assert agg["auc_mean"] == pytest.approx(1.0)
    with pytest.raises(ArgumentError):
        benchmark_category(instances, "cats", identity_matcher)

    # jobs does not change the rows or their order
    results8, _ = benchmark_category(instances, "spheres", identity_matcher,
                                     jobs=8)
    assert [r.pair for r in results8] == [r.pair for r in results]

    csv_path = tmp_path / "results.csv"
    write_results_csv(csv_path, results)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "target", "err", "auc", "coverage",
                       "failed", "error", "wall_ms"]
    assert len(rows) == 5
    assert rows[1][:2] == ["a", "a"]

    json_path = tmp_path / "agg.json"
    write_aggregates_json(json_path, {"spheres": agg})
    doc = json.loads(json_path.read_text())
    assert doc["spheres"]["auc_mean"] == pytest.approx(1.0)
