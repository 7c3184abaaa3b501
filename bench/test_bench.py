"""Checks of the benchmark itself: seeded inputs, constructions, metric
names, and the tracer's wrapping."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs as gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _tests_conftest():
    spec = importlib.util.spec_from_file_location(
        "meshcorr_tests_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(tmp_path, name):
    made = {}
    for seed, tag in ((7, "a"), (7, "b"), (8, "c")):
        w = workloads.WORKLOADS[name](seed)
        w.generate(tmp_path / tag, 2)
        made[tag] = (w, _files(tmp_path / tag))
    assert made["a"][1] and made["a"][1] == made["b"][1]
    assert made["a"][1] != made["c"][1]


def test_constructions_are_the_tests_constructions():
    ref = _tests_conftest()
    pairs = [(gen.torus(50, 40), ref.torus(50, 40)),
             (gen.bumpy_grid(24), ref.bumpy_grid(24)),
             (gen.icosphere(3), ref.icosphere(3))]
    for ours, theirs in pairs:
        np.testing.assert_allclose(ours.vertices, theirs.vertices,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ours.triangles, theirs.triangles)
    m = gen.bumpy_grid(20)
    ours, theirs = gen.octant_groups(m), ref.octant_groups(m)
    renumber = np.unique(ours.group_of, return_inverse=True)[1]
    np.testing.assert_array_equal(renumber, theirs.group_of)


def test_perturbations_keep_the_mesh_and_track_the_permutation():
    rng = gen.rng_for(3, 0)
    base = gen.bumpy_grid(12)
    moved, perm = gen.permute(gen.rotate(gen.jitter(base, rng), rng), rng)
    assert sorted(perm) == list(range(base.n_vertices))
    e = base.edges()
    shortest = np.linalg.norm(base.vertices[e[:, 0]]
                              - base.vertices[e[:, 1]], axis=1).min()
    # rotation keeps lengths: compare edge lengths of both meshes
    lengths = np.linalg.norm(moved.vertices[moved.edges()[:, 0]]
                             - moved.vertices[moved.edges()[:, 1]], axis=1)
    assert lengths.min() > (1 - 4 * gen.JITTER_FRACTION) * shortest


def test_benchmark_json_names_the_metrics_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    times = list(range(1, 33))
    value, name = run.tail(times)
    assert sum(t > value for t in times) == 10 and name == "p68 of 32"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_tracer_records_nested_spans_and_restores_the_functions():
    from meshcorr import funcmap, pipeline

    original = pipeline.solve_fmap
    t = tracing.Tracer()
    t.install()
    try:
        assert pipeline.solve_fmap is not original
        assert pipeline.solve_fmap is funcmap.solve_fmap
        m = gen.bumpy_grid(6)
        config = pipeline.RunConfig(descriptors=("hks",), max_iter=5)
        with t.span("bench.pair", "p0"):
            pipeline.match_meshes(m, m, config)
    finally:
        t.uninstall()
    assert pipeline.solve_fmap is original
    by_id = {s.id: s for s in t.spans}
    objective = [s for s in t.spans if s.name == "funcmap.fmap_objective"]
    assert objective and all(
        by_id[s.parent].name == "funcmap.solve_fmap" for s in objective)
    assert {s.pair for s in t.spans} == {"p0"}
    metrics = tracing.layer_metrics(t.spans, 1, tracing.term_costs(t.solved),
                                    0.0, 1.0)
    assert metrics["funcmap.solve_fmap.nfev"] == len(objective)
    assert metrics["spectral.eigenbasis.reuse_ratio"] == 0.5
