"""The program paths that the benchmark's workloads call directly rather
than through the CLI: ``pair-match``'s partial cuts go through
``build_problem`` and ``solve_partial``, the tracer reads the partial
solution and ``benchmark_category``'s ``jobs``, and ``eval-transfer``'s
map files are written by ``save_map``."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import inputs as gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

from meshcorr.funcmap import load_map  # noqa: E402


def test_solve_cut_passes_the_benchmark_check():
    sphere = gen.icosphere(2)
    part = gen.submesh(sphere, sphere.vertices[:, 2] > -0.05)
    result = workloads.solve_cut(part, sphere)
    case = ("partial", "r0/partial-z", part, sphere)
    pair = workloads.PairMatch._check_partial(case, 0.0, result)
    assert pair.failed == "" and pair.signature
    span = tracing.Span(1, "funcmap.solve_partial", None, "r0/partial-z")
    tracing._solve_partial(tracing.Tracer(), span, {}, result)
    assert span.info == {"rounds": 1}


def test_store_map_round_trips_through_load_map(tmp_path):
    t2s = np.array([3, 0, 2, 2, 1], dtype=np.int64)
    path = tmp_path / "map.json"
    workloads.store_map(path, t2s)
    fmap, pmap, weights = load_map(path)
    np.testing.assert_array_equal(pmap.target_to_source, t2s)
    np.testing.assert_array_equal(pmap.confidence, np.ones(len(t2s)))
    np.testing.assert_array_equal(fmap.C, np.eye(10))
    assert weights == workloads.funcmap.FmapWeights().as_dict()


def test_tracer_reads_jobs_of_benchmark_category(tmp_path):
    tree = tmp_path / "tree"
    for i, nx in enumerate((6, 7, 8)):
        workloads.write_instance(tree / "grids" / f"g{i}", gen.bumpy_grid(nx))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = workloads.invoke(
            tracer, "benchmark", "--dataset", tree, "--csv",
            tmp_path / "r.csv", "--json", tmp_path / "a.json", "--jobs", 2)
    finally:
        tracer.uninstall()
    assert code == 0, err
    [cat] = [s for s in tracer.spans
             if s.name == "evalbench.benchmark_category"]
    assert cat.info["jobs"] == 2 and cat.info["pair_wall_s"] > 0
