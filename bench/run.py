"""meshcorr benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload pair-match --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory, never from an installed copy. With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it runs half the rounds with every public function of the program
wrapped in a span, runs the same rounds again untraced, checks that both
gave the same outputs, and prints the per-layer metrics. The last line
of standard output is the JSON result; the lines before it are a
readable table and the machine facts. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS threads must be pinned before numpy loads: with two threads the
# solver's iteration counts change from run to run.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {  # name -> unit, as in BENCHMARK.json
    "setup_s": "s", "pairs_per_s": "1/s", "pair_s_p50": "s",
    "pair_s_tail": "s", "peak_rss_mb": "MB", "err_mean": "%",
    "auc_mean": "ratio", "ok_frac": "ratio",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def loadavg():
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_facts():
    import ctypes
    from importlib.metadata import version

    import numpy as np
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):  # each wheel bundles its own OpenBLAS
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in libs.glob("libscipy_openblas*.so*"):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads[pkg.__name__] = getattr(handle, symbol)()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "click": version("click"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "blas_env": {v: os.environ.get(v) for v in BLAS_ENV}}


def tail(times):
    """Highest percentile with at least 10 samples beyond it, with its
    name; below 11 samples no percentile has that, so the maximum."""
    t = sorted(times)
    n = len(t)
    if n <= 10:
        return t[-1], f"max of {n}"
    return t[n - 11], f"p{int(100 * (n - 10) / n)} of {n}"


def main():
    args = parse_args()
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "meshcorr" / "__init__.py").is_file():
        print(f"error: no meshcorr sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    load_start, steal_start = loadavg(), steal_s()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import meshcorr
    import workloads  # with numpy, scipy and click: timed as set-up
    import_s = time.perf_counter() - t0
    if not Path(meshcorr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: meshcorr imported from {meshcorr.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    rounds = max(1, round(args.seconds / workload.round_s))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = []
        for rep in range(SETUP_REPS):
            t = time.perf_counter()
            workload.generate(work / f"inputs{rep}", rounds)
            workload.warm_up(work / f"warm{rep}")
            setup.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup)
        if args.trace:
            result, table = traced_run(workload, rounds, args)
        else:
            result, table = timed_run(workload, rounds)
            result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                                 **result["metrics"]}
            table["setup_s"] = f"import {import_s:.3f} s + median of " \
                f"{SETUP_REPS} set-ups {statistics.median(setup):.3f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    facts["loadavg_start"], facts["loadavg_end"] = load_start, loadavg()
    facts["steal_s"] = round(steal_s() - steal_start, 2)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, correct {result['correct']}")
    for name, value in result["metrics"].items():
        note = table.get(name, "")
        print(f"  {name:44s} {value['value']:12.6g} {value['unit']:6s} {note}")
    for name, note in table.items():
        if name not in result["metrics"]:
            print(f"  {name:44s} {note}")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


def measure(workload, rounds, tag, tracer=None):
    t0 = time.perf_counter()
    records = [rec for r in range(rounds)
               for rec in workload.run_round(r, tag, tracer)]
    return records, time.perf_counter() - t0


def summary(pairs):
    failed = [p for p in pairs if p.failed]
    ok = [p for p in pairs if not p.failed and p.err is not None]
    err = statistics.fmean(p.err for p in ok) if ok else 0.0
    auc = statistics.fmean(p.auc for p in ok) if ok else 0.0
    return failed, err, auc


def timed_run(workload, rounds):
    records, wall = measure(workload, rounds, "a")
    pairs = workload.check(records)
    failed, err, auc = summary(pairs)
    n_quality = sum(p.err is not None for p in pairs)
    times = [p.wall_s for p in pairs]
    tail_s, tail_name = tail(times)
    values = {
        "pairs_per_s": len(pairs) / wall,
        "pair_s_p50": statistics.median(times),
        "pair_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "err_mean": err,
        "auc_mean": auc,
        "ok_frac": 1.0 - len(failed) / len(pairs),
    }
    table = {"pairs_per_s": f"{len(pairs)} pairs in {wall:.2f} s",
             "pair_s_p50": f"median of {len(times)}",
             "pair_s_tail": tail_name,
             "err_mean": f"mean over {n_quality} pairs",
             "failed_frac": f"{len(failed) / len(pairs):g} "
                            f"({len(failed)} of {len(pairs)})",
             "pair times": " ".join(f"{p.key}={p.wall_s:.2f}"
                                    for p in pairs)}
    for p in failed:
        table[f"failed {p.key}"] = p.failed
    result = {"correct": not failed, "attempted": len(pairs),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in values.items()}}
    return result, table


def traced_run(workload, rounds, args):
    import tracer as tracing

    half = max(1, rounds // 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records_t, wall_t = measure(workload, half, "t", tracer)
    finally:
        tracer.uninstall()
    records_u, wall_u = measure(workload, half, "u")
    traced, plain = workload.check(records_t), workload.check(records_u)
    failed = [p for p in traced + plain if p.failed]
    same = [(a.key, a.signature, a.err, a.auc) for a in traced] == \
        [(b.key, b.signature, b.err, b.auc) for b in plain]
    n = len(traced)
    metrics = tracing.layer_metrics(
        tracer.spans, n, tracing.term_costs(tracer.solved),
        (wall_t - wall_u) / n, wall_u / n)

    traces = ROOT / ".bench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{args.workload}-{args.seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.as_dict()) + "\n")

    _, err_t, auc_t = summary(traced)
    _, err_u, auc_u = summary(plain)
    table = {"trace": f"{len(tracer.spans)} spans over {n} pairs in "
                      f"{wall_t:.2f} s traced, {wall_u:.2f} s untraced",
             "outputs": "traced and untraced outputs identical" if same
             else "traced and untraced outputs DIFFER",
             "quality": f"err_mean {err_t:.6g} / {err_u:.6g}, "
                        f"auc_mean {auc_t:.6g} / {auc_u:.6g} "
                        "(traced / untraced)"}
    for p in failed:
        table[f"failed {p.key}"] = p.failed
    result = {"correct": same and not failed, "attempted": 2 * n,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                          for k, v in metrics.items()}}
    return result, table


if __name__ == "__main__":
    sys.exit(main())
