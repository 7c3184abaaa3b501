"""Span tracing of meshcorr's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a recording wrapper, in every ``meshcorr`` module namespace that
holds it: ``pipeline`` imports ``solve_fmap`` by name, ``cli`` and
``evalbench`` import ``load_mesh`` by name, and ``solve_fmap`` looks up
``fmap_objective`` as a module global, so wrapping only the defining
module would miss those calls. ``uninstall`` puts the originals back.

A span records name, start, end, parent span and pair id. Parents come
from a thread-local stack, since ``benchmark --jobs 2`` runs pairs on
worker threads. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

from meshcorr.funcmap import FmapWeights, fmap_objective

TRACED_MODULES = ("meshio", "mesh", "spectral", "pipeline", "funcmap",
                  "geodesics", "evalbench", "transfer")
MAX_COSTED_SOLVES = 6      # solved problems kept for the per-term costing


class Span:
    __slots__ = ("id", "name", "parent", "pair", "start", "end", "info")

    def __init__(self, id_, name, parent, pair):
        self.id, self.name, self.parent, self.pair = id_, name, parent, pair
        self.start = self.end = 0.0
        self.info = None

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "pair": self.pair, "start": self.start, "end": self.end,
                **(self.info or {})}


class Tracer:
    def __init__(self):
        self.spans = []
        self.solved = []       # (problem, C) of the first solves, for costing
        self.pair_prefix = ""  # set per round; worker threads read it
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []     # (namespace, attribute, original)

    # ---------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, pair=None):
        """Span around a call made by the benchmark itself."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if pair is None and parent is not None:
            pair = parent.pair
        s = Span(next(self._ids), name, parent.id if parent else None, pair)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)  # list.append is atomic under the GIL

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pair = None
            if name == "evalbench.evaluate_pair":  # root span on a worker
                pair = f"{self.pair_prefix}{args[0].name}>{args[1].name}"
            with self.span(name, pair) as s:
                result = fn(*args, **kwargs)
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, s, bound.arguments, result)
            return result

        return traced

    # ---------------------------------------------------- install/remove

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"meshcorr.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "meshcorr"
                                   or mod_name.startswith("meshcorr.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# ------------------------------------------------------------- probes
# Each probe stores what the per-layer metrics need from a call's
# arguments or result.

def _solve_fmap(tracer, span, args, result):
    span.info = {"nit": int(result.iterations),
                 "converged": bool(result.converged),
                 "max_iter": int(args["max_iter"])}
    if len(tracer.solved) < MAX_COSTED_SOLVES:
        tracer.solved.append((args["problem"], result.C))


def _solve_partial(tracer, span, args, result):
    span.info = {"rounds": int(result.rounds)}


def _eigenbasis(tracer, span, args, result):
    areas = args["A"].areas
    span.info = {"mesh": hashlib.blake2b(areas.tobytes(),
                                         digest_size=8).hexdigest()}


def _load_geodesic_matrix(tracer, span, args, result):
    span.info = {"MB": result.d.nbytes / 1e6}


def _load_mesh(tracer, span, args, result):
    span.info = {"MB": os.path.getsize(args["path"]) / 1e6}


def _benchmark_category(tracer, span, args, result):
    results, _ = result
    span.info = {"jobs": int(args["jobs"]),
                 "pair_wall_s": sum(r.wall_ms for r in results) / 1000.0}


PROBES = {
    "funcmap.solve_fmap": _solve_fmap,
    "funcmap.solve_partial": _solve_partial,
    "spectral.eigenbasis": _eigenbasis,
    "geodesics.load_geodesic_matrix": _load_geodesic_matrix,
    "meshio.load_mesh": _load_mesh,
    "evalbench.benchmark_category": _benchmark_category,
}


# ------------------------------------------------------------ metrics

PER_LAYER = {  # name -> (unit, better), as in BENCHMARK.json
    "funcmap.solve_fmap.s": ("s", "lower"),
    "funcmap.solve_fmap.nit": ("count", "lower"),
    "funcmap.solve_fmap.nfev": ("count", "lower"),
    "funcmap.solve_fmap.converged_frac": ("ratio", "higher"),
    "funcmap.solve_fmap.maxiter_frac": ("ratio", "lower"),
    "funcmap.solve_fmap.optimizer_s": ("s", "lower"),
    "funcmap.fmap_objective.ms": ("ms", "lower"),
    "funcmap.term.data.ms": ("ms", "lower"),
    "funcmap.term.isometry.ms": ("ms", "lower"),
    "funcmap.term.pointwise.ms": ("ms", "lower"),
    "funcmap.term.entropy.ms": ("ms", "lower"),
    "funcmap.term.sums.ms": ("ms", "lower"),
    "funcmap.build_problem.s": ("s", "lower"),
    "funcmap.recover_pointmap.s": ("s", "lower"),
    "funcmap.save_map.s": ("s", "lower"),
    "funcmap.solve_partial.s": ("s", "lower"),
    "funcmap.solve_partial.rounds": ("count", "lower"),
    "funcmap.solve_partial.nit": ("count", "lower"),
    "spectral.eigenbasis.s": ("s", "lower"),
    "spectral.eigenbasis.calls": ("count", "lower"),
    "spectral.eigenbasis.reuse_ratio": ("ratio", "higher"),
    "pipeline.match_meshes.s": ("s", "lower"),
    "pipeline.descriptor_stack.s": ("s", "lower"),
    "mesh.prepare.s": ("s", "lower"),
    "evalbench.benchmark_category.s": ("s", "lower"),
    "evalbench.benchmark_category.parallel_eff": ("ratio", "higher"),
    "evalbench.load_dataset.s": ("s", "lower"),
    "evalbench.geodesic_error.s": ("s", "lower"),
    "evalbench.auc.s": ("s", "lower"),
    "geodesics.geodesic_matrix.s": ("s", "lower"),
    "geodesics.geodesic_matrix.calls": ("count", "lower"),
    "geodesics.load_geodesic_matrix.s": ("s", "lower"),
    "geodesics.load_geodesic_matrix.MB": ("MB", "lower"),
    "meshio.load_mesh.s": ("s", "lower"),
    "meshio.load_mesh.MB": ("MB", "lower"),
    "meshio.save_mesh.s": ("s", "lower"),
    "transfer.transfer_colors.s": ("s", "lower"),
    "cli.invoke.s": ("s", "lower"),
    "trace.spans_per_pair": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

TERM_WEIGHTS = {"data": (), "isometry": ("alpha",), "pointwise": ("beta",),
                "entropy": ("w_entropy",), "sums": ("w_sum",)}


def term_costs(solved, reps=5):
    """Milliseconds per objective evaluation for each term at a solved C.

    As in the gradient-oracle acceptance check, each term is isolated by
    a problem whose weights are zero except that term's; the data term
    is always present, so its cost is the all-zero-weights evaluation
    and every other term's cost is the difference to it.
    """
    costs = {term: [] for term in TERM_WEIGHTS}
    for problem, C in solved:
        def timed(keep):
            w = problem.weights
            weights = FmapWeights(**{
                f: getattr(w, f) if f in keep else 0.0
                for f in ("alpha", "beta", "w_entropy", "w_sum")})
            single = dataclasses.replace(problem, weights=weights)
            samples = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fmap_objective(C, single)
                samples.append(time.perf_counter() - t0)
            return statistics.median(samples)

        base = timed(())
        for term, keep in TERM_WEIGHTS.items():
            costs[term].append(base if not keep else timed(keep) - base)
    return {term: 1000.0 * sum(v) / len(v) if v else 0.0
            for term, v in costs.items()}


def layer_metrics(spans, n_pairs, term_ms, overhead_s, untraced_pair_s):
    """Per-layer figures of one traced run, keyed as in BENCHMARK.json.

    ``<layer>.s`` is mean seconds per call including callees;
    ``.calls`` is calls per pair; a layer the workload never calls
    reads 0.
    """
    by_name = {}
    child_s = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.dur
    names = {s.id: s.name for s in spans}

    def calls(name):
        return by_name.get(name, [])

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def mean_s(name):
        return mean(s.dur for s in calls(name))

    def self_s(s):
        return s.dur - child_s.get(s.id, 0.0)

    solves = calls("funcmap.solve_fmap")
    solve_ids = {s.id for s in solves}
    nfev = sum(1 for s in calls("funcmap.fmap_objective")
               if s.parent in solve_ids)
    partial = calls("funcmap.solve_partial")
    partial_nit = {s.id: 0 for s in partial}
    for s in solves:
        if s.parent in partial_nit:
            partial_nit[s.parent] += s.info["nit"]
    eig = calls("spectral.eigenbasis")
    cats = calls("evalbench.benchmark_category")
    mesh_s = sum(s.dur for s in spans if s.name.startswith("mesh.")
                 and not names.get(s.parent, "").startswith("mesh."))
    per_pair = max(n_pairs, 1)

    m = {
        "funcmap.solve_fmap.s": mean_s("funcmap.solve_fmap"),
        "funcmap.solve_fmap.nit": mean(s.info["nit"] for s in solves),
        "funcmap.solve_fmap.nfev": nfev / len(solves) if solves else 0.0,
        "funcmap.solve_fmap.converged_frac":
            mean(float(s.info["converged"]) for s in solves),
        "funcmap.solve_fmap.maxiter_frac":
            mean(float(s.info["nit"] >= s.info["max_iter"]) for s in solves),
        "funcmap.solve_fmap.optimizer_s": mean(self_s(s) for s in solves),
        "funcmap.fmap_objective.ms":
            1000.0 * mean(self_s(s) for s in calls("funcmap.fmap_objective")),
        "funcmap.build_problem.s": mean_s("funcmap.build_problem"),
        "funcmap.recover_pointmap.s": mean_s("funcmap.recover_pointmap"),
        "funcmap.save_map.s": mean_s("funcmap.save_map"),
        "funcmap.solve_partial.s": mean_s("funcmap.solve_partial"),
        "funcmap.solve_partial.rounds": mean(s.info["rounds"]
                                             for s in partial),
        "funcmap.solve_partial.nit": mean(partial_nit.values()),
        "spectral.eigenbasis.s": mean_s("spectral.eigenbasis"),
        "spectral.eigenbasis.calls": len(eig) / per_pair,
        "spectral.eigenbasis.reuse_ratio":
            len({s.info["mesh"] for s in eig}) / len(eig) if eig else 0.0,
        "pipeline.match_meshes.s": mean_s("pipeline.match_meshes"),
        "pipeline.descriptor_stack.s": mean_s("pipeline.descriptor_stack"),
        "mesh.prepare.s": mesh_s / per_pair,
        "evalbench.benchmark_category.s":
            mean_s("evalbench.benchmark_category"),
        "evalbench.benchmark_category.parallel_eff":
            sum(s.info["pair_wall_s"] for s in cats)
            / sum(s.info["jobs"] * s.dur for s in cats) if cats else 0.0,
        "evalbench.load_dataset.s": mean_s("evalbench.load_dataset"),
        "evalbench.geodesic_error.s": mean_s("evalbench.geodesic_error"),
        "evalbench.auc.s": mean_s("evalbench.auc"),
        "geodesics.geodesic_matrix.s": mean_s("geodesics.geodesic_matrix"),
        "geodesics.geodesic_matrix.calls":
            len(calls("geodesics.geodesic_matrix")) / per_pair,
        "geodesics.load_geodesic_matrix.s":
            mean_s("geodesics.load_geodesic_matrix"),
        "geodesics.load_geodesic_matrix.MB":
            mean(s.info["MB"] for s in calls("geodesics.load_geodesic_matrix")),
        "meshio.load_mesh.s": mean_s("meshio.load_mesh"),
        "meshio.load_mesh.MB":
            mean(s.info["MB"] for s in calls("meshio.load_mesh")),
        "meshio.save_mesh.s": mean_s("meshio.save_mesh"),
        "transfer.transfer_colors.s": mean_s("transfer.transfer_colors"),
        "cli.invoke.s": mean(self_s(s) for s in calls("cli.invoke")),
        "trace.spans_per_pair": len(spans) / per_pair,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac":
            overhead_s / untraced_pair_s if untraced_pair_s else 0.0,
    }
    for term, ms in term_ms.items():
        m[f"funcmap.term.{term}.ms"] = ms
    return {name: m[name] for name in PER_LAYER}
