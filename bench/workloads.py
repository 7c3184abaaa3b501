"""The benchmark's three workloads.

Each is a closed loop with one client in one process: the next pair
starts when the previous one has finished. A workload generates its
inputs under a directory (``generate``), warms up on tiny inputs
(``warm_up``), runs one round of pairs (``run_round``, the timed part,
which only calls the program and keeps raw results), and then checks
those results (``check``, untimed), turning them into ``Pair`` records.

The program is called through its public entry points, looked up as
module attributes at call time so that a tracer installed on those
modules sees every call: the ``meshcorr`` CLI commands through
``cli.main`` and, because it has no CLI command, ``funcmap.solve_partial``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from scipy.spatial import cKDTree

import inputs as gen
from meshcorr import cli, evalbench, funcmap, mesh, meshio, spectral
from meshcorr.geodesics import SemanticGroups, geodesic_matrix


@dataclass
class Pair:
    key: str
    wall_s: float
    failed: str = ""        # why the pair counts as failed; empty if it passed
    signature: bytes = b""  # output that traced and untraced runs must share
    err: float | None = None
    auc: float | None = None


def span(tracer, name, pair=None):
    return tracer.span(name, pair) if tracer else contextlib.nullcontext()


def invoke(tracer, *args):
    """Run one ``meshcorr`` command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with span(tracer, "cli.invoke"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="meshcorr",
                          standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(exc.format_message())
        except Exception as exc:  # a raw traceback: the CLI would exit 1
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def exit_failure(code, stderr):
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"exit {code}: {last[0]}"


def quality(errors):
    """Mean error over the vertices that have a ground-truth group, and
    the AUC of those errors."""
    included = errors[~np.isnan(errors)]
    return float(included.mean()), evalbench.auc(included)[1]


# ------------------------------------------------------------ pair-match

class PairMatch:
    """``meshcorr match`` with CLI defaults on single pairs of n = 576 to
    1024, plus one criterion-12 sphere cut through ``solve_partial`` per
    round (z-cut in even rounds, x-cut in odd ones).

    The per-evaluation cost of the objective and the dense eigensolve
    dominate here. Every full match has fresh seeded inputs, so no work
    is shared between pairs. The cuts are criterion 12's, of the
    unperturbed sphere: their 20 warm-started solves are the slowest
    pairs, and keeping them the same for every seed keeps the tail from
    following the seed.
    """

    name = "pair-match"
    round_s = 13.0   # one round at the baseline, 1 BLAS thread, 2-core Xeon

    FULL = (  # key, source, target, rotate the target
        ("bumpy1024", ("bumpy_grid", 32), ("bumpy_grid", 32), True),
        ("torus1024", ("torus", 32, 32), ("torus", 32, 32), True),
        ("cross576-1024", ("bumpy_grid", 24), ("bumpy_grid", 32), False),
    )
    CUTS = (("partial-z", 2, -0.05), ("partial-x", 0, 0.0))  # axis, threshold

    def __init__(self, seed):
        self.seed = seed
        self.geo = {}   # ground-truth geodesics per source shape, for check

    def generate(self, root, rounds):
        root.mkdir(parents=True)
        self.root = root
        self.bases = {spec: getattr(gen, spec[0])(*spec[1:])
                      for _, s, t, _ in self.FULL for spec in (s, t)}
        sphere = gen.icosphere(3)
        cuts = [(key, gen.submesh(sphere, sphere.vertices[:, axis] > thr))
                for key, axis, thr in self.CUTS]
        self.cases = []
        for r in range(rounds):
            cases = []
            for i, (key, s, t, rot) in enumerate(self.FULL):
                rng = gen.rng_for(self.seed, 0, r, i)
                src = gen.jitter(self.bases[s], rng)
                tgt = gen.jitter(self.bases[t], rng)
                if rot:
                    tgt = gen.rotate(tgt, rng)
                tgt, perm = gen.permute(tgt, rng)
                paths = root / f"r{r}-{key}-src.ply", root / f"r{r}-{key}-tgt.ply"
                gen.write_ply(paths[0], src)
                gen.write_ply(paths[1], tgt)
                cases.append(("full", f"r{r}/{key}", s, t, perm, paths))
            key, part = cuts[r % 2]
            cases.append(("partial", f"r{r}/{key}", part, sphere))
            self.cases.append(cases)

    def warm_up(self, root):
        root.mkdir(parents=True)
        m = gen.bumpy_grid(8)
        gen.write_ply(root / "a.ply", m)
        code, _, err = invoke(None, "match", "--source", root / "a.ply",
                              "--target", root / "a.ply", "-o", root / "m.json")
        if code:
            raise RuntimeError(f"warm-up match failed: {exit_failure(code, err)}")

    def run_round(self, r, tag, tracer):
        records = []
        for case in self.cases[r]:
            with span(tracer, "bench.pair", case[1]):
                t0 = time.perf_counter()
                if case[0] == "full":
                    out = self.root / f"{tag}-{case[1].replace('/', '-')}.json"
                    src, tgt = case[5]
                    result = invoke(tracer, "match", "--source", src,
                                    "--target", tgt, "-o", out) + (out,)
                else:
                    try:
                        result = solve_cut(case[2], case[3])
                    except Exception as exc:  # recorded as a failed pair
                        result = exc
                records.append((case, time.perf_counter() - t0, result))
        return records

    def check(self, records):
        return [self._check_full(*rec) if rec[0][0] == "full"
                else self._check_partial(*rec) for rec in records]

    def _check_full(self, case, wall, result):
        _, key, s, t, perm, paths = case
        code, _, stderr, out = result
        pair = Pair(key, wall)
        if code:
            pair.failed = exit_failure(code, stderr)
            return pair
        with open(out) as fh:
            doc = json.load(fh)
        t2s = np.asarray(doc["target_to_source"], dtype=np.int64)
        conf = np.asarray(doc["confidence"], dtype=np.float64)
        n_src, n_tgt = self.bases[s].n_vertices, self.bases[t].n_vertices
        if len(t2s) != n_tgt or len(conf) != n_tgt:
            pair.failed = (f"map length {len(t2s)} != {n_tgt} target "
                           "vertices: preprocessing changed the vertex count")
        elif t2s.min() < 0 or t2s.max() >= n_src:
            pair.failed = "map index out of the source range"
        elif not np.isfinite(conf).all():
            pair.failed = "non-finite confidence"
        elif not np.array_equal(funcmap.load_map(out)[1].target_to_source,
                                t2s):
            pair.failed = "load_map does not return the stored map"
        if pair.failed:
            return pair
        if s not in self.geo:
            self.geo[s] = geodesic_matrix(self.bases[s])
        src_groups = gen.octant_groups(self.bases[s])
        tgt_groups = SemanticGroups(
            gen.octant_groups(self.bases[t]).group_of[perm])
        errors = evalbench.geodesic_error(
            t2s, src_groups, tgt_groups, self.geo[s],
            mesh.vertex_areas(self.bases[s]))
        pair.err, pair.auc = quality(errors)
        pair.signature = t2s.tobytes()
        return pair

    @staticmethod
    def _check_partial(case, wall, result):
        pair = Pair(case[1], wall)
        full = case[3]
        if isinstance(result, Exception):
            pair.failed = f"{type(result).__name__}: {result}"
        elif not np.isfinite(result.C).all():
            pair.failed = "non-finite C"
        elif (result.eta.shape != (full.n_vertices,)
              or not (0.0 <= result.eta.min() and result.eta.max() <= 1.0)):
            pair.failed = "mask outside [0, 1] or of the wrong length"
        elif not 0.0 <= result.matched_area_fraction <= 1.0:
            pair.failed = "matched area fraction outside [0, 1]"
        else:
            pair.signature = result.C.tobytes() + result.eta.tobytes()
        return pair


def solve_cut(part, full, k=10, bands=6):
    """Criterion 12's partial case: a cut of the sphere against the whole
    sphere, positional-encoding features, default weights."""
    def basis(m):
        return spectral.eigenbasis(mesh.cotangent_weights(m),
                                   mesh.vertex_areas(m), k)

    f = spectral.positional_encoding(part, bands).values
    g = spectral.positional_encoding(full, bands).values
    problem = funcmap.build_problem(basis(part), basis(full), f, g,
                                    funcmap.FmapWeights())
    return funcmap.solve_partial(problem, g, full.edges())


# -------------------------------------------------------- category-small

class CategorySmall:
    """``meshcorr benchmark --jobs 2`` on one category of 4 bumpy grids
    (n 361 to 483; the textured mesh is the remeshed one) with seeded
    shape parameters. A fresh tree per round, each started without
    ``geo.dgm``.

    The solve is iteration-bound here, every instance's basis and
    descriptors are recomputed for each of its 8 pairs, and two worker
    threads share the process.
    """

    name = "category-small"
    round_s = 15.0
    SIZES = ((19, 19), (20, 20), (21, 21), (21, 23))
    JOBS = 2

    def __init__(self, seed):
        self.seed = seed

    def generate(self, root, rounds):
        self.root = root
        self.trees = []
        for r in range(rounds):
            tree = root / f"tree{r}"
            for i, (nx, ny) in enumerate(self.SIZES):
                rng = gen.rng_for(self.seed, 1, r, i)
                shape = shape_params(rng)
                write_instance(tree / "grids" / f"g{i}",
                               gen.bumpy_grid(nx, ny, **shape))
            self.trees.append(tree)

    def warm_up(self, root):
        write_instance(root / "grids" / "g0", gen.bumpy_grid(8))
        code, _, err = invoke(None, "benchmark", "--dataset", root, "--csv",
                              root / "r.csv", "--json", root / "a.json",
                              "--jobs", self.JOBS)
        if code:
            raise RuntimeError(f"warm-up benchmark failed: "
                               f"{exit_failure(code, err)}")

    def run_round(self, r, tag, tracer):
        tree = self.trees[r]
        for geo in tree.glob("grids/*/geo.dgm"):
            geo.unlink()
        out = self.root / f"{tag}-r{r}"
        if tracer:
            tracer.pair_prefix = f"r{r}/"
        with span(tracer, "bench.pair", f"r{r}"):
            t0 = time.perf_counter()
            result = invoke(tracer, "benchmark", "--dataset", tree,
                            "--csv", f"{out}.csv", "--json", f"{out}.json",
                            "--jobs", self.JOBS)
            wall = time.perf_counter() - t0
        return [(r, wall, result, out)]

    def check(self, records):
        pairs = []
        expected = len(self.SIZES) ** 2
        for r, wall, (code, _, stderr), out in records:
            rows = []
            csv_path = Path(f"{out}.csv")
            if csv_path.exists():
                with open(csv_path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
            if code or len(rows) != expected:
                why = (exit_failure(code, stderr) if code else
                       f"CSV has {len(rows)} rows for {expected} pairs")
                pairs += [Pair(f"r{r}/{i}", wall / expected, why)
                          for i in range(expected)]
                continue
            for row in rows:
                pair = Pair(f"r{r}/{row['source']}>{row['target']}",
                            float(row["wall_ms"]) / 1000.0)
                if row["failed"] != "0":
                    pair.failed = "pair failed inside the benchmark command"
                else:
                    pair.err, pair.auc = float(row["err"]), float(row["auc"])
                    pair.signature = "|".join(
                        row[c] for c in ("source", "target", "err", "auc",
                                         "coverage")).encode()
                pairs.append(pair)
        return pairs


def shape_params(rng):
    """Seeded variation of the bumpy-grid height field, mild enough that
    the octant groups of two shapes still correspond."""
    return {"amp": 0.25 * rng.uniform(0.9, 1.1),
            "fx": 3.0 * rng.uniform(0.95, 1.05),
            "fy": 2.0 * rng.uniform(0.95, 1.05),
            "amp2": 0.1 * rng.uniform(0.9, 1.1)}


def write_instance(inst, remeshed, textured=None):
    """One dataset instance; without a textured mesh the remeshed one
    stands in for it."""
    inst.mkdir(parents=True)
    gen.write_ply(inst / "remeshed.ply", remeshed)
    if textured is None:
        gen.write_ply(inst / "mesh.ply", remeshed)
    else:
        gen.write_ply(inst / "mesh.ply", textured, binary=True)
    gen.write_groups(inst / "groups.json", gen.octant_groups(remeshed))


# --------------------------------------------------------- eval-transfer

class EvalTransfer:
    """``meshcorr eval`` then ``meshcorr transfer-color`` for each ordered
    pair of 3 instances of one seeded shape (remeshed n 1600 to 2401,
    octant groups, a 22 500-vertex colored binary ``mesh.ply`` each).
    The stored maps are
    the ground-truth maps with a seeded 15% of entries corrupted, written
    in set-up through ``funcmap.save_map``. The first round starts
    without ``geo.dgm``, so it takes the cold compute-and-write path and
    the later rounds the warm read path; deleting it only once keeps the
    run from rewriting 70 MB of geodesics every round.

    Nothing is solved: mesh I/O, geodesics and evaluation do the work, so
    solver changes must not move this workload.
    """

    name = "eval-transfer"
    round_s = 6.5
    SIZES = (40, 45, 49)
    TEXTURED = 150
    CORRUPT = 0.15

    def __init__(self, seed):
        self.seed = seed

    def generate(self, root, rounds):
        self.root = root
        self.inst = []
        shape = shape_params(gen.rng_for(self.seed, 2))
        for i, n in enumerate(self.SIZES):
            rng = gen.rng_for(self.seed, 2, 0, i)
            remeshed = gen.bumpy_grid(n, **shape)
            textured = gen.colored(gen.bumpy_grid(self.TEXTURED, **shape), rng)
            write_instance(root / "data" / "grids" / f"g{i}", remeshed,
                           textured)
            self.inst.append((root / "data" / "grids" / f"g{i}", remeshed,
                              textured))
        self.maps = []
        for s, (_, src, _) in enumerate(self.inst):
            for t, (_, tgt, _) in enumerate(self.inst):
                if s != t:
                    rng = gen.rng_for(self.seed, 2, 1, s * len(self.inst) + t)
                    path = root / f"map-{s}-{t}.json"
                    t2s = corrupted_map(src, tgt, self.CORRUPT, rng)
                    store_map(path, t2s)
                    self.maps.append((s, t, path, t2s))

    def warm_up(self, root):
        a, b = root / "a", root / "b"
        mb = gen.bumpy_grid(9)
        write_instance(a, gen.bumpy_grid(8),
                       gen.colored(gen.bumpy_grid(12), gen.rng_for(0)))
        write_instance(b, mb)
        store_map(root / "m.json", np.zeros(mb.n_vertices, np.int64))
        for args in (("eval", "--map", root / "m.json", "--source-instance",
                      a, "--target-instance", b),
                     ("transfer-color", "--source-textured", a / "mesh.ply",
                      "--source", a / "remeshed.ply", "--target",
                      b / "remeshed.ply", "--map", root / "m.json", "-o",
                      root / "out.ply")):
            code, _, err = invoke(None, *args)
            if code:
                raise RuntimeError(f"warm-up {args[0]} failed: "
                                   f"{exit_failure(code, err)}")

    def run_round(self, r, tag, tracer):
        if r == 0:
            for inst, _, _ in self.inst:
                (inst / "geo.dgm").unlink(missing_ok=True)
        records = []
        for s, t, path, _ in self.maps:
            key = f"r{r}/{s}>{t}"
            out = self.root / f"{tag}-r{r}-{s}-{t}.ply"
            src, tgt = self.inst[s][0], self.inst[t][0]
            with span(tracer, "bench.pair", key):
                t0 = time.perf_counter()
                ev = invoke(tracer, "eval", "--map", path, "--source-instance",
                            src, "--target-instance", tgt, "--log-json")
                tr = invoke(tracer, "transfer-color", "--source-textured",
                            src / "mesh.ply", "--source", src / "remeshed.ply",
                            "--target", tgt / "remeshed.ply", "--map", path,
                            "-o", out)
                records.append((key, s, t, time.perf_counter() - t0, ev, tr,
                                out))
        return records

    def check(self, records):
        stored = {(s, t): (path, t2s) for s, t, path, t2s in self.maps}
        pairs = []
        for key, s, t, wall, ev, tr, out in records:
            pair = Pair(key, wall)
            pairs.append(pair)
            path, t2s = stored[s, t]
            failing = ev if ev[0] else tr
            if failing[0]:
                pair.failed = exit_failure(failing[0], failing[2])
                continue
            if not np.array_equal(funcmap.load_map(path)[1].target_to_source,
                                  t2s):
                pair.failed = "load_map does not return the stored map"
                continue
            _, src, textured = self.inst[s]
            colored = meshio.load_mesh(out)
            nearest = cKDTree(textured.vertices).query(src.vertices)[1]
            expect = np.rint(textured.colors[nearest][t2s] * 255.0)
            if (colored.n_vertices != self.inst[t][1].n_vertices
                    or colored.colors is None
                    or not np.array_equal(np.rint(colored.colors * 255.0),
                                          expect)):
                pair.failed = "transferred colors differ from the map's"
                continue
            doc = json.loads(ev[1].strip().splitlines()[-1])
            pair.err, pair.auc = float(doc["err"]), float(doc["auc"])
            pair.signature = (f"{doc['err']!r}|{doc['auc']!r}|"
                              f"{doc['coverage']!r}").encode() \
                + out.read_bytes()
        return pairs


def store_map(path, t2s):
    """A map file as ``meshcorr match`` writes it; C is not used here."""
    funcmap.save_map(path, funcmap.FunctionalMap(np.eye(10), True, 0.0, 0),
                     funcmap.PointMap(t2s, np.ones(len(t2s))),
                     funcmap.FmapWeights())


def corrupted_map(src, tgt, fraction, rng):
    """Ground truth by position on the shared unit square, with a seeded
    fraction of target vertices sent to random source vertices."""
    t2s = cKDTree(src.vertices[:, :2]).query(tgt.vertices[:, :2])[1]
    bad = rng.choice(len(t2s), size=int(fraction * len(t2s)), replace=False)
    t2s[bad] = rng.integers(0, src.n_vertices, size=len(bad))
    return t2s.astype(np.int64)


WORKLOADS = {w.name: w for w in (PairMatch, CategorySmall, EvalTransfer)}
