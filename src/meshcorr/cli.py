"""Command-line frontend.

Exit codes: 0 success, 2 argument errors, 3 data errors, 4 numeric
errors. Diagnostics go to stderr; structured logs (JSON lines) are
available behind --log-json.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import click

from . import evalbench, funcmap, pipeline, spectral, transfer
from .errors import ArgumentError, DataError, MeshCorrError, NumericError
from .features import FeatureField, load_features, write_features
from .funcmap import FmapWeights
from .meshio import load_mesh, save_mesh

EXIT_ARGUMENT = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArgumentError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_ARGUMENT)
        except NumericError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except MeshCorrError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
    return wrapper


def _log(log_json, **payload):
    if log_json:
        click.echo(json.dumps(payload, sort_keys=True, allow_nan=False))


@click.group()
def main():
    """Dense vertex correspondence between textured triangle meshes."""


def _output_path(ctx, param, value):
    """An output file path, checked before any work: not a directory, and
    in a directory that exists."""
    path = Path(value)
    try:
        is_dir, parent_is_dir = path.is_dir(), path.parent.is_dir()
    except OSError as exc:  # a name too long, which is_dir does not swallow
        raise click.BadParameter(f"{value}: {exc.strerror}")
    if is_dir:
        raise click.BadParameter(f"{value} is a directory")
    if not parent_is_dir:
        raise click.BadParameter(f"directory {path.parent} does not exist")
    return value


def _split_names(ctx, param, value):
    return tuple(d.strip() for d in value.split(",") if d.strip())


def _descriptors_option(help):
    return click.option("--descriptors",
                        default=",".join(pipeline.RunConfig.descriptors),
                        show_default=True, callback=_split_names, help=help)


def _solver_options(fn):
    """Options that set a RunConfig; their defaults are RunConfig's."""
    for opt in reversed([
        click.option("-k", "--basis-size", "k", type=int,
                     default=pipeline.RunConfig.k, show_default=True,
                     help="spectral basis size"),
        click.option("--alpha", type=float, default=funcmap.DEFAULT_ALPHA,
                     show_default=True, help="isometry weight"),
        click.option("--beta", type=float, default=funcmap.DEFAULT_BETA,
                     show_default=True, help="pointwise commutativity weight"),
        click.option("--w-sum", type=float, default=funcmap.DEFAULT_W_SUM,
                     show_default=True),
        _descriptors_option("comma-separated stack used when no feature "
                            "files are given"),
        click.option("--log-json", is_flag=True),
    ]):
        fn = opt(fn)
    return fn


def _make_config(options):
    """RunConfig from the parsed ``_solver_options`` values; a weight
    with no option keeps FmapWeights' default."""
    weights = FmapWeights(**{f.name: options.pop(f.name)
                             for f in dataclasses.fields(FmapWeights)
                             if f.name in options})
    return pipeline.RunConfig(weights=weights, **options)


@main.command("match")
@click.option("--source", required=True, type=click.Path())
@click.option("--target", required=True, type=click.Path())
@click.option("--source-features", type=click.Path(), default=None)
@click.option("--target-features", type=click.Path(), default=None)
@click.option("-o", "--output", required=True, type=click.Path(),
              callback=_output_path)
@_solver_options
@_handle_errors
def cmd_match(source, target, source_features, target_features, output,
              log_json, **options):
    """Compute a dense map between two meshes and write it as JSON."""
    config = _make_config(options)
    src = load_mesh(source)
    tgt = load_mesh(target)
    sf = tf = None  # only the files given; match_meshes wants both or neither
    if source_features is not None:
        sf = load_features(source_features, src.n_vertices)
    if target_features is not None:
        tf = load_features(target_features, tgt.n_vertices)
    start = time.perf_counter()
    result = pipeline.match_meshes(src, tgt, config, sf, tf)
    wall = time.perf_counter() - start
    funcmap.save_map(output, result.fmap, result.pmap, config.weights)
    click.echo(f"objective {result.fmap.final_objective:.6g}  "
               f"iterations {result.fmap.iterations}  wall {wall:.2f}s")
    _log(log_json, command="match", objective=result.fmap.final_objective,
         iterations=result.fmap.iterations, wall_s=wall, output=str(output))


@main.command("eval")
@click.option("--map", "map_path", required=True, type=click.Path())
@click.option("--source-instance", required=True, type=click.Path(),
              help="dataset instance directory of the source mesh")
@click.option("--target-instance", required=True, type=click.Path())
@click.option("--log-json", is_flag=True)
@_handle_errors
def cmd_eval(map_path, source_instance, target_instance, log_json):
    """Evaluate a stored map against ground-truth semantic groups."""
    src = evalbench.load_instance(source_instance)
    tgt = evalbench.load_instance(target_instance)
    _, pmap, _ = funcmap.load_map(map_path)
    err, area, coverage = evalbench.score_map(pmap, src, tgt)
    click.echo(f"err {err:.4f}  auc {area:.4f}  coverage {coverage:.3f}")
    _log(log_json, command="eval", err=err, auc=area, coverage=coverage)


class _BenchmarkMatcher:
    """Matcher of the all-pairs benchmark. It prepares each dataset
    instance at most once, on first use; a failed preparation is
    re-raised to each pair that uses the instance, failing only those."""

    def __init__(self, config):
        self.config = config
        self._outcomes = {}  # key -> (MatchInput, None) or (None, exception)

    def prepared(self, inst):
        key = (inst.category, inst.name)
        if key not in self._outcomes:
            try:
                self._outcomes[key] = (pipeline.prepare_for_matching(
                    inst.remeshed, self.config), None)
            except Exception as exc:  # recorded for each pair it fails
                self._outcomes[key] = (None, exc)
        prepared, exc = self._outcomes[key]
        if exc is not None:
            raise exc
        return prepared

    def __call__(self, src_inst, tgt_inst):
        return pipeline.match_prepared(self.prepared(src_inst),
                                       self.prepared(tgt_inst),
                                       self.config).pmap


def _score(mean):
    """A category's mean score as ``benchmark`` prints it; None, the mean
    of no pair, prints as nan."""
    return "nan" if mean is None else f"{mean:.4f}"


@main.command("benchmark")
@click.option("--dataset", "dataset_root", required=True, type=click.Path())
@click.option("--category", default=None,
              help="restrict to one category (default: all)")
@click.option("--split", default="test", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="has no effect: pairs run in order on one thread")
@click.option("--csv", "csv_path", required=True, type=click.Path(),
              callback=_output_path)
@click.option("--json", "json_path", required=True, type=click.Path(),
              callback=_output_path)
@_solver_options
@_handle_errors
def cmd_benchmark(dataset_root, category, split, jobs, csv_path, json_path,
                  log_json, **options):
    """Run the all-pairs protocol over dataset categories."""
    config = _make_config(options)

    instances = evalbench.load_dataset(dataset_root, split=split)
    if not instances:
        raise DataError(f"no instance of split '{split}' under "
                        f"{dataset_root}")
    categories = sorted({i.category for i in instances})
    if category is not None:
        if category not in categories:
            raise ArgumentError(f"category '{category}' not in dataset "
                                f"(found {categories})")
        categories = [category]
    all_results = []
    aggregates = {}
    for cat in categories:
        # a matcher per category holds one category's preparations at a time
        results, agg = evalbench.benchmark_category(
            instances, cat, _BenchmarkMatcher(config), jobs=jobs)
        all_results.extend(results)
        aggregates[cat] = agg
        _log(log_json, command="benchmark", category=cat, **{
            k: v for k, v in agg.items() if k != "category"})
        click.echo(f"{cat}: pairs {agg['pairs']}  "
                   f"err {_score(agg['err_mean'])}  "
                   f"auc {_score(agg['auc_mean'])}")
    evalbench.write_results_csv(csv_path, all_results)
    evalbench.write_aggregates_json(json_path, aggregates)


@main.command("transfer-color")
@click.option("--source-textured", required=True, type=click.Path())
@click.option("--source", required=True, type=click.Path(),
              help="simplified source mesh the map was solved on")
@click.option("--target", required=True, type=click.Path())
@click.option("--map", "map_path", required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path(),
              callback=_output_path)
@_handle_errors
def cmd_transfer_color(source_textured, source, target, map_path, output):
    """Transfer vertex colors through a stored point map; the output is
    binary little-endian PLY (float64 xyz, uchar rgb)."""
    textured = load_mesh(source_textured)
    src = load_mesh(source)
    tgt = load_mesh(target)
    _, pmap, _ = funcmap.load_map(map_path)
    colored = transfer.transfer_colors(textured, src, tgt, pmap)
    save_mesh(output, colored, binary=True)
    click.echo(f"wrote {output}")


@main.command("transfer-keypoints")
@click.option("--source", required=True, type=click.Path(),
              help="template mesh carrying the keypoints")
@click.option("--target", required=True, type=click.Path())
@click.option("--keypoints", required=True, type=click.Path())
@click.option("--map", "map_path", required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path(),
              callback=_output_path)
@_handle_errors
def cmd_transfer_keypoints(source, target, keypoints, map_path, output):
    """Transfer template keypoints through a stored map's point map; the
    target mesh is read only to check that the map fits it."""
    src = load_mesh(source)
    tgt = load_mesh(target)
    kps = transfer.load_keypoints(keypoints, src)
    _, pmap, _ = funcmap.load_map(map_path)
    funcmap.check_map_fits(pmap.target_to_source, src.n_vertices,
                           tgt.n_vertices)
    results = transfer.transfer_keypoints(kps, pmap, src)
    transfer.save_transferred_keypoints(output, results)
    click.echo(f"wrote {output}")


@main.command("descriptors")
@click.option("--mesh", "mesh_path", required=True, type=click.Path())
@_descriptors_option("comma-separated stack to write")
@click.option("-o", "--output", required=True, type=click.Path(),
              callback=_output_path)
@_handle_errors
def cmd_descriptors(mesh_path, descriptors, output):
    """Compute the descriptor stack that match computes of the welded,
    normalized mesh and write it as a DMF feature file, one row per vertex
    of the mesh file. Bad names exit 2 before the mesh is read."""
    pipeline._check_descriptors(descriptors)
    mesh, basis, index = pipeline.prepare_mesh(load_mesh(mesh_path),
                                               spectral.DEFAULT_DESC_K)
    stack = pipeline.descriptor_stack(mesh, basis, descriptors)
    stack = FeatureField(stack.values[index])
    write_features(output, stack)
    click.echo(f"wrote {output} ({stack.n}x{stack.d})")


if __name__ == "__main__":
    main()
