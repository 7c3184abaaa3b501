"""Exception hierarchy shared by all modules.

Three roots matter for the CLI exit-code mapping: ArgumentError (bad
caller input, exit 2), DataError (bad file/content, exit 3), and
NumericError (solver/math failure, exit 4).
"""

import json
from pathlib import Path

import numpy as np


class MeshCorrError(Exception):
    pass


class ArgumentError(MeshCorrError, ValueError):
    """Caller passed inconsistent or out-of-contract arguments."""


class ShapeError(ArgumentError):
    """Array dimensions do not match the expected shape."""


class DataError(MeshCorrError):
    """File contents or dataset entries violate their format contract."""


class FormatError(DataError):
    """Unparseable mesh/feature file; message names the offending line."""


class TopologyError(DataError):
    """Mesh contains unsupported topology (e.g. non-triangle faces)."""


class EmptyMeshError(DataError):
    """Mesh became empty after filtering."""


class DegenerateGeometryError(DataError):
    """Geometry has zero extent or is otherwise unusable."""


class DisconnectedMeshError(DataError):
    """Operation requires a single connected component."""


class NumericError(MeshCorrError):
    """Numerical failure (non-convergence, non-finite objective)."""


class EvaluationError(MeshCorrError):
    """Evaluation protocol cannot be applied to the given pair."""


def input_file(path, what: str) -> Path:
    """``path`` as a Path, checked before it is opened: a missing path, a
    directory or a path that cannot be checked (a name too long) raises
    FormatError naming it."""
    path = Path(path)
    try:
        is_dir, exists = path.is_dir(), path.exists()
    except OSError as exc:  # a name too long, which is_dir does not swallow
        raise FormatError(f"{what} file {path}: {exc.strerror}") from exc
    if is_dir:
        raise FormatError(f"{what} file is a directory: {path}")
    if not exists:
        raise FormatError(f"{what} file not found: {path}")
    return path


def read_json(path, what: str, parse):
    """``parse`` of the JSON document in ``path``, a ``what`` file. The
    file is checked, read and parsed and the document taken apart under
    one guard: a file that cannot be read, decoded or parsed, one nested
    too deeply, or a document ``parse`` finds a key missing from or a
    value of the wrong type or size in raises FormatError naming the
    file; a MeshCorrError that ``parse`` raises passes through."""
    path = input_file(path, what)
    try:
        with open(path, "rb") as fh:
            return parse(json.load(fh))
    except MeshCorrError:
        raise  # ArgumentError is also a ValueError
    except (OSError, RecursionError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise FormatError(f"{path}: malformed {what} file "
                          f"({type(exc).__name__}: {exc})") from exc


def json_array(value, kind, ndim: int, name: str) -> np.ndarray:
    """A parsed JSON value as an ``ndim``-D array of ``kind``, bool, int
    or float (a float may be written as an integer). Any other entry, such
    as a bool or a string for a number, a float for an int or a ragged
    row, raises TypeError; an int too large for the dtype, OverflowError."""
    array = np.asarray(value, dtype=object)
    allowed = {float, int} if kind is float else {kind}
    if array.ndim != ndim or not set(map(type, array.flat)) <= allowed:
        raise TypeError(f"{name} is not a {ndim}-D array of JSON "
                        f"{kind.__name__}s: {value!r:.60}")
    return array.astype(kind)


def write_json(path, doc):
    """Write ``doc`` as JSON: sorted keys, one-space indent, final newline.
    A NaN or infinite number, which JSON cannot hold, raises ValueError
    before the file is opened."""
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
