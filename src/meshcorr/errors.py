"""Exception hierarchy shared by all modules.

Three roots matter for the CLI exit-code mapping: ArgumentError (bad
caller input, exit 2), DataError (bad file/content, exit 3), and
NumericError (solver/math failure, exit 4).
"""

from pathlib import Path


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
    """``path`` as a Path, checked before it is opened: a missing path or
    a directory raises FormatError naming it."""
    path = Path(path)
    if path.is_dir():
        raise FormatError(f"{what} file is a directory: {path}")
    if not path.exists():
        raise FormatError(f"{what} file not found: {path}")
    return path
