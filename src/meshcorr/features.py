"""Per-vertex feature fields: descriptor stacks and externally computed
semantic features.

External features arrive through the DMF container ("DMF1" magic,
u32 n, u32 d, f32 little-endian row-major) or a whitespace text matrix
with a "# n d" header. A file must have at least one channel (d >= 1).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ArgumentError, DataError, FormatError, ShapeError,
                     input_file)

_MAGIC = b"DMF1"


@dataclass(frozen=True)
class FeatureField:
    values: np.ndarray  # (n, d)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if not np.isfinite(v).all():
            raise DataError("feature field contains NaN/Inf")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def load_features(path, expected_n: int | None = None) -> FeatureField:
    path = input_file(path, "feature")
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            header = fh.read(8)
            if len(header) != 8:
                raise FormatError(f"{path}: truncated DMF header")
            n, d = struct.unpack("<II", header)
            # the promised payload is checked against the bytes left before
            # any is read, so a header that promises too much allocates nothing
            if 4 * n * d > os.fstat(fh.fileno()).st_size - fh.tell():
                raise FormatError(f"{path}: truncated DMF payload")
            values = np.frombuffer(fh.read(4 * n * d), dtype="<f4")
            values = values.reshape(n, d).astype(np.float64)
        else:
            values = _load_text_matrix(path)
    if values.shape[1] == 0:  # a text file with d = 0 fails above on its body
        raise FormatError(f"{path}: feature file has no channels (d = 0)")
    if expected_n is not None and values.shape[0] != expected_n:
        raise ShapeError(
            f"{path}: feature rows {values.shape[0]} != mesh vertices "
            f"{expected_n}")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: feature matrix contains NaN/Inf")
    return FeatureField(values)


def _load_text_matrix(path: Path) -> np.ndarray:
    with open(path, "r", errors="replace") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise FormatError(f"{path}: expected DMF magic or '# n d' header")
        try:
            n, d = (int(tok) for tok in first[1:].split())
        except ValueError:
            raise FormatError(f"{path}:1: bad '# n d' header")
        rows = [line for line in fh if line.split("#", 1)[0].strip()]
    if not rows:  # loadtxt would warn and return an empty array
        raise FormatError(f"{path}: header promises {n}x{d}, body is empty")
    try:
        values = np.loadtxt(rows, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: bad matrix body: {exc}")
    if values.shape != (n, d):
        raise FormatError(
            f"{path}: header promises {n}x{d}, body is {values.shape}")
    return values


def write_features(path, field: FeatureField) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", field.n, field.d))
        fh.write(np.ascontiguousarray(field.values, dtype="<f4").tobytes())


def concat_features(fields) -> FeatureField:
    fields = list(fields)
    if not fields:
        raise ArgumentError("concat_features needs at least one field")
    ns = {f.n for f in fields}
    if len(ns) != 1:
        raise ShapeError(f"fields disagree on vertex count: {sorted(ns)}")
    return FeatureField(np.hstack([f.values for f in fields]))

