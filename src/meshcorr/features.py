"""Per-vertex feature fields: descriptor stacks and externally computed
semantic features, plus the cosine-based semantic-distance score.

External features arrive through the DMF container ("DMF1" magic,
u32 n, u32 d, f32 little-endian row-major) or a whitespace text matrix
with a "# n d" header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DataError, FormatError, ShapeError, UndefinedLossError

_MAGIC = b"DMF1"


@dataclass(frozen=True)
class FeatureField:
    values: np.ndarray  # (n, d)
    semantic: str = "descriptor"

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


@dataclass(frozen=True)
class FeatureBundle:
    field: FeatureField
    source: str

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def dim(self) -> int:
        return self.field.d


def load_features(path, expected_n: int | None = None) -> FeatureBundle:
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            n, d = struct.unpack("<II", fh.read(8))
            payload = fh.read(4 * n * d)
            if len(payload) != 4 * n * d:
                raise FormatError(f"{path}: truncated DMF payload")
            values = np.frombuffer(payload, dtype="<f4").reshape(n, d)
            values = values.astype(np.float64)
        else:
            values = _load_text_matrix(path)
    if expected_n is not None and values.shape[0] != expected_n:
        raise ShapeError(
            f"{path}: feature rows {values.shape[0]} != mesh vertices "
            f"{expected_n}")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: feature matrix contains NaN/Inf")
    return FeatureBundle(FeatureField(values, "external"), "external-file")


def _load_text_matrix(path: Path) -> np.ndarray:
    with open(path, "r", errors="replace") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise FormatError(f"{path}: expected DMF magic or '# n d' header")
        try:
            n, d = (int(tok) for tok in first[1:].split())
        except ValueError:
            raise FormatError(f"{path}:1: bad '# n d' header")
        try:
            values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: bad matrix body: {exc}")
    if values.shape != (n, d):
        raise ShapeError(
            f"{path}: header promises {n}x{d}, body is {values.shape}")
    return values


def write_features(path, bundle) -> None:
    values = bundle.values if hasattr(bundle, "values") else np.asarray(bundle)
    values = np.atleast_2d(values)
    n, d = values.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def unit_normalize(bundle: FeatureBundle) -> FeatureBundle:
    """Scale each nonzero row to unit L2 norm; zero rows stay zero
    (the convention for never-visible vertices)."""
    values = bundle.values
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    out = np.divide(values, norms, out=np.zeros_like(values),
                    where=norms > 0)
    return FeatureBundle(FeatureField(out, bundle.field.semantic),
                         bundle.source)


def concat_features(bundles) -> FeatureBundle:
    bundles = list(bundles)
    if not bundles:
        raise ArgumentError("concat_features needs at least one bundle")
    ns = {b.n for b in bundles}
    if len(ns) != 1:
        raise ShapeError(f"bundles disagree on vertex count: {sorted(ns)}")
    if len(bundles) == 1:
        return bundles[0]
    values = np.hstack([b.values for b in bundles])
    return FeatureBundle(FeatureField(values, "descriptor"), "concat")


def semantic_loss(feat_pairs, dist_pairs) -> float:
    """Negative cosine similarity between per-pair feature L2 distances
    and the corresponding semantic distances. -1 means the feature
    metric is perfectly proportional to the semantic one."""
    dists = np.asarray(dist_pairs, dtype=np.float64)
    feat_pairs = list(feat_pairs)
    if len(feat_pairs) != len(dists):
        raise ArgumentError("feat_pairs and dist_pairs lengths differ")
    if len(dists) < 2:
        raise ArgumentError("need at least 2 pairs")
    fdist = np.array([np.linalg.norm(np.asarray(a, dtype=np.float64)
                                     - np.asarray(b, dtype=np.float64))
                      for a, b in feat_pairs])
    nf, nd = np.linalg.norm(fdist), np.linalg.norm(dists)
    if nf == 0.0 or nd == 0.0:
        raise UndefinedLossError(
            "cosine undefined: all feature distances or all semantic "
            "distances are zero")
    return float(-(fdist @ dists) / (nf * nd))


def sample_vertex_pairs(n: int, num_pairs: int, seed: int) -> np.ndarray:
    """Reproducible uniform vertex-pair sample, (num_pairs, 2)."""
    if n < 2:
        raise ArgumentError("need at least 2 vertices to sample pairs")
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(num_pairs, 2))
    same = pairs[:, 0] == pairs[:, 1]
    while same.any():
        pairs[same, 1] = rng.integers(0, n, size=int(same.sum()))
        same = pairs[:, 0] == pairs[:, 1]
    return pairs
