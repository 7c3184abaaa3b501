"""Mesh file readers and writers: OBJ, OFF, ASCII/binary PLY.

Colors are carried as floats in [0, 1]; 8-bit channels are scaled by
1/255 on load and back to uchar when writing binary-friendly PLY.

PLY elements are read a block at a time: a binary element is one
`np.frombuffer`, an ASCII element one `np.loadtxt` over its slice of
the body's non-blank lines. An ASCII row's file line number is counted
only when an error names it.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import FormatError, TopologyError, input_file
from .mesh import TriMesh


def load_mesh(path) -> TriMesh:
    path = input_file(path, "mesh")
    suffix = path.suffix.lower()
    if suffix == ".obj":
        return _load_obj(path)
    if suffix == ".off":
        return _load_off(path)
    if suffix == ".ply":
        return _load_ply(path)
    raise FormatError(f"unsupported mesh format '{suffix}' for {path}")


def save_mesh(path, mesh: TriMesh, binary: bool = False):
    path = Path(path)
    if path.suffix.lower() != ".ply":
        raise FormatError(f"only PLY output is supported, got {path.suffix}")
    _save_ply(path, mesh, binary=binary)


# ---------------------------------------------------------------- OBJ

def _load_obj(path: Path) -> TriMesh:
    verts, colors, faces = [], [], []
    with open(path, "r", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                try:
                    vals = [float(x) for x in parts[1:]]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad vertex line")
                if len(vals) not in (3, 6):
                    raise FormatError(
                        f"{path}:{lineno}: vertex needs 3 or 6 values")
                verts.append(vals[:3])
                colors.append(vals[3:6] if len(vals) == 6 else None)
            elif tag == "f":
                idx = parts[1:]
                if len(idx) != 3:
                    raise TopologyError(
                        f"{path}:{lineno}: only triangle faces are "
                        f"supported, got {len(idx)} vertices")
                try:
                    # "f v", "f v/vt", "f v/vt/vn", "f v//vn"
                    face = [int(tok.split("/")[0]) for tok in idx]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad face index")
                faces.append([i - 1 if i > 0 else len(verts) + i
                              for i in face])
    if not verts:
        raise FormatError(f"{path}: no vertices found")
    has_color = all(c is not None for c in colors)
    return TriMesh(np.array(verts, dtype=float),
                   np.array(faces, dtype=np.int64).reshape(-1, 3),
                   np.array(colors, dtype=float) if has_color else None)


# ---------------------------------------------------------------- OFF

_OFF_ELEMENTS = (("vertex", [(c, "double", None) for c in "xyz"]),
                 ("face", [("vertex_indices", "int", "uchar")]))


def _load_off(path: Path) -> TriMesh:
    """An optional OFF line, a line of vertex and face counts (an edge
    count may end it), then one line per vertex and per face, read as an
    ASCII PLY body is; '#' starts a comment."""
    text = path.read_text(errors="replace")
    if "#" in text:  # blank the comments, keeping every line
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    rows = list(filter(str.strip, text.split("\n")))
    at = partial(_RowLine, path, text, 1)
    if not rows:
        raise FormatError(f"{path}: empty OFF file")
    start, counts = 1, rows[0].split()
    if counts[0].upper() == "OFF":
        counts = counts[1:]  # the counts may share the OFF line
        if not counts and len(rows) > 1:
            start, counts = 2, rows[1].split()
    elif counts[0].upper().endswith("OFF"):  # COFF, NOFF, ...: more columns
        raise FormatError(f"{at(0)}: only the plain OFF header is "
                          f"supported, got '{counts[0]}'")
    try:
        nv, nf = map(int, counts[:2])
        if len(counts) > 3 or nv < 0 or nf < 0:
            raise ValueError
    except ValueError:
        raise FormatError(f"{at(start - 1)}: bad OFF header counts")
    data, pos = {"vertex": {c: np.empty(0) for c in "xyz"}}, start
    for (name, props), count in zip(_OFF_ELEMENTS, (nv, nf)):
        if count:
            data[name], pos = _read_ascii(path, rows, pos, name, count,
                                          props, at)
    return _assemble_ply(path, data, {})


# ---------------------------------------------------------------- PLY

_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}
_FACE_INDEX = ("vertex_indices", "vertex_index")


def _load_ply(path: Path) -> TriMesh:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise FormatError(f"{path}:1: not a PLY file")
        fmt = None
        elements = []  # (name, count, [(prop_name, type, list_len_type)])
        for lineno, line in enumerate(fh, start=2):
            parts = line.decode("ascii", errors="replace").split()
            if not parts or parts[0] == "comment":
                continue
            try:
                if parts[0] == "format":
                    fmt = parts[1]
                    if fmt not in ("ascii", "binary_little_endian"):
                        raise ValueError(f"unsupported PLY format '{fmt}'")
                elif parts[0] == "element":
                    elements.append((parts[1], int(parts[2]), []))
                    if elements[-1][1] < 0:
                        raise ValueError("negative element count")
                elif parts[0] == "property":
                    if not elements:
                        raise ValueError("property before element")
                    if parts[1] == "list":
                        prop = (parts[4], parts[3], parts[2])
                    else:
                        prop = (parts[2], parts[1], None)
                    elements[-1][2].append(prop)
                elif parts[0] == "end_header":
                    break
            except (IndexError, ValueError) as exc:
                raise FormatError(
                    f"{path}:{lineno}: malformed header line ({exc})")
        else:
            raise FormatError(f"{path}: unexpected EOF in header")
        if fmt is None:
            raise FormatError(f"{path}: PLY header missing format line")
        body = fh.read()

    read = _read_binary
    if fmt == "ascii":  # the non-blank lines, in one C-level pass
        text = body.decode("ascii", errors="replace")
        body = list(filter(str.strip, text.split("\n")))
        read = partial(_read_ascii, at=partial(_RowLine, path, text,
                                               lineno + 1))
    data, pos = {}, 0
    for name, count, props in elements:
        if count and props:
            data[name], pos = read(path, body, pos, name, count, props)
        else:
            data[name] = {p: np.empty((0, 0) if lt else 0) for p, _, lt in props}
    return _assemble_ply(path, data, {p: t for el, _, props in elements
                                      if el == "vertex" for p, t, _ in props})


def _record_dtype(where, name, props, record):
    """One record of an element as a structured dtype, each list as long
    as in `record`: an ASCII line (every field then a float64, one per
    value) or a buffer that starts with the binary record."""
    ascii = isinstance(record, str)
    fields = []
    try:
        if ascii:
            record = np.loadtxt([record], comments=None, ndmin=2)[0]
        for pname, ptype, ltype in props:
            vtype = "<f8" if ascii else _PLY_TYPES[ptype]
            if ltype is not None:
                ctype = np.dtype("<f8" if ascii else _PLY_TYPES[ltype])
                at = np.dtype(fields).itemsize
                n = int(record[at // 8] if ascii else
                        np.frombuffer(record, ctype, 1, at)[0])
                if name == "face" and pname in _FACE_INDEX and n != 3:
                    raise TopologyError(f"{where}: only triangle faces are "
                                        f"supported, got {n}-gon")
                fields.append((pname + " count", ctype))
                vtype = (vtype, (n,))
            fields.append((pname, vtype))
        dtype = np.dtype(fields)
        if ascii and dtype.itemsize != 8 * len(record):
            raise ValueError(f"{len(record)} values, expected "
                             f"{dtype.itemsize // 8}")
    except (IndexError, KeyError, OverflowError, ValueError) as exc:
        raise FormatError(f"{where}: malformed '{name}' record ({exc!r})")
    return dtype


def _odd_records(rec, props):
    """Indices of the records whose list lengths differ from the first's."""
    return np.flatnonzero(np.any([rec[p + " count"] != rec.dtype[p].shape[0]
                                  for p, _, lt in props if lt], axis=0))


def _read_binary(path, buf, offset, name, count, props):
    record = memoryview(buf)[offset:]
    dtype = _record_dtype(f"{path}: '{name}' record 0", name, props, record)
    end = offset + dtype.itemsize * count
    if end > len(buf):
        raise FormatError(f"{path}: truncated binary '{name}' data")
    rec = np.frombuffer(buf, dtype, count, offset)
    for i in _odd_records(rec, props)[:1]:  # a non-triangle face raises
        where = f"{path}: '{name}' record {i}"
        _record_dtype(where, name, props, record[i * dtype.itemsize:])
        raise FormatError(f"{where}: list lengths differ from record 0's")
    return {f: rec[f] for f in dtype.names}, end


class _RowLine:
    """Formats as `path:line` for the `row`-th non-blank line of an ASCII
    body whose first line is file line `first`. The line is counted only
    when formatted, that is when an error names it."""

    def __init__(self, path, text, first, row):
        self.path, self.text, self.first, self.row = path, text, first, row

    def __str__(self):
        lines = enumerate(self.text.split("\n"), self.first)
        nonblank = (k for k, line in lines if line.strip())
        return f"{self.path}:{next(islice(nonblank, self.row, None))}"


def _read_ascii(path, rows, start, name, count, props, at):
    """Parse `count` non-blank lines as one float64 block laid out like
    the first; `at(i)` names the file line of row i in an error."""
    block = rows[start:start + count]
    if len(block) < count:
        raise FormatError(f"{path}: truncated '{name}' data")
    dtype = _record_dtype(at(start), name, props, block[0])
    try:
        rec = np.loadtxt(block, comments=None, ndmin=2).view(dtype)[:, 0]
        odd = _odd_records(rec, props)
    except ValueError:  # a row of another width, or a non-number
        odd = range(count)
    for i in odd:  # raise at the first
        if _record_dtype(at(start + i), name, props, block[i]) != dtype:
            raise FormatError(f"{at(start + i)}: '{name}' row's list "
                              "lengths differ from the first row's")
    return {f: rec[f] for f in dtype.names}, start + count


def _assemble_ply(path, data, vertex_types) -> TriMesh:
    try:
        vel = data["vertex"]
        verts = np.column_stack([vel["x"], vel["y"], vel["z"]])
    except KeyError:
        raise FormatError(f"{path}: PLY file has no vertex element with x/y/z")
    colors = None
    if all(c in vel for c in ("red", "green", "blue")):
        scale = {"uchar": 255.0, "uint8": 255.0, "ushort": 65535.0,
                 "uint16": 65535.0}.get(vertex_types["red"], 1.0)
        colors = np.column_stack([vel["red"], vel["green"], vel["blue"]]) / scale
    fel = data.get("face", {})
    idx = fel.get("vertex_indices", fel.get("vertex_index", np.empty((0, 3))))
    if idx.ndim != 2:
        raise FormatError(f"{path}: face vertex indices must be a list")
    if idx.dtype.kind == "f":  # ASCII rows are read as floats
        whole = (np.isfinite(idx) & (idx == np.trunc(idx))).all(axis=1)
        if not whole.all():
            raise FormatError(f"{path}: face {np.argmin(whole)} has a vertex "
                              "index that is not an integer")
    return TriMesh(verts, idx.astype(np.int64).reshape(-1, 3), colors)


def _save_ply(path: Path, mesh: TriMesh, binary: bool):
    n, m = mesh.n_vertices, mesh.n_triangles
    has_color = mesh.colors is not None
    fmt = "binary_little_endian" if binary else "ascii"
    header = ["ply", f"format {fmt} 1.0", f"element vertex {n}"]
    header += [f"property double {c}" for c in "xyz"]
    header += [f"property uchar {c}" for c in ("red", "green", "blue")
               if has_color]
    header += [f"element face {m}", "property list uchar int vertex_indices",
               "end_header", ""]
    rgb = (np.clip(np.rint(mesh.colors * 255.0), 0, 255).astype(np.uint8)
           if has_color else np.empty((n, 0), np.uint8))
    if binary:
        vert = np.empty(n, [("xyz", "<f8", (3,)), ("rgb", "u1", rgb.shape[1:])])
        vert["xyz"], vert["rgb"] = mesh.vertices, rgb
        face = np.empty(m, [("n", "u1"), ("idx", "<i4", (3,))])
        face["n"], face["idx"] = 3, mesh.triangles
        body = vert.tobytes() + face.tobytes()
    else:
        row = " ".join(["%r"] * (3 + rgb.shape[1])) + "\n"
        verts = [v + c for v, c in zip(mesh.vertices.tolist(), rgb.tolist())]
        body = (row * n % tuple(chain.from_iterable(verts))
                + "3 %d %d %d\n" * m % tuple(mesh.triangles.ravel().tolist()))
        body = body.encode("ascii")
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("ascii") + body)
