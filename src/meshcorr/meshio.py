"""Mesh file readers and writers: OBJ, OFF, ASCII/binary PLY.

Colors are carried as floats in [0, 1]; 8-bit channels are scaled by
1/255 on load and back to uchar when writing binary-friendly PLY.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FormatError, TopologyError
from .mesh import TriMesh


def load_mesh(path) -> TriMesh:
    path = Path(path)
    if not path.exists():
        raise FormatError(f"mesh file not found: {path}")
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

def _load_off(path: Path) -> TriMesh:
    with open(path, "r", errors="replace") as fh:
        tokens = []
        lines = []
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                for tok in body.split():
                    tokens.append(tok)
                    lines.append(lineno)
    if not tokens:
        raise FormatError(f"{path}: empty OFF file")
    pos = 0
    if tokens[0].upper().endswith("OFF"):
        pos = 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        if nv < 0 or nf < 0:
            raise ValueError("negative count")
        # the edge count is optional; when present it ends the count line
        has_edges = pos + 2 < len(tokens) and lines[pos + 2] == lines[pos + 1]
        pos += 3 if has_edges else 2
    except (ValueError, IndexError):
        raise FormatError(f"{path}:{lines[min(pos, len(lines) - 1)]}: "
                          "bad OFF header counts")
    need = nv * 3
    try:
        verts = np.array(tokens[pos:pos + need], dtype=float).reshape(nv, 3)
    except ValueError:
        raise FormatError(f"{path}: bad vertex data (expected {nv} vertices)")
    pos += need
    faces = []
    for _ in range(nf):
        if pos >= len(tokens):
            raise FormatError(f"{path}: truncated face list")
        try:
            cnt = int(tokens[pos])
            if cnt != 3:
                raise TopologyError(
                    f"{path}:{lines[pos]}: only triangle faces are supported, "
                    f"got {cnt}-gon")
            faces.append([int(tokens[pos + i]) for i in (1, 2, 3)])
        except (IndexError, ValueError):
            raise FormatError(f"{path}:{lines[pos]}: bad or truncated face")
        pos += 4
    return TriMesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))


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

    if fmt == "ascii":  # (line number, line) of each non-blank line
        body = body.decode("ascii", errors="replace").split("\n")
        body = [row for row in enumerate(body, lineno + 1) if row[1].strip()]
    data, pos = {}, 0
    for name, count, props in elements:
        if count and props:
            read = _read_ascii if fmt == "ascii" else _read_binary
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


def _read_ascii(path, rows, start, name, count, props):
    """Parse `count` (line number, line) rows as one float64 block laid
    out like the first row."""
    block = rows[start:start + count]
    if len(block) < count:
        raise FormatError(f"{path}: truncated '{name}' data")
    dtype = _record_dtype(f"{path}:{block[0][0]}", name, props, block[0][1])
    try:
        rec = np.loadtxt([ln for _, ln in block], comments=None,
                         ndmin=2).view(dtype)[:, 0]
        odd = _odd_records(rec, props)
    except ValueError:  # a row of another width, or a non-number
        odd = range(count)
    for lineno, line in (block[i] for i in odd):  # raise at the first
        if _record_dtype(f"{path}:{lineno}", name, props, line) != dtype:
            raise FormatError(f"{path}:{lineno}: '{name}' row's list "
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
