import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from meshcorr.errors import (DataError, FormatError, MeshCorrError,
                             TopologyError)
from meshcorr.evalbench import load_dataset
from meshcorr.features import load_features
from meshcorr.funcmap import (FmapWeights, FunctionalMap, PointMap, load_map,
                              save_map)
from meshcorr.geodesics import load_groups, save_groups
from meshcorr.mesh import TriMesh
from meshcorr.meshio import load_mesh, save_mesh
from meshcorr.transfer import load_keypoints

from conftest import icosphere, octant_groups


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_mesh(tmp_path / "nope.ply")
    (tmp_path / "d.ply").mkdir()
    with pytest.raises(FormatError, match="directory: .*d.ply"):
        load_mesh(tmp_path / "d.ply")


def test_unknown_extension(tmp_path):
    p = tmp_path / "mesh.stl"
    p.write_text("whatever")
    with pytest.raises(DataError):
        load_mesh(p)


def test_obj_roundtrip_parsing(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = load_mesh(p)
    assert m.n_vertices == 3 and m.n_triangles == 1
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])



def test_comment_lines_are_skipped(tmp_path):
    # OBJ '#' lines and blank lines, and PLY header 'comment' lines
    obj = tmp_path / "c.obj"
    obj.write_text("# made by hand\n\nv 0 0 0\n  # indented\nv 1 0 0\n"
                   "v 0 1 0\n#f 9 9 9\nf 1 2 3\n")
    ply = tmp_path / "c.ply"
    save_mesh(ply, load_mesh(obj))
    lines = ply.read_text().split("\n")
    ply.write_text("\n".join(lines[:2] + ["comment made by hand",
                                          "comment element vertex 99"]
                             + lines[2:]))
    for path in (obj, ply):
        m = load_mesh(path)
        np.testing.assert_array_equal(m.vertices, [[0, 0, 0], [1, 0, 0],
                                                   [0, 1, 0]])
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])

def test_obj_with_vertex_colors(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1\nf 1 2 3\n")
    m = load_mesh(p)
    np.testing.assert_allclose(m.colors, np.eye(3))


def test_obj_slash_indices(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/1 2/1 3/1\n")
    m = load_mesh(p)
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])


def test_obj_quad_rejected(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(TopologyError):
        load_mesh(p)


def test_off_parsing(tmp_path):
    p = tmp_path / "tri.off"
    # the edge count on the count line and the OFF header are optional
    for head in ("OFF\n3 1 0", "OFF\n3 1", "3 1 0"):
        p.write_text(f"{head}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        m = load_mesh(p)
        assert m.n_vertices == 3
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])
        np.testing.assert_array_equal(m.vertices[1], [1, 0, 0])


def test_off_bad_header(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("NOTOFF\n3 1 0\n")
    with pytest.raises(FormatError):
        load_mesh(p)


@pytest.mark.parametrize("header, extra", [("COFF", " 1 0 0 1"),
                                           ("NOFF", " 0 0 1")],
                         ids=["COFF", "NOFF"])
def test_off_variant_headers_rejected_at_line_1(tmp_path, header, extra):
    # per-vertex colors or normals would be read as coordinates
    p = tmp_path / "v.off"
    p.write_text(f"{header}\n3 1 0\n" + "".join(
        f"{v}{extra}\n" for v in ("0 0 0", "1 0 0", "0 1 0")) + "3 0 1 2\n")
    with pytest.raises(FormatError, match=f"v.off:1: .*'{header}'"):
        load_mesh(p)


@pytest.mark.parametrize("body, line", [
    ("OFF\n3 1 0\n0 0 0\n# a note\n\n1 x 0\n0 1 0\n3 0 1 2\n", 6),
    ("OFF # header\n# counts next\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", 7),
    ("OFF\n3 1 0\n0 0\n0\n1 0 0\n0 1 0\n3 0 1 2\n", 3),
], ids=["vertex-after-comment", "face-after-comments", "split-vertex"])
def test_off_bad_row_names_its_file_line(tmp_path, body, line):
    p = tmp_path / "m.off"
    p.write_text(body)
    with pytest.raises(FormatError, match=f"m.off:{line}: malformed"):
        load_mesh(p)


@pytest.mark.parametrize("name, head", [
    ("m.off", "OFF\n3 2 0\n"),
    ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\n"
              + "".join(f"property float {c}\n" for c in "xyz")
              + "element face 2\nproperty list uchar int vertex_indices\n"
              "end_header\n"),
], ids=["off", "ascii-ply"])
@pytest.mark.parametrize("bad", ["2.7", "nan", "inf"])
def test_ascii_face_index_must_be_an_integer(tmp_path, name, head, bad):
    p = tmp_path / name
    p.write_text(head + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n" + f"3 0 1 {bad}\n")
    with pytest.raises(FormatError, match="face 1 has a vertex index"):
        load_mesh(p)


def test_ply_ascii_roundtrip(tmp_path):
    m = icosphere(1)
    rng = np.random.default_rng(3)
    m = m.with_colors(np.round(rng.uniform(size=(m.n_vertices, 3)) * 255) / 255)
    p = tmp_path / "m.ply"
    save_mesh(p, m, binary=False)
    back = load_mesh(p)
    np.testing.assert_allclose(back.vertices, m.vertices, atol=1e-6)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    # colors quantized to uchar both ways -> exact
    np.testing.assert_allclose(back.colors, m.colors, atol=1e-12)


def test_ply_binary_roundtrip(tmp_path):
    m = icosphere(2)
    rng = np.random.default_rng(4)
    m = m.with_colors(np.round(rng.uniform(size=(m.n_vertices, 3)) * 255) / 255)
    p = tmp_path / "m.ply"
    save_mesh(p, m, binary=True)
    back = load_mesh(p)
    np.testing.assert_allclose(back.vertices, m.vertices, atol=1e-6)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    np.testing.assert_allclose(back.colors, m.colors, atol=1e-12)


def test_ply_color_scaling_by_declared_type(tmp_path):
    # uchar colors must be divided by 255 even when all values are dim
    p = tmp_path / "dim.ply"
    p.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0 10 20 30\n1 0 0 10 20 30\n0 1 0 10 20 30\n"
        "3 0 1 2\n")
    m = load_mesh(p)
    np.testing.assert_allclose(m.colors[0], np.array([10, 20, 30]) / 255.0)


def test_ply_truncated_binary(tmp_path):
    m = icosphere(1)
    p = tmp_path / "m.ply"
    save_mesh(p, m, binary=True)
    data = p.read_bytes()
    p.write_bytes(data[:len(data) - 20])
    with pytest.raises(DataError):
        load_mesh(p)


def _ply_header(fmt, faces):
    return ("ply\nformat %s 1.0\nelement vertex 4\nproperty float x\n"
            "property float y\nproperty float z\nelement face %d\n"
            "property list uchar int vertex_indices\nend_header\n"
            % (fmt, len(faces))).encode()


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_ply_quad_after_triangles_rejected(tmp_path, binary):
    faces = [[0, 1, 2], [0, 1, 2, 3]]
    p = tmp_path / "mixed.ply"
    if binary:
        body = struct.pack("<12f", *range(12)) + b"".join(
            struct.pack(f"<B{len(f)}i", len(f), *f) for f in faces)
    else:
        body = ("0 0 0\n1 0 0\n1 1 0\n0 1 0\n" + "".join(
            f"{len(f)} {' '.join(map(str, f))}\n" for f in faces)).encode()
    p.write_bytes(_ply_header("binary_little_endian" if binary else "ascii",
                              faces) + body)
    with pytest.raises(TopologyError, match="4-gon"):
        load_mesh(p)


ASCII_BAD_ROWS = {  # body after the 9 header lines, file line of its bad row
    "plain": (b"0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 one 2\n", 14),
    "blank-lines": (b"0 0 0\n\n1 0 0\n \t \n1 1 0\n0 1 0\n\n   \n"
                    b"3 0 one 2\n", 18),
    "later-row": (b"\n0 0 0\n1 0 0\n1 one 0\n0 1 0\n3 0 1 2\n", 13),
}


@pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", list(ASCII_BAD_ROWS))
def test_ply_ascii_non_numeric_value_names_its_line(tmp_path, case, eol):
    body, line = ASCII_BAD_ROWS[case]
    p = tmp_path / "bad.ply"
    p.write_bytes((_ply_header("ascii", [[0, 1, 2]]) + body)
                  .replace(b"\n", eol))
    with pytest.raises(FormatError, match=f"bad.ply:{line}:"):
        load_mesh(p)


# save_mesh's output, pinned byte for byte
GOLDEN = TriMesh(
    np.array([[0.1, -2.5, 1 / 3], [1e-300, 2.0, -0.0], [1.0, 0.0, 7.25],
              [-1.5, 1e16, 3.0]]),
    np.array([[0, 1, 2], [2, 3, 0]]),
    np.array([[0.0, 0.5, 1.0], [0.2, 0.4, 0.6], [1.0, 1.0, 1.0],
              [0.0, 0.0, 0.001]]))
GOLDEN_HEADER = (
    "ply\nformat {} 1.0\nelement vertex 4\nproperty double x\n"
    "property double y\nproperty double z\nproperty uchar red\n"
    "property uchar green\nproperty uchar blue\nelement face 2\n"
    "property list uchar int vertex_indices\nend_header\n")
GOLDEN_ASCII_BODY = (
    "0.1 -2.5 0.3333333333333333 0 128 255\n"
    "1e-300 2.0 -0.0 51 102 153\n"
    "1.0 0.0 7.25 255 255 255\n"
    "-1.5 1e+16 3.0 0 0 0\n"
    "3 0 1 2\n"
    "3 2 3 0\n")
GOLDEN_BINARY_BODY = bytes.fromhex(
    "9a9999999999b93f00000000000004c0555555555555d53f0080ff59f3f8c21f"
    "6ea50100000000000000400000000000000080336699000000000000f03f0000"
    "0000000000000000000000001d40ffffff000000000000f8bf0080e03779c341"
    "4300000000000008400000000300000000010000000200000003020000000300"
    "000000000000")


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_save_mesh_golden_bytes(tmp_path, binary):
    p = tmp_path / "golden.ply"
    save_mesh(p, GOLDEN, binary=binary)
    if binary:
        want = (GOLDEN_HEADER.format("binary_little_endian").encode()
                + GOLDEN_BINARY_BODY)
    else:
        want = (GOLDEN_HEADER.format("ascii") + GOLDEN_ASCII_BODY).encode()
    assert p.read_bytes() == want


@st.composite
def tri_meshes(draw):
    n = draw(st.integers(3, 12))
    verts = draw(arrays(np.float64, (n, 3), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    tris = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3,
                                  max_size=3, unique=True), max_size=12))
    colors = None
    if draw(st.booleans()):
        # uchar-exact colors survive the 8-bit channels unchanged
        colors = draw(arrays(np.uint8, (n, 3))) / 255.0
    return TriMesh(verts, np.array(tris, dtype=np.int64).reshape(-1, 3),
                   colors)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    # one directory for all examples: function-scoped tmp_path would be
    # shared by every example Hypothesis runs anyway
    return tmp_path_factory.mktemp("hypothesis")


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
@given(mesh=tri_meshes())
def test_ply_roundtrip_exact(scratch, binary, mesh):
    p = scratch / "roundtrip.ply"
    save_mesh(p, mesh, binary=binary)
    back = load_mesh(p)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(np.signbit(back.vertices),
                                  np.signbit(mesh.vertices))
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    if mesh.colors is None:
        assert back.colors is None
    else:
        np.testing.assert_array_equal(back.colors, mesh.colors)


@pytest.fixture(scope="module")
def fuzz_seeds(scratch):
    mesh = icosphere(0)
    mesh = mesh.with_colors(np.linspace(0, 1, mesh.n_vertices * 3)
                            .reshape(-1, 3))
    save_mesh(scratch / "ascii.ply", mesh)
    save_mesh(scratch / "binary.ply", mesh, binary=True)
    ascii = (scratch / "ascii.ply").read_bytes()
    return {"ascii.ply": ascii,
            "crlf.ply": ascii.replace(b"end_header\n", b"end_header\n\n")
                             .replace(b"\n3 ", b"\n \t\n3 ", 1)
                             .replace(b"\n", b"\r\n"),
            "binary.ply": (scratch / "binary.ply").read_bytes(),
            "m.off": b"OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n"
                     b"3 0 1 2\n3 1 3 2\n",
            "m.obj": b"v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1\n"
                     b"v 1 1 0 1 1 1\nf 1 2 3\nf 2/1 4/1 3/1\n"}


@given(name=st.sampled_from(["ascii.ply", "crlf.ply", "binary.ply", "m.off",
                             "m.obj"]),
       data=st.data())
def test_load_mesh_raises_only_meshcorr_errors(scratch, fuzz_seeds, name,
                                               data):
    raw = bytearray(fuzz_seeds[name])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] = data.draw(st.one_of(
                st.integers(0, 255), st.sampled_from(b"0123456789-.e \n#")),
                label="byte")
    p = scratch / ("fuzz-" + name)
    p.write_bytes(bytes(raw))
    try:
        load_mesh(p)
    except MeshCorrError:
        pass


@pytest.fixture(scope="module")
def input_seeds(scratch):
    """A map, groups, keypoint, splits and text feature file of the
    12-vertex icosahedron, as the program writes or reads them."""
    mesh, n = icosphere(0), 12
    save_map(scratch / "map.json", FunctionalMap(np.eye(3), True, 0.5, 4),
             PointMap(np.arange(n)[::-1], np.linspace(0, 1, n)),
             FmapWeights())
    save_groups(scratch / "groups.json", octant_groups(mesh))
    keypoints = [{"label": "tip", "vertex": 5},
                 {"label": "side", "xyz": mesh.vertices[2].tolist()}]
    rows = "".join(f"{i} {0.5 * i}\n" for i in range(n))
    return mesh, {
        "map.json": (scratch / "map.json").read_bytes(),
        "groups.json": (scratch / "groups.json").read_bytes(),
        "kp.json": json.dumps(keypoints).encode(),
        "splits.json": b'{"spheres/a": "test", "spheres/b": "train"}',
        "feat.txt": f"# {n} 2\n{rows}".encode()}


def load_input(scratch, mesh, name, raw):
    """Write ``raw`` where the loader of file ``name`` reads it; load it."""
    if name == "splits.json":
        (scratch / "root").mkdir(exist_ok=True)
        (scratch / "root" / name).write_bytes(raw)
        return load_dataset(scratch / "root")
    p = scratch / ("fuzz-" + name)
    p.write_bytes(raw)
    return {"map.json": load_map, "groups.json": load_groups,
            "kp.json": lambda path: load_keypoints(path, mesh),
            "feat.txt": load_features}[name](p)


@example(name="map.json", data=None)  # data=None: a deeply nested array
@example(name="groups.json", data=None)
@example(name="kp.json", data=None)
@example(name="splits.json", data=None)
@given(name=st.sampled_from(["map.json", "groups.json", "kp.json",
                             "splits.json", "feat.txt"]),
       data=st.data())
def test_input_loaders_raise_only_meshcorr_errors(scratch, input_seeds, name,
                                                  data):
    mesh, seeds = input_seeds
    raw = bytearray(seeds[name])
    if data is None:
        raw = b"[" * 100000
    elif data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] = data.draw(st.one_of(
                st.integers(0, 255),
                st.sampled_from(b'0123456789-.e \n#[]{}",:tfn')),
                label="byte")
    try:
        load_input(scratch, mesh, name, bytes(raw))
    except MeshCorrError:
        pass
