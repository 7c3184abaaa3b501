"""Each meshcorr module reads only the public names of the others."""

import ast
from pathlib import Path

import meshcorr

PACKAGE = Path(meshcorr.__file__).parent


def private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(path):
    """(line, name) of each underscored name that the module at ``path``
    imports from, or reads as an attribute of, another meshcorr module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = f"meshcorr.{path.stem}"
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("meshcorr" + ("." + node.module if node.module else "")
                      if node.level else node.module or "")
            if source != "meshcorr" and not source.startswith("meshcorr."):
                continue
            for alias in node.names:
                if source == "meshcorr":  # from . import module
                    modules.add(alias.asname or alias.name)
                elif source != own and private(alias.name):
                    reads.append((node.lineno, f"{source}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("meshcorr.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.value.id != path.stem):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(reads)


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_reads(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_reads_sees_both_forms(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from . import pipeline as p, spectral\n"
                    "from .mesh import _private, public\n"
                    "from .cli import _own\n"
                    "p._check(spectral.eigenbasis, spectral._dense_eigh)\n"
                    "p.__name__\n")
    assert private_reads(path) == [(2, "meshcorr.mesh._private"),
                                   (4, "p._check"), (4, "spectral._dense_eigh")]
