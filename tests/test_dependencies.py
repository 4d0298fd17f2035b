"""numpy is the only runtime dependency of the coflow_forge package, only
the generator builds random streams, and no writer uses json's indent
encoder, which runs in pure Python."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "coflow_forge")
                 .glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library_and_numpy():
    assert SOURCES
    foreign = {(path.name, name) for path in SOURCES
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not foreign


def test_only_the_generator_uses_numpy_random():
    # generator._rng builds every random stream and holds their numbers.
    users = {path.name for path in SOURCES
             if any(name.startswith("numpy.random")
                    for name in _absolute_imports(path))
             or any(isinstance(node, ast.Attribute) and node.attr == "random"
                    and getattr(node.value, "id", None) in ("np", "numpy")
                    for node in ast.walk(ast.parse(path.read_text())))}
    assert users == {"generator.py"}


def test_no_writer_uses_the_json_indent_encoder():
    calls = {(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "dumps"
             and any(k.arg == "indent" for k in node.keywords)}
    assert not calls
