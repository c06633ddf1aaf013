"""The package's modules import only from the layers below them."""

import ast
from pathlib import Path

import orlicz_lab

# lowest first; the package root re-exports every layer up to region, so
# only the CLI sits above it
ORDER = ("errors", "util", "young", "norms", "functionals", "eigensolver",
         "region", "__init__", "cli")
PACKAGE = Path(orlicz_lab.__file__).parent


def relative_imports(path):
    """``(line, target module)`` of every relative import in ``path``,
    function-local ones included; ``from . import name`` targets the
    module ``name`` when there is one, else the package root."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is not None:
            yield node.lineno, node.module.split(".")[0]
        else:
            for alias in node.names:
                yield node.lineno, (alias.name if alias.name in ORDER
                                    else "__init__")


def test_relative_imports_point_to_lower_layers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert sorted(p.stem for p in modules) == sorted(ORDER)
    upward = [f"{path.stem}:{line} imports {target}"
              for path in modules
              for line, target in relative_imports(path)
              if ORDER.index(target) >= ORDER.index(path.stem)]
    assert upward == []
