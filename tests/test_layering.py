"""Structural rules of the package.  Read from its syntax trees: modules
import only from the layers below them, every export is read, and the
solver has one iteration loop.  Run in a fresh interpreter: importing
the package loads neither scipy nor yaml."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import orlicz_lab

# lowest first; the package root re-exports every layer up to region, so
# only the CLI sits above it
ORDER = ("errors", "util", "young", "norms", "functionals", "eigensolver",
         "region", "__init__", "cli")
PACKAGE = Path(orlicz_lab.__file__).parent
README = PACKAGE.parents[1] / "README.md"


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


def _uses(tree):
    """Names a module loads or reads as attributes, each with the
    top-level definition it sits in (None at module level)."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        if isinstance(top, ast.Assign):
            owner = next((t.id for t in top.targets
                          if isinstance(t, ast.Name)), None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


def test_every_export_is_read_by_the_package_or_the_readme():
    # a public name that only tests or demos call is surface without a
    # result behind it: the package itself must use it, or the README
    # must document it
    used = {(path.stem, owner, name) for path in PACKAGE.glob("*.py")
            for owner, name in _uses(ast.parse(path.read_text()))}
    readme = README.read_text()
    unread = []
    for stem in ORDER[:ORDER.index("__init__")]:
        for name in getattr(orlicz_lab, stem).__all__:
            elsewhere = any(n == name and (s, o) != (stem, name)
                            for s, o, n in used)
            if not (elsewhere
                    or re.search(rf"\b{re.escape(name)}\b", readme)):
                unread.append(f"{stem}.{name}")
    assert unread == []


def _calls_by_owner(predicate):
    """``module.owner`` of every node of the package that ``predicate``
    holds for, the owner being the top-level definition it sits in."""
    return sorted(f"{path.stem}.{getattr(top, 'name', None)}"
                  for path in PACKAGE.glob("*.py")
                  for top in ast.parse(path.read_text()).body
                  for node in ast.walk(top) if predicate(node))


def test_one_iteration_loop_and_one_pair_constructor():
    # both solver loops run through one iteration driver, and every
    # EigenPair is certified in one place: the row exit of that driver
    loops = _calls_by_owner(
        lambda node: isinstance(node, ast.For)
        and ast.unparse(node.iter) == "range(opts.max_iter + 1)")
    assert loops == ["eigensolver._iterate"]
    built = _calls_by_owner(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "EigenPair")
    assert built == ["eigensolver._exit"]
    exits = _calls_by_owner(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "_exit")
    assert set(exits) == {"eigensolver._iterate"}


def _fresh(code: str) -> str:
    """Stripped stdout of ``code`` run in a fresh interpreter that imports
    this package."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return run.stdout.strip()


def test_importing_the_package_loads_no_scipy_and_no_yaml():
    # scipy loads with the first factorization or table that needs it and
    # yaml with the first config read, so a bare import pays for neither;
    # the Gauss rule is written out, so numpy.polynomial never loads
    assert _fresh("import sys, orlicz_lab\n"
                  "loaded = set(sys.modules) | {m.split('.')[0] "
                  "for m in sys.modules}\n"
                  "print(sorted(loaded & {'scipy', 'yaml', "
                  "'numpy.polynomial'}))") == "[]"


def test_a_solve_loads_neither_scipy_linalg_nor_numpy_f2py():
    # the factorizations load scipy's LAPACK extension from its file, not
    # through scipy.linalg, whose package init imports about 300 modules;
    # the default start is the bump alone, which draws no random number
    assert _fresh(
        "import sys, orlicz_lab as ol\n"
        "dom = ol.GridDomain('box', (0.0, 1.0), 17)\n"
        "one = ol.WeightField.constant(dom)\n"
        "setup = ol.EnergySetup(ol.Power(3.0), ol.Power(2.0), one, one, dom)\n"
        "pair = ol.minimize_on_level(setup, 1.0)\n"
        "print(pair.stats['factorizations'] > 0, "
        "sorted({'scipy.linalg', 'numpy.f2py', 'numpy.random'} "
        "& set(sys.modules)))"
    ) == "True []"


def test_building_a_setup_builds_no_stiffness_pattern_and_loads_no_scipy():
    # the set-up cost of every solve: a domain and its energy setup defer
    # the stiffness pattern to the first tangent and scipy to the first
    # factorization
    assert _fresh(
        "import sys, orlicz_lab as ol\n"
        "dom = ol.GridDomain('box', (0.0, 1.0), 65)\n"
        "one = ol.WeightField.constant(dom)\n"
        "ol.EnergySetup(ol.Power(3.0), ol.Power(2.0), one, one, dom)\n"
        "print('stiffness_pattern' in dom.__dict__, "
        "'scipy' in {m.split('.')[0] for m in sys.modules})"
    ) == "False False"


def test_one_band_summation_for_both_tangent_kernels():
    # the symmetric and the general band are summed from the cells by one
    # bincount, neither is built by a hook on attribute lookup, and no
    # module reads a second assembly of the matrix entries
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    (pattern,) = [top for top in tree.body if isinstance(top, ast.ClassDef)
                  and top.name == "StiffnessPattern"]
    assert "__getattr__" not in {node.name for node in pattern.body
                                 if isinstance(node, ast.FunctionDef)}
    sums = [node for node in ast.walk(pattern) if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "np.bincount"]
    assert len(sums) == 1
    assert _calls_by_owner(lambda node: isinstance(node, ast.Attribute)
                           and node.attr == "assemble") == []
