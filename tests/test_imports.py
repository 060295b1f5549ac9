"""Every name a package module imports at module level is used in it,
and every private name it defines at module level is read in the package.

A deletion that leaves its imports or helpers behind fails here.  The
package's ``__init__`` is left out of the import scan: it imports to
re-export.  A decorated private ``def`` is left out of the name scan:
its decorator (``check``) registers it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "gk3").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_private_names(sources: dict) -> list:
    """``module.name`` of each module-level private name of ``sources``
    ({module: source}) that no module reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_the_scan_sees_a_dead_private_name():
    sources = {
        "a": "_X, _Y = 1, 2\n_Z: int = 3\nclass _C: pass\n"
             "def _f(): return _Y\n@check\ndef _g(): pass\n",
        "b": "import a\na._f()\n_C = 4\n",
    }
    assert _dead_private_names(sources) == ["a._X", "a._Z", "a._C", "b._C"]


def test_every_module_level_private_name_is_read():
    assert _dead_private_names({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def test_the_command_line_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter: the modules that importing gk3.cli adds
    code = ("import sys; before = set(sys.modules); import gk3.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(PACKAGE[0].parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def _name_uses(source: str, names) -> list:
    """Lines that name one of ``names``: read, called, bound, imported
    (under its own name or as an alias) or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.alias) and (node.name in names or node.asname in names))


_RANDINT = {"randint", "randrange"}


def test_the_scan_sees_a_randint_use():
    source = ('rng.randint(1, 2)\ndraw = rng.randrange\nfrom random import randint as r\n'
              'randint(0, 1)\n"randint"\n')
    assert _name_uses(source, _RANDINT) == [1, 2, 3, 4]
    assert _name_uses("rng.getrandbits(3)\nbits = rng.getrandbits\n", {"getrandbits"}) == [1, 2]


def test_the_suites_draw_only_through_the_pinned_helper():
    # checks._draws is pinned to random.Random.randint by the draw tests, and
    # its loop is the one place that draws bits
    source = (PACKAGE[0].parent / "checks.py").read_text(encoding="utf-8")
    assert _name_uses(source, _RANDINT) == []
    assert len(_name_uses(source, {"getrandbits"})) == 1


def _hand_built_verdicts(source: str, exempt=("_check_gcs_family",)) -> list:
    """``name (line)`` of each ``return``, ``yield`` or ``yield from`` in a
    module-level ``@check(...)`` body, outside ``exempt``, whose value is
    not a call of ``_identities`` or ``_sampled``.  Nested functions and
    lambdas are the body's helpers and are not scanned."""
    def builder_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_identities", "_sampled"))

    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in exempt or not any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "check"
                for d in fn.decorator_list):
            continue
        nodes = list(fn.body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and not (
                    isinstance(node, (ast.Return, ast.YieldFrom)) and builder_call(node.value)):
                found.append(f"{fn.name} (line {node.lineno})")
            nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_scan_sees_a_hand_built_verdict():
    source = (
        '@check("a", "s")\n'
        'def _a(cfg):\n'
        '    def at(t, z):\n'
        '        return {"x": True}\n'
        '    yield from _sampled(cfg, {"x": "s"}, at)\n'
        '    yield "y", "s", {}, []\n'
        '@check("b", "s")\n'
        'def _b(cfg):\n'
        '    return [(None, "s", {}, [])]\n'
        '@check("c", "s")\n'
        'def _c(cfg):\n'
        '    yield _identities(())\n'
        '@check("d", "s")\n'
        'def _d(cfg):\n'
        '    return _identities((("x", "s", {}, lambda: []),))\n'
        'def _e(cfg):\n'
        '    return ("x", "s", {}, [])\n'
    )
    assert _hand_built_verdicts(source) == ["_a (line 6)", "_b (line 9)", "_c (line 12)"]
    assert _hand_built_verdicts(source, exempt=("_a", "_b", "_c")) == []


def test_every_check_body_builds_its_verdicts_through_a_builder():
    source = (PACKAGE[0].parent / "checks.py").read_text(encoding="utf-8")
    assert _hand_built_verdicts(source) == []


def _record_name_splits(source: str) -> list:
    """Lines that call ``partition``, ``rpartition`` or ``split`` with the
    argument ``"["``, splitting a record name ``check[label]``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("partition", "rpartition", "split")
                  and any(isinstance(a, ast.Constant) and a.value == "["
                          for a in [*node.args, *(k.value for k in node.keywords)]))


def test_the_scan_sees_a_record_name_split():
    source = ('n.partition("[")[0]\nn.rpartition("[")\nn.split("[", 1)\nn.split(sep="[")\n'
              'n.split(",")\nn.partition("=")\n"[".join(n)\nn.index("[")\n')
    assert _record_name_splits(source) == [1, 2, 3, 4]


def test_only_the_registry_splits_a_record_name():
    # checks.selects is the one rule by which a name selects records
    found = {p.stem: _record_name_splits(p.read_text(encoding="utf-8"))
             for p in MODULES if p.name != "checks.py"}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_scan_sees_a_scalar_name():
    source = ('from .scalar import GR_ONE, Scalar\none = Scalar.one()\nfrom . import scalar\n'
              'scalar.Scalar\nfrom .scalar import Scalar as S\n"Scalar"\nScalarish = 1\n')
    assert _name_uses(source, {"Scalar"}) == [1, 2, 4, 5]


def test_the_subspace_layer_names_no_laurent_scalar():
    # subspaces and kernels are over Q(i): linalg has no Laurent branch to pick
    source = (PACKAGE[0].parent / "linalg.py").read_text(encoding="utf-8")
    assert _name_uses(source, {"Scalar"}) == []


# the fused Gaussian kernels and the kernel test, which linalg._dot_kernel chooses between
_KERNELS = {"_gauss_dot", "_gauss_sub_scaled", "_dot", "_is_gauss"}


def test_the_scan_sees_a_kernel_name():
    source = ('from .linalg import _dot_kernel, _dot\nfrom .scalar import _gauss_dot as g\n'
              'dot = _dot_kernel(rows)\nlinalg._is_gauss(rows)\n"_gauss_sub_scaled"\n'
              'from .scalar import GaussRational as _gauss_sub_scaled\n')
    assert _name_uses(source, _KERNELS) == [1, 2, 4, 6]


def test_only_scalar_and_linalg_name_the_fused_kernels():
    found = {p.stem: _name_uses(p.read_text(encoding="utf-8"), _KERNELS)
             for p in PACKAGE if p.name not in ("scalar.py", "linalg.py")}
    assert {module: lines for module, lines in found.items() if lines} == {}


def _package_imports(source: str) -> list:
    """The ``gk3`` modules that ``source`` imports, at any depth: ``from .
    import m``, ``from .m import x``, ``import gk3.m``, ``from gk3 import m``
    and ``from gk3.m import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gk3.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "gk3"
                                                   or (node.module or "").startswith("gk3.")):
            module = (node.module or "").removeprefix("gk3").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return sorted(found)


def test_the_scan_sees_a_package_import():
    source = ('from . import cohomology as coh\nfrom .linalg import CMatrix\nimport gk3.mirror\n'
              'from gk3 import families, harmonic\nfrom gk3.cli import main\nimport os, gk3\n'
              'from fractions import Fraction\ndef f():\n    from .checks import REGISTRY\n')
    assert _package_imports(source) == [
        "checks", "cli", "cohomology", "families", "harmonic", "linalg", "mirror"]


# the flat model of generalized complex structures, and what it must not import:
# the Mukai lattice layer and the modules above both, which alone join the two
_FLAT_MODEL = ("scalar", "linalg", "spinor", "gcs")
_LATTICE_AND_ABOVE = {"cohomology", "harmonic", "families", "mirror", "checks", "parser", "cli"}


def test_the_flat_model_imports_no_lattice_module():
    found = {p.stem: sorted(set(_package_imports(p.read_text(encoding="utf-8")))
                            & _LATTICE_AND_ABOVE)
             for p in PACKAGE if p.stem in _FLAT_MODEL}
    assert sorted(found) == sorted(_FLAT_MODEL)
    assert {module: names for module, names in found.items() if names} == {}


# the scopes that may read the selection: check's runner, run_checks, RunConfig.validate
_SELECTORS = (("check", "register", "run"), ("run_checks",), ("RunConfig", "validate"))


def _selection_reads(source: str) -> list:
    """``scope (line)`` of each read of ``selects`` or of an attribute
    ``names`` outside :data:`_SELECTORS`; ``scope`` is the dotted path of
    the enclosing ``def`` and ``class`` statements, ``<module>`` at the top."""
    found = set()

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, scope + (child.name,))
                continue
            read = (isinstance(child, ast.Name) and child.id == "selects"
                    or isinstance(child, ast.Attribute) and child.attr == "names")
            if read and isinstance(child.ctx, ast.Load) and not any(
                    scope[:len(s)] == s for s in _SELECTORS):
                found.add((child.lineno, ".".join(scope) or "<module>"))
            scan(child, scope)

    scan(ast.parse(source), ())
    return [f"{scope} (line {line})" for line, scope in sorted(found)]


def test_the_scan_sees_a_selection_read():
    source = (
        'def selects(names, record):\n'
        '    return record in names\n'
        'class RunConfig:\n'
        '    def validate(self):\n'
        '        return [n for n in self.names if not selects(ALL, n)]\n'
        'def check(name, statement):\n'
        '    def register(body):\n'
        '        def run(cfg):\n'
        '            return body(cfg, lambda label: selects(cfg.names, label))\n'
        '        return run\n'
        '    return register\n'
        'def run_checks(cfg):\n'
        '    return cfg.names\n'
        '@check("a", "s")\n'
        'def _check_a(cfg, wanted):\n'
        '    if cfg.names is not None and "x" in cfg.names:\n'
        '        pick = selects\n'
        '    cfg.names = ()\n'
        'def _sampled(cfg, wanted, statements):\n'
        '    return [s for s in statements if selects(cfg.names, s)]\n'
        'ALL = selects\n'
    )
    assert _selection_reads(source) == [
        "_check_a (line 16)", "_check_a (line 17)", "_sampled (line 20)", "<module> (line 21)"]


def test_only_the_registry_reads_the_selection():
    # check bodies and builders see the selection only as their wanted(label)
    found = {p.stem: _selection_reads(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {module: reads for module, reads in found.items() if reads} == {}
