"""Static checks over the package source; this is the project's lint step."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "multibeta").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of every imported name never referenced in ``source``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# Library functions that only code outside the package calls
ENTRY_POINTS = {"default_catalog", "default_parabolic_catalog", "estimate_plane_measure",
                "estimate_line_measure", "holder_exponent_check"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name and attribute that occurs under ``node``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreachable_definitions(sources, entry_points):
    """For each of ``sources``, (line, name) of every module-level function
    and class that the roots do not reach. The roots are ``entry_points`` and
    the names in the module-level statements that are neither definitions
    nor imports (tables, the ``__main__`` guard); a reached definition
    reaches every name it references, in any of the sources."""
    bodies = [ast.parse(source).body for source in sources]
    defs = [node for body in bodies for node in body if isinstance(node, DEFINITIONS)]
    reached = set(entry_points).union(*(
        _names(node) for body in bodies for node in body
        if not isinstance(node, DEFINITIONS + (ast.Import, ast.ImportFrom))))
    size = 0
    while size < len(reached):
        size = len(reached)
        reached.update(*(_names(node) for node in defs if node.name in reached))
    return [sorted((node.lineno, node.name) for node in body
                   if isinstance(node, DEFINITIONS) and node.name not in reached)
            for body in bodies]


def _is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def attribute_loads(sources):
    """Every attribute name that ``sources`` read (load, not store)."""
    return {node.attr for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source: str, sources):
    """(line, "Class.field") of every annotated field of a module-level
    dataclass of ``source`` whose name no attribute load in ``sources`` reads."""
    read = attribute_loads(sources)
    return sorted((stmt.lineno, f"{node.name}.{stmt.target.id}")
                  for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def _is_property(node) -> bool:
    return any(getattr(deco, "id", None) == "property" for deco in node.decorator_list)


def unread_properties(source: str, sources):
    """(line, "Class.name") of every ``@property`` of a module-level class of
    ``source`` whose name no attribute load in ``sources`` reads."""
    read = attribute_loads(sources)
    return sorted((stmt.lineno, f"{node.name}.{stmt.name}")
                  for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
                  for stmt in node.body
                  if isinstance(stmt, ast.FunctionDef) and _is_property(stmt)
                  and stmt.name not in read)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def imports(tree):
    """(modules, names) of a parsed module: the names it binds to modules
    (``import mod``, ``from . import mod``) and (line, module, name) of
    every other name it imports (``from .mod import name``)."""
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import mod
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                names += [(node.lineno, node.module, alias.name) for alias in node.names]
    return modules, names


def private_references(source: str):
    """(line, "mod._name") of every private name of another module that
    ``source`` reads: an attribute ``mod._name`` of an imported module
    ``mod``, or a ``from .mod import _name``."""
    tree = ast.parse(source)
    modules, names = imports(tree)
    found = [(line, f"{module}.{name}") for line, module, name in names if _private(name)]
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules
              and _private(node.attr)]
    return sorted(found)


def test_checker_flags_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit\nexit(argv)\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_definition():
    source = ("import os\nTABLE = {'run': run}\n\ndef run():\n    return _step()\n\n"
              "def _step():\n    return os.sep\n\ndef dead():\n    return _only_dead()\n\n"
              "def _only_dead():\n    return run()\n\nclass Api:\n    pass\n\n"
              "if __name__ == '__main__':\n    Tool().go()\n")
    # an import is no root: a test importing ``dead`` does not make it used
    other = ("from pkg.mod import dead\n\n"
             "class Tool:\n    def go(self):\n        return 1\n\nclass Gone:\n    pass\n")
    assert unreachable_definitions([source, other], {"Api"}) == [
        [(10, "dead"), (13, "_only_dead")], [(7, "Gone")]]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_definitions(path):
    # reached from the package's own roots, not referenced by a test
    unreached = unreachable_definitions([p.read_text() for p in SRC], ENTRY_POINTS)
    assert unreached[SRC.index(path)] == []


def test_entry_points_are_tested_definitions():
    defined = {node.name for p in SRC for node in ast.parse(p.read_text()).body
               if isinstance(node, DEFINITIONS)}
    tested = set().union(*(_names(ast.parse(p.read_text())) for p in TESTS))
    assert sorted(ENTRY_POINTS - defined) == [] and sorted(ENTRY_POINTS - tested) == []


def test_checker_flags_unread_field():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n\n@dataclass\n"
              "class Rec:\n    kept: int\n    dropped: int\n    written: int = 0\n\n"
              "@dataclasses.dataclass(frozen=True)\nclass Frozen:\n    lost: float\n\n"
              "class Plain:\n    ignored: int\n")
    caller = "rec = Rec(1, 2)\nrec.written = rec.kept\n"
    assert unread_fields(source, [source, caller]) == [
        (7, "Rec.dropped"), (8, "Rec.written"), (12, "Frozen.lost")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unread_fields(path):
    sources = [p.read_text() for p in SRC + TESTS + PERFBENCH]
    assert unread_fields(path.read_text(), sources) == []


def test_checker_flags_unread_property():
    source = ("class Seg:\n    @property\n    def length(self):\n        return 1.0\n\n"
              "    @property\n    def mid(self):\n        return 0.5\n\n"
              "    def ends(self):\n        return 0, 1\n\n"
              "    @staticmethod\n    def unit():\n        return Seg()\n")
    caller = "seg = Seg.unit()\nseg.mid = 2\nprint(seg.length, seg.ends())\n"
    assert unread_properties(source, [source, caller]) == [(7, "Seg.mid")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unread_properties(path):
    sources = [p.read_text() for p in SRC]
    assert unread_properties(path.read_text(), sources) == []


def test_checker_flags_private_reference():
    source = ("from . import fitting\nimport numpy as np\nfrom .reports import _write, fmt\n"
              "fitting._stack(np.zeros(1))\nself._cache = fitting.__name__\n"
              "def f(obj):\n    return obj._x, fitting.fit_affine_l2\n")
    assert private_references(source) == [(3, "reports._write"), (4, "fitting._stack")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_private_references(path):
    assert private_references(path.read_text()) == []


STACK_FITS = {"fit_affine_l2_stack", "fit_affine_l2_constrained_stack"}


def stack_fit_reads(source: str):
    """The stacked L2 fits of ``fitting`` that ``source`` reads, as an
    attribute or an imported name."""
    _, names = imports(ast.parse(source))
    return sorted(STACK_FITS & (attribute_loads([source]) | {name for _, _, name in names}))


def test_checker_flags_stack_fit_reads():
    source = ("from . import fitting\nfrom .fitting import fit_affine_l2_constrained_stack as c\n"
              "fitting.fit_affine_l2_stack = None\n"
              "def f(x):\n    return fitting.fit_rows(x, x, x, 2), fitting.fit_affine_l2_stack(x)\n")
    assert stack_fit_reads(source) == ["fit_affine_l2_constrained_stack", "fit_affine_l2_stack"]
    assert stack_fit_reads("from . import fitting\nfitting.fit_affine_l2_stack = None\n") == []


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "fitting.py"], ids=lambda p: p.name)
def test_stacked_fits_go_through_fit_rows(path):
    # only fitting.fit_rows reads the stacked L2 fits, so p is chosen in one place
    assert stack_fit_reads(path.read_text()) == []


READERS = {"get", "section", "number", "numbers", "string"}


def config_keys(source: str):
    """Every string key ``source`` reads through a Config reader: a literal
    first argument, or, for a name, the first entry of each row of the
    literal table a comprehension binds that name from."""
    tree = ast.parse(source)
    tables = {node.target.elts[0].id: [row.elts[0].value for row in node.iter.elts]
              for node in ast.walk(tree)
              if isinstance(node, ast.comprehension) and isinstance(node.target, ast.Tuple)
              and isinstance(node.iter, ast.Tuple)}
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in READERS and node.args):
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                keys.add(arg.value)
            elif isinstance(arg, ast.Name):
                keys.update(tables.get(arg.id, ()))
    return keys


def documented_keys(text: str):
    """Each dotted part of a key in the first column of the "Config keys" table."""
    section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    return {part for line in section.splitlines() if line.startswith("| `")
            for part in line.split("`")[1].split(".")}


def test_checker_finds_config_keys():
    source = ('def load(cfg):\n    b = cfg.section("box", {})\n'
              '    return [b.number(k, d) for k, d in (("lo", 0), ("hi", 1))], cfg.get("seed")\n')
    assert config_keys(source) == {"box", "lo", "hi", "seed"}
    table = "## Config keys\n\n| key |\n|---|\n| `seed` |\n| `box.lo` |\n\n## Next\n| `x` |\n"
    assert documented_keys(table) == {"seed", "box", "lo"}


def test_every_config_key_is_documented():
    keys = config_keys((ROOT / "src" / "multibeta" / "cli.py").read_text())
    documented = documented_keys((ROOT / "docs" / "formats.md").read_text())
    assert "tau" in keys and "sides" in keys and "mc_samples" in keys
    assert sorted(keys - documented) == []


def documented_columns(text: str, name: str):
    """The first column of the table under the ``## name`` heading, below its
    header and rule rows."""
    section = text.split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("|")][2:]


def test_checker_finds_documented_columns():
    text = ("# Formats\n\n## a.csv\n\nrow.\n\n| column | meaning |\n|---|---|\n| x | one |\n| y_L | two |\n"
            "\n## b.csv\n\n| column |\n|---|\n| z |\n")
    assert documented_columns(text, "a.csv") == ["x", "y_L"]


def test_parabolic_coefficient_columns_are_documented():
    from multibeta.beta import QuadratureSpec
    from multibeta.funcmodel import make_field
    from multibeta.geometry import Box, ParabolicBox
    from multibeta.parabolic import coefficient_table

    psi = make_field("p_product", 2)
    table = coefficient_table(psi, ParabolicBox(Box((0.0,), (1.0,)), 0.0, 1.0),
                              QuadratureSpec(nodes=3))
    text = (ROOT / "docs" / "formats.md").read_text()
    assert documented_columns(text, "parabolic_coefficients.csv") == list(table)
