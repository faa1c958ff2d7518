"""Every name a library module imports is used in that module,
instance validation stays in ``core``, the heuristic path takes only
the settings its callers set, the model's variants and row families
are each defined once, the LP reader builds every row in ``_parse_row``
and decides a row's family only in ``_family_of``, branch-and-bound
takes its root bound from ``bounds_report``, every public closed-form
bound is evaluated in ``bounds_report``, every exception is raised
where it arises, the generator draws every integer through its one draw
kernel, and no module changes interpreter state that every caller in the
process shares.  No test patches ``bpps`` through a dotted-path string.

The package's ``__init__`` is left out: it imports only to re-export.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import bpps
from bpps.bounds import format_decimal
from bpps.bpp import fit_heuristic, heuristic_beta, heuristic_packing
from bpps.cha import cha, k_upper
from bpps.exact import brute_force

PACKAGE = Path(bpps.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: ``Instance`` runs these while it is built; no other module needs them.
VALIDATORS = {"require_valid", "validate_instance"}


def validator_uses(source: str) -> list[str]:
    """Imports of a validator by name, and attribute reads of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in VALIDATORS]
        elif isinstance(node, ast.Attribute) and node.attr in VALIDATORS:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_the_check_sees_a_validator_outside_core():
    source = (
        "from .core import Instance, require_valid\n"
        "from bpps.core import validate_instance as check\n"
        "from . import core\n"
        "core.require_valid(inst)\n"
    )
    assert validator_uses(source) == [
        "line 1: require_valid",
        "line 2: validate_instance",
        "line 4: .require_valid",
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "core"], ids=lambda p: p.stem
)
def test_only_core_validates_instances(path):
    assert validator_uses(path.read_text(encoding="utf-8")) == []


#: Each function's parameters.  Every value a caller sets stays; one no
#: caller sets is a constant: ``bpp.PERM_COUNT`` orders, class ``c``
#: seeded ``c``, ``exact.BRUTE_FORCE_MAX_ITEMS`` items and two places.
SIGNATURES = {
    cha: ["inst", "bpp_mode", "node_limit"],
    k_upper: ["inst", "bpp_mode", "node_limit"],
    heuristic_beta: ["bi", "seed"],
    heuristic_packing: ["bi", "seed"],
    fit_heuristic: ["bi", "rule", "order"],
    brute_force: ["inst"],
    format_decimal: ["value"],
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda f: f.__name__)
def test_the_heuristic_path_takes_only_the_settings_callers_set(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]


#: The row-name prefixes of the five row families.
ROW_NAME_PREFIXES = ("assign_", "cap_", "link_", "mci_", "mbi")


def prefix_uses(source: str, prefix: str) -> list[int]:
    """Lines of the string literals and f-strings that start with ``prefix``."""
    tree = ast.parse(source)
    # An f-string's literal parts are walked as constants of their own.
    parts = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and node.values:
            node = node.values[0]
        elif id(node) in parts:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith(prefix):
                found.append(node.lineno)
    return found


def test_the_check_sees_each_use_of_a_prefix():
    source = 'a = "cap_"\nb = f"cap_{b}"\nc = f"{a}cap_"\nd = "a cap_b"\n'
    assert prefix_uses(source, "cap_") == [1, 2]


@pytest.mark.parametrize("prefix", ROW_NAME_PREFIXES)
def test_each_row_name_prefix_is_written_once(prefix):
    source = (PACKAGE / "milp.py").read_text(encoding="utf-8")
    assert len(prefix_uses(source, prefix)) == 1


def readers(source: str, name: str) -> list[str]:
    """Where ``name`` is read: the top-level function or class of each read,
    or ``<module>``."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        found += [
            where
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        ]
    return found


def test_the_check_sees_each_read_of_a_name():
    source = (
        "LEAD = {}\n"
        "def _family_of(name):\n    return LEAD[name[:2]]\n"
        "def _read_lp(name):\n    LEAD = {}\n    return LEAD.get(name)\n"
        "alias = LEAD\n"
    )
    assert readers(source, "LEAD") == ["_family_of", "_read_lp", "<module>"]


def test_a_row_name_family_is_decided_only_in_family_of():
    source = (PACKAGE / "milp.py").read_text(encoding="utf-8")
    assert readers(source, "_FAMILY_OF_LEAD") == ["_family_of"]


def builds_row(call: ast.Call) -> bool:
    """``Row(...)``, or a call such as ``_new_tuple(Row, ...)`` whose first argument is ``Row``."""
    named = [call.func, *call.args[:1]]
    return any(isinstance(node, ast.Name) and node.id == "Row" for node in named)


def row_builds(source: str, function: str) -> list[str]:
    """Lines of the calls in the top-level ``function`` that build a ``Row``."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            return [
                f"line {node.lineno}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and builds_row(node)
            ]
    raise AssertionError(f"no function {function!r}")


def test_the_check_sees_a_row_built():
    source = (
        "def _read_lp(chunk):\n"
        "    a = _new_tuple(Row, (chunk, (), '=', 0))\n"
        "    b = Row(chunk, (), '=', 0)\n"
        "    return _parse_row(chunk, pool, counts)\n"
        "def _parse_row(chunk):\n    return _new_tuple(Row, chunk)\n"
    )
    assert row_builds(source, "_read_lp") == ["line 2", "line 3"]


def test_only_parse_row_builds_the_rows_read():
    source = (PACKAGE / "milp.py").read_text(encoding="utf-8")
    assert row_builds(source, "_read_lp") == []
    assert row_builds(source, "_parse_row") != []


def imported_names(source: str) -> list[str]:
    """Each name an import statement brings in, by its original name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names]
    return found


#: What a closed-form root bound is computed from; ``bounds_report`` owns it.
ROOT_BOUND_HELPERS = {"ceil_div", "gamma"}


def test_the_check_sees_a_root_bound_helper_imported():
    source = "from .bounds import bounds_report, ceil_div as up\nimport gamma\n"
    assert ROOT_BOUND_HELPERS.intersection(imported_names(source)) == {"ceil_div", "gamma"}


def test_branch_and_bound_takes_its_root_bound_from_the_bounds_report():
    source = (PACKAGE / "exact.py").read_text(encoding="utf-8")
    assert ROOT_BOUND_HELPERS.isdisjoint(imported_names(source))


#: Each public closed-form bound and the ``BoundsReport`` field it returns.
PUBLIC_BOUNDS = {
    "zeta_lp_n": "zeta_n",
    "zeta_lp_dag": "zeta_dag",
    "zeta_lp_ddag": "zeta_ddag",
    "k_lower": "k_lower",
}


def bodies(source: str) -> dict[str, str]:
    """Each top-level function's body without its docstring, as source text."""
    found = {}
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            body = top.body
            if ast.get_docstring(top) is not None:
                body = body[1:]
            found[top.name] = "\n".join(ast.unparse(stmt) for stmt in body)
    return found


def called_names(source: str, function: str) -> set[str]:
    """The plain names the top-level ``function`` calls."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            return {
                node.func.id
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
    raise AssertionError(f"no function {function!r}")


def test_the_check_sees_a_bound_evaluated_twice():
    source = (
        "def zeta_lp_n(inst):\n"
        "    \"\"\"Spread.\"\"\"\n"
        "    return Fraction(inst.bin_cost, inst.capacity) * inst.total_weight\n"
        "def k_lower(inst):\n    return bounds_report(inst).k_lower\n"
        "def bounds_report(inst):\n    return BoundsReport(zeta_n=zeta_lp_n(inst))\n"
    )
    assert bodies(source) == {
        "zeta_lp_n": "return Fraction(inst.bin_cost, inst.capacity) * inst.total_weight",
        "k_lower": "return bounds_report(inst).k_lower",
        "bounds_report": "return BoundsReport(zeta_n=zeta_lp_n(inst))",
    }
    assert called_names(source, "bounds_report") == {"BoundsReport", "zeta_lp_n"}


def test_every_closed_form_is_evaluated_in_the_bounds_report():
    source = (PACKAGE / "bounds.py").read_text(encoding="utf-8")
    found = bodies(source)
    assert {name: found[name] for name in PUBLIC_BOUNDS} == {
        name: f"return bounds_report(inst).{field}" for name, field in PUBLIC_BOUNDS.items()
    }
    assert set(PUBLIC_BOUNDS).isdisjoint(called_names(source, "bounds_report"))


def variant_tuple_tests(source: str) -> list[str]:
    """``in`` and ``not in`` tests against a literal collection of ``VARIANT_`` names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                    right, (ast.Tuple, ast.List, ast.Set)
                ):
                    names = [e.id for e in right.elts if isinstance(e, ast.Name)]
                    if any(name.startswith("VARIANT_") for name in names):
                        found.append(f"line {node.lineno}")
    return found


def test_the_check_sees_a_variant_tuple():
    source = (
        "if v in (VARIANT_DAG, VARIANT_DDAG):\n    pass\n"
        "ok = v not in {VARIANT_N}\n"
        "fine = v in VARIANT_FAMILIES and f in (FAMILY_MCI,)\n"
    )
    assert variant_tuple_tests(source) == ["line 1", "line 3"]


@pytest.mark.parametrize("name", ["bounds", "milp"])
def test_families_are_read_from_the_variant_table(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert variant_tuple_tests(source) == []


def held_raises(source: str) -> list[str]:
    """``raise`` statements whose exception is a name: one held in a variable."""
    return [
        f"line {node.lineno}: raise {node.exc.id}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
    ]


def test_the_check_sees_a_held_exception():
    source = (
        "try:\n    f()\nexcept E as stop:\n    raise\n"
        "raise stop\n"
        "raise E('x') from stop\n"
        "raise E\n"
    )
    assert held_raises(source) == ["line 5: raise stop", "line 7: raise E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_exceptions_are_raised_where_they_arise(path):
    assert held_raises(path.read_text(encoding="utf-8")) == []


#: ``gen._draws`` draws as these do; a call to one would bypass it.
STDLIB_DRAWS = {"randint", "randrange"}


def stdlib_draws(source: str) -> list[str]:
    """Calls of ``randint`` or ``randrange``, as a method or by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in STDLIB_DRAWS:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_the_check_sees_a_stdlib_draw():
    source = (
        '"""Draws as rng.randint(lo, hi) draws."""\n'
        "a = rng.randint(1, 5)\n"
        "b = randrange(3)\n"
        "c = rng.getrandbits(3)\n"
    )
    assert stdlib_draws(source) == ["line 2: randint", "line 3: randrange"]


def test_the_generator_draws_only_through_its_kernel():
    assert stdlib_draws((PACKAGE / "gen.py").read_text(encoding="utf-8")) == []


#: Calls that change the interpreter for the whole process: the garbage
#: collector's switches, and string interning, whose table lives as long
#: as the strings it holds.
PROCESS_WIDE_CALLS = {"gc": {"disable", "enable", "freeze"}, "sys": {"intern"}}
#: ``functools`` caches; one bound at module level lives for the process.
CACHES = {"cache", "lru_cache"}


def is_cache(node: ast.expr) -> bool:
    """``cache``, ``functools.lru_cache``, or a call of one: ``lru_cache(maxsize=8)``."""
    if isinstance(node, ast.Call):
        return is_cache(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr in CACHES and getattr(node.value, "id", None) == "functools"
    return isinstance(node, ast.Name) and node.id in CACHES


def process_wide_state(source: str) -> list[str]:
    """Calls and imports of ``gc.disable``, ``gc.enable``, ``gc.freeze`` and
    ``sys.intern``, and ``functools`` caches bound at module level, as a
    decorator of a module-level function or in a module-level assignment."""
    tree = ast.parse(source)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            module = getattr(node.func.value, "id", None)
            if node.func.attr in PROCESS_WIDE_CALLS.get(module, ()):
                found.append((node.lineno, f"{module}.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom):
            names = PROCESS_WIDE_CALLS.get(node.module, ())
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if a.name in names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(d.lineno, "cache") for d in node.decorator_list if is_cache(d)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and is_cache(node.value):
            found.append((node.lineno, "cache"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_process_wide_state():
    source = (
        "import functools, gc, sys\n"
        "from gc import freeze\n"
        "gc.disable()\n"
        "name = sys.intern(text)\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    @functools.cache\n"
        "    def g(y):\n"
        "        return y\n"
        "    gc.enable()\n"
        "    return g(x)\n"
        "@cache\n"
        "def h(x):\n"
        "    return x\n"
        "memo = lru_cache(maxsize=4)(h)\n"
        "gc.collect()\n"
        "f = functools.partial(h)\n"
    )
    assert process_wide_state(source) == [
        "line 2: gc.freeze",
        "line 3: gc.disable",
        "line 4: sys.intern",
        "line 5: cache",
        "line 10: gc.enable",
        "line 12: cache",
        "line 15: cache",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_changes_process_wide_state(path):
    assert process_wide_state(path.read_text(encoding="utf-8")) == []


#: What a test patches with: ``monkeypatch.setattr`` and ``delattr``,
#: ``mock.patch``.  Given a dotted-path string, each imports the path's
#: module when it runs, and ``perfbench``'s ``import_bpps`` replaces every
#: ``bpps`` module with a fresh one, so after it such a patch misses the
#: module objects the test imported.
PATCHERS = {"setattr", "delattr", "patch"}
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def dotted_bpps_patches(source: str) -> list[str]:
    """Patch calls whose first argument is a ``bpps`` dotted-path string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        target = node.args[0]
        if (
            name in PATCHERS
            and isinstance(target, ast.Constant)
            and isinstance(target.value, str)
            and target.value.split(".")[0] == "bpps"
        ):
            found.append((node.lineno, target.value))
    return [f"line {line}: {path}" for line, path in sorted(found)]


def test_the_check_sees_a_dotted_path_patch():
    source = (
        "from unittest import mock\n"
        "from bpps import milp\n"
        "monkeypatch.setattr('bpps.milp.MAX_MODEL_VARIABLES', 3)\n"
        "monkeypatch.setattr(milp, 'MAX_MODEL_VARIABLES', 3)\n"
        "with mock.patch('bpps.gen.worst_case', counted):\n"
        "    pass\n"
        "monkeypatch.delattr('bpps.cli.main')\n"
        "monkeypatch.setattr('os.sep', '/')\n"
        "patch('bpps_other.x', 1)\n"
    )
    assert dotted_bpps_patches(source) == [
        "line 3: bpps.milp.MAX_MODEL_VARIABLES",
        "line 5: bpps.gen.worst_case",
        "line 7: bpps.cli.main",
    ]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_no_test_patches_bpps_through_a_dotted_path(path):
    assert dotted_bpps_patches(path.read_text(encoding="utf-8")) == []
