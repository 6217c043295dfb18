"""Static checks on the library source: checks that still run under
``python -O``, verify sizes clamped in one place, the rewrite and series
walks written once, one element format for every algebra, one table of
size limits, one operad evaluation walk, a library caller for every public
function of every module, a caller outside their module for the
morphisms through which the characters are applied, and one route from
the generic solution into the characters."""

import ast
import pathlib
import re

import pytest

import parkhopf
from parkhopf.combinat import _WORD_FAMILIES, LIMITS

SOURCES = sorted(pathlib.Path(parkhopf.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_library():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"bare assert statements: {found}"


def _clamps_of_max_n(tree):
    """The min(...) calls with an argument that mentions max_n."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "min"
            and any(isinstance(sub, ast.Name) and sub.id == "max_n"
                    or isinstance(sub, ast.Attribute) and sub.attr == "max_n"
                    for arg in node.args for sub in ast.walk(arg))]


def test_verify_sizes_clamped_once():
    # every verify check runs at min(--max-n, its top in the check table)
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), str(path))
    verify = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_cmd_verify")
    assert len(_clamps_of_max_n(tree)) == len(_clamps_of_max_n(verify)) == 1


def _tree_of(name):
    path = next(p for p in SOURCES if p.name == name)
    return ast.parse(path.read_text(), str(path))


def test_rewrite_and_series_walks_written_once():
    # the rule-site test lives in the one rewrite walk, and the lagrange
    # solvers share one degreewise loop
    rule_calls = [node for node in ast.walk(_tree_of("operad.py"))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "_rule_applies"]
    assert len(rule_calls) == 1
    order_loops = [node for node in ast.walk(_tree_of("lagrange.py"))
                   if isinstance(node, (ast.For, ast.comprehension))
                   and ast.unparse(node.iter) == "range(order + 1)"]
    assert len(order_loops) == 1


def test_one_element_format():
    # every algebra's elements are LinComb values on plain tuple keys, so
    # the library defines no class besides the polynomial, the linear
    # combination and two error types
    allowed = {"Poly", "LinComb", "NotDivisibleError", "NotInSubalgebraError"}
    found = {f"{path.name}:{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef) and node.name not in allowed}
    assert SOURCES and not found, f"classes besides {sorted(allowed)}: {found}"


def _size_check_names():
    """The name given to each ``_check_size`` call in the library, as a
    regular expression: the fields of an f-string match any word.  A name
    held in a variable is skipped."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and "_check_size" in
                    (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant):
                yield re.escape(name.value)
            elif isinstance(name, ast.JoinedStr):
                yield "".join(re.escape(part.value)
                              if isinstance(part, ast.Constant) else r"\w+"
                              for part in name.values)


def test_one_table_of_size_limits():
    # the one raise of a size error, at either end, is the guard's, in
    # combinat; argparse's checks of command-line integers are usage errors
    # of the parser, not library size errors
    raises = {f"{path.name}:{node.lineno}"
              for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Raise) and node.exc is not None
              and "ArgumentTypeError" not in ast.unparse(node.exc)
              and any(words in ast.unparse(node.exc)
                      for words in ("supports", "needs n >=", "at least"))}
    guard = next(node for node in _tree_of("combinat.py").body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_check_size")
    assert raises == {f"combinat.py:{node.lineno}"
                      for node in ast.walk(guard)
                      if isinstance(node, ast.Raise)}
    # every name the guard is called with, directly or through the row a
    # word family names, is a row, and every row is used
    names = [*_size_check_names(),
             *(re.escape(limit) for _, _, _, limit, _ in
               _WORD_FAMILIES.values())]
    assert all(any(re.fullmatch(name, key) for key in LIMITS)
               for name in names), names
    assert all(any(re.fullmatch(name, key) for name in names)
               for key in LIMITS)


def test_operad_evaluates_in_one_walk():
    # every application of an operation table, ops[op](...), is in the one
    # evaluation walk
    tree = _tree_of("operad.py")
    walk = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_evaluations")
    applications = {id(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Subscript)}
    assert applications and applications == {
        id(node) for node in ast.walk(walk)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Subscript)}


def _uses_by_definition():
    """(module, top-level definition, name) for every name or attribute the
    library reads, top-level statements counting as the definition None."""
    for path in SOURCES:
        for top in ast.parse(path.read_text(), str(path)).body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    yield path.name, where, node.id
                elif isinstance(node, ast.Attribute):
                    yield path.name, where, node.attr


@pytest.mark.parametrize("module", [path.name for path in SOURCES])
def test_every_public_function_has_a_caller(module):
    # a call from inside the function itself does not count, and neither
    # does one from the tests
    public = [node.name for node in _tree_of(module).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    uses = list(_uses_by_definition())
    uncalled = [name for name in public
                if not any(used == name and (where_module, where)
                           != (module, name)
                           for where_module, where, used in uses)]
    assert not uncalled, f"no caller in the library: {uncalled}"


def test_character_morphisms_have_a_caller_outside_their_module():
    # psi and chi are evaluate after these morphisms
    uses = list(_uses_by_definition())
    for module, name in [("hopf.py", "morphism_psi"),
                         ("hopf.py", "istar_on_sqsym"),
                         ("symfun.py", "R_to_S")]:
        assert any(used == name and where_module != module
                   for where_module, _, used in uses), name


def test_characters_read_g_through_its_partitions():
    # the composition route solve_g is not named in chars at all, so every
    # character reads g_n through its commutative image
    path = next(p for p in SOURCES if p.name == "chars.py")
    assert "solve_g" not in path.read_text()
    assert any(module == "chars.py" and used == "g_partitions"
               for module, _, used in _uses_by_definition())
