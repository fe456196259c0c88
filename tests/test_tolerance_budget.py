"""The tolerance budget: every tolerance in cqekit is a module-level constant, a root or
derived at its definition, and README's tolerance table lists each one."""

import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cqekit"
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SMALL = 1e-6  # a positive float at most this is read as a tolerance


def module_constants(tree: ast.Module):
    """(name, value node) of each module-level assignment to UPPER_CASE names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
                isinstance(t, ast.Name) and t.id.isupper() for t in node.targets):
            yield from ((t.id, node.value) for t in node.targets)


def bare_tolerances(source: str) -> list[str]:
    """The float literals in (0, SMALL] of `source` outside a module-level constant's value."""
    tree = ast.parse(source)
    allowed = {id(n) for _, value in module_constants(tree) for n in ast.walk(value)}
    return [f"{node.value!r} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < node.value <= SMALL and id(node) not in allowed]


def test_the_check_flags_a_bare_tolerance():
    source = ("TOL = 1e-9\nSCALE = 2 * 1e-12\n"
              "def f(x, y=1e-12):\n    return x > 1e-15 and x < 0.5 and x > -1e-7\n")
    assert bare_tolerances(source) == ["1e-12 (line 3)", "1e-15 (line 4)", "1e-07 (line 4)"]


def test_no_bare_tolerance_in_the_package():
    bare = {p.name: bare_tolerances(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {name: found for name, found in bare.items() if found}


def aliases(source: str) -> list[str]:
    """The module-level constants of `source` whose value is the bare name of another
    constant: a second name for one fact."""
    return [f"{name} = {value.id}" for name, value in module_constants(ast.parse(source))
            if isinstance(value, ast.Name) and value.id.isupper()]


def test_the_check_flags_an_alias():
    source = "ROOT = 1e-9\nALIAS = ROOT\nDERIVED = 2 * ROOT\nFN = len\n"
    assert aliases(source) == ["ALIAS = ROOT"]


def test_no_alias_in_the_package():
    found = {p.name: aliases(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}


def budget() -> dict[str, float]:
    """Each module-level constant of the package whose value is a float in (0, SMALL]."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("cqekit" if path.stem == "__init__" else
                                         f"cqekit.{path.stem}")
        for name, _ in module_constants(ast.parse(path.read_text())):
            value = getattr(module, name)
            if isinstance(value, float) and 0.0 < value <= SMALL:
                out[name] = value
    return out


def test_budget_is_the_readme_table():
    documented = re.findall(r"^\| `(\w+)` \| [^|`]+ \|", README, re.M)
    names = budget()
    assert len(names) == 10
    assert sorted(documented) == sorted(names)


def test_round_numbers_meet_their_derivations():
    from cqekit.channels import MAX_DIM
    from cqekit.entropics import ENTROPIC_TOL, STATE_NORM_TOL
    from cqekit.errors import ARITH_TOL
    from cqekit.qlinalg import EIG_CLAMP, WEIGHT_FLOOR
    from cqekit.regions import RATE_TOL, ROW_REL_TOL

    eps = np.finfo(float).eps
    assert ENTROPIC_TOL > RATE_TOL + ARITH_TOL
    assert ENTROPIC_TOL > ROW_REL_TOL * 1e5  # corner_points' row slack while max |b| < 1e5
    assert EIG_CLAMP > ARITH_TOL > MAX_DIM * (MAX_DIM + 1) * eps * (1.0 + STATE_NORM_TOL)
    assert WEIGHT_FLOOR * math.log2(1.0 / WEIGHT_FLOOR) < ARITH_TOL / 20
