"""A census of the public functions, classes and class members of `src/cqekit` that no
code reads.

A function or class counts as read when a `src/cqekit` module or a benchmark script (other
than the tracer and the smoke test) loads it, as a name or as an attribute.  A public method,
property or class-level field counts as read only through an attribute load (`x.name`) in
those files: a name-based count would take a parameter of the same name for a reader.  The
names and members that nothing reads are listed below with the reason each is kept, so a new
unread one fails here, and one that gains a caller, or that the tracer stops binding, has to
leave its list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "cqekit").glob("*.py") if p.name != "__init__.py")
BENCH = sorted(p for p in (ROOT / "benchmarks").glob("*.py")
               if p.name not in ("tracer.py", "test_smoke.py"))

# Read only by the benchmark tracer, which binds each by name: ROADMAP item 1 deletes them
# once the tracer stops binding them.
TRACER_KEPT = {
    "trace_norm": "qlinalg; no src path calls it, qlinalg.trace_norms is the live one",
    "coherent_A_given_BX": "entropics; a one-line reader of EntropyProfile.i_coh",
    "cond_entropy_A_given_X": "entropics; a one-line reader of EntropyProfile.h_a_given_x",
    "cond_mutual_A_B_given_X": "entropics; a one-line reader of EntropyProfile.i_ab_given_x",
    "cond_mutual_A_E_given_X": "entropics; a one-line reader of EntropyProfile.i_ae_given_x",
    "holevo_X_B": "entropics; a one-line reader of EntropyProfile.i_xb",
    "mutual_AX_B": "entropics; a one-line reader of EntropyProfile.i_axb",
    "cef_vs_timeshare": "closedform; compare_row is the live comparison",
    "erasure_cef_vs_timeshare": "closedform; compare_row is the live comparison",
    "PureStateVector": "qlinalg; the tracer wraps its marginal_mat method",
}
# The paper's closed forms: the reproduction itself, checked by the tests.
CLOSED_FORMS = {
    "ds_surface": "the dephasing channel's entanglement-distribution sheet",
    "shor_surface": "the dephasing channel's super-dense-coding sheet",
    "surface_intersection_e": "E at which the two dephasing sheets meet on the CEF curve",
    "erasure_region": "the erasure channel's capacity-region halfspaces as (A, b)",
    "erasure_table": "the erasure channel's four named optimal rate triples",
    "eac_erasure_mutual_info": "the erasure channel's 2 (1 - eps) H2(p) of a spectral input",
}
OTHERS = {
    "ssa_check": "bounds; acceptance criterion 7 calls it",
    "tensor_power": "channels; ROADMAP item 4's two-use probe",
}
UNREAD = {**TRACER_KEPT, **CLOSED_FORMS, **OTHERS}
UNREAD_MEMBERS = {
    "PureStateVector.marginal_mat": "kept only for the tracer, which wraps it (ROADMAP item 1)",
}


def public_definitions() -> set[str]:
    """The top-level functions and classes of the cqekit modules whose names are public."""
    return {node.name for path in SRC for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def public_members(sources) -> set[str]:
    """"Class.member" for each public method, property and class-level field of the
    top-level classes of `sources`."""
    out = set()
    for source in sources:
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                out |= {f"{cls.name}.{name}" for name in names if not name.startswith("_")}
    return out


def unread_members(sources, readers) -> set[str]:
    """The public members of `sources` whose name no source of `readers` loads as `x.name`."""
    loads = {node.attr for source in readers for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {m for m in public_members(sources) if m.split(".")[1] not in loads}


def loaded_names(paths) -> set[str]:
    """Every name and attribute that the sources of `paths` load."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def traced_names() -> set[str]:
    """The function names of the tracer's TRACED table, and every name the tracer loads."""
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    names = {name for names in ast.literal_eval(table).values() for name in names}
    return names | loaded_names([ROOT / "benchmarks" / "tracer.py"])


def test_unread_names_are_exactly_the_kept_ones():
    assert len(UNREAD) == 18
    assert sorted(public_definitions() - loaded_names(SRC + BENCH)) == sorted(UNREAD)


def test_tracer_still_binds_every_tracer_kept_name():
    assert set(TRACER_KEPT) | {"marginal_mat"} <= traced_names()


def test_unread_members_are_exactly_the_kept_ones():
    sources = [path.read_text() for path in SRC]
    readers = sources + [path.read_text() for path in BENCH]
    assert sorted(unread_members(sources, readers)) == sorted(UNREAD_MEMBERS)


def test_the_member_census_counts_only_attribute_loads():
    # a parameter or a keyword of a member's name reads nothing; `k.size` reads K.size
    source = ("class K:\n    dim_A = property(len)\n    size: int\n    lhs: float\n"
              "    def scaled(self):\n        return K(lhs=self.size)\n\n"
              "def f(dim_A, k):\n    return dim_A + k.size\n")
    assert unread_members([source], [source]) == {"K.dim_A", "K.lhs", "K.scaled"}


def imported_private_names(source: str) -> set[str]:
    """The underscore names that `source` takes from another cqekit module: each name of a
    relative `from` import, and each attribute that it loads from a cqekit module it imports."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cqekit")):
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name.startswith("_")}
            if node.module in (None, "cqekit"):  # `from . import bounds`: a module each
                modules |= {alias.asname or alias.name for alias in node.names}
    return names | {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")}


def test_no_module_imports_a_private_name_from_another():
    # a private name is its module's own: cli, say, reaches a state's profile only through
    # entropy_profiles, which checks the stack, and never through the unchecked _profiles
    assert {path.name: imported_private_names(path.read_text()) for path in SRC} == {
        path.name: set() for path in SRC}


def test_the_private_import_census_sees_both_forms():
    source = ("from __future__ import annotations\nfrom . import bounds, closedform as cf\n"
              "from .entropics import _profiles, entropy_profiles\nimport sys\n"
              "x = bounds._report(1, 2) + cf.g(0, 0) + cf._checked_mu(0) + sys._getframe(0)\n")
    assert imported_private_names(source) == {"_profiles", "bounds._report", "cf._checked_mu"}


EIGENSOLVERS = {"eigvalsh", "eigh", "svd"}


def eigensolver_uses(source: str) -> set[str]:
    """The numpy eigensolvers and SVD that `source` calls, as `np.linalg.eigh(..)` or as a bare
    `eigh(..)`, or imports by name, as `from numpy.linalg import svd as s`."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            uses.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
        elif isinstance(node, ast.ImportFrom):
            uses |= {alias.name for alias in node.names}
    return uses & EIGENSOLVERS


def test_only_qlinalg_calls_an_eigensolver():
    # every entropy, trace norm and square root is solved in qlinalg, behind its one matrix check
    modules = sorted((ROOT / "src" / "cqekit").glob("*.py"))
    assert {path.name: eigensolver_uses(path.read_text()) for path in modules} == {
        path.name: EIGENSOLVERS if path.name == "qlinalg.py" else set() for path in modules}


def test_the_eigensolver_census_flags_a_planted_call():
    source = ("import numpy as np\nfrom numpy.linalg import svd as s\nfrom numpy import linalg\n"
              "w = np.linalg.eigvalsh(m) + linalg.eigh(m)[0] + s(m) + np.linalg.norm(m)\n")
    assert eigensolver_uses(source) == EIGENSOLVERS
    assert eigensolver_uses("import numpy as np\nn = np.linalg.norm(m) + eig(m)\n") == set()


def shannon_callers(source: str) -> set[str]:
    """The top-level functions and classes of `source` that call shannon_entropies, as
    `shannon_entropies(..)` or `qlinalg.shannon_entropies(..)`, "<module>" for a call outside
    them, and "<import>" if `source` imports it by name, as an alias would be missed."""
    callers = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and "shannon_entropies" in {a.name for a in node.names}:
            callers.add("<import>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "shannon_entropies" in (
                    getattr(call.func, "attr", None), getattr(call.func, "id", None)):
                callers.add(getattr(node, "name", "<module>"))
    return callers


def test_only_grouped_entropies_calls_shannon_entropies():
    # one entropy path: every spectrum of every stack reaches shannon_entropies through it
    modules = sorted((ROOT / "src" / "cqekit").glob("*.py"))
    assert {path.name: shannon_callers(path.read_text()) for path in modules} == {
        path.name: {"grouped_entropies"} if path.name == "qlinalg.py" else set()
        for path in modules}


def test_the_entropy_census_flags_a_planted_call():
    source = ("from .qlinalg import shannon_entropies as h\nfrom . import qlinalg\n"
              "def f(m):\n    return qlinalg.shannon_entropies(m)\n"
              "class K:\n    def g(self, w):\n        return [shannon_entropies(w)]\n"
              "z = shannon_entropies([[1.0]])\n")
    assert shannon_callers(source) == {"<import>", "f", "K", "<module>"}
    assert shannon_callers("def f(w):\n    return shannon_entropy(w) + entropies(w)\n") == set()
