"""The public names of the `clocktree` package, its functions' parameters, its result types and its import graph, pinned.

A name or a parameter joins or leaves the package only on purpose: the
change that does it updates these lists and names it in CHANGES.md.
"""
import ast
import collections.abc
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import clocktree as ct
from clocktree import errors

PUBLIC_NAMES = [
    "AsymmetricVector", "Cayley", "ClockTreeError",
    "DegenerateQuartic", "DimensionMismatch", "EmptyChildren", "NormalizationUnderflow", "NotAProbability",
    "NotStochastic", "PhaseGrid", "PhasePoint",
    "PottsBoundaryLaws", "ProbeResult", "QuarticAnalysis", "QuarticCoeffs", "Regime",
    "RootStructure", "RowAsymmetric", "SolutionSet", "SpectrumAsymmetric",
    "SymmetricDist", "TransferSpec", "UnsupportedQ", "UnsupportedTree", "Verdict", "ZeroRowEntry",
    "a_norm", "apply_transfer", "basis_norms", "classify_point",
    "classify_quartic", "displacement", "eigenvalues_from_row", "jacobian_profile", "linearization_residual",
    "make_potts", "make_potts_from_theta", "make_standard_clock", "mode_map", "mode_map_q4", "mode_map_q5",
    "potts_boundary_laws", "potts_lambda", "potts_theta", "potts_thresholds", "q4_critical_line",
    "q4_solutions", "q5_jacobian", "q5_potts_diagonal_solutions", "q5_quartic_analysis", "q5_quartic_coeffs",
    "q5_solutions", "q5_solutions_at_critical", "q5_transition_line", "quartic_invariants", "raw_coefficients",
    "recursion_step", "row_from_eigenvalues", "rpt_probe", "spec_from_lambdas", "sweep",
    "validate_non_increasing", "weakened_row",
]


def _public_items():
    """(name, value) of the package's public names, read through getattr, so the ones loaded on first use count."""
    return [(name, getattr(ct, name)) for name in dir(ct) if not name.startswith("_")]


def test_public_names():
    names = sorted(name for name, value in _public_items() if not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


# a fresh interpreter: the modules `import clocktree.cli` loads, and the
# public names the package reads from other modules on first use
_STARTUP = """
import json, sys
import clocktree.cli
import clocktree as ct
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "clocktree")
deferred = sorted(set(dir(ct)) - set(vars(ct)))
reads, first_read = [], ct.__getattr__
def counted(name):
    reads.append(name)
    return first_read(name)
ct.__getattr__ = counted
first = {name: getattr(ct, name) for name in deferred}
second = {name: getattr(ct, name) for name in deferred}
print(json.dumps({
    "loaded": loaded,
    "deferred": deferred,
    "homes": sorted({value.__module__ for value in first.values()}),
    "same": [name for name, value in first.items()
             if value is getattr(sys.modules[value.__module__], name) and second[name] is value],
    "reads": reads,
    "dir": dir(ct),
}))
"""


def test_the_cli_loads_only_the_modules_its_commands_run():
    # every command pays for what `import clocktree.cli` compiles and runs
    env = {**os.environ, "PYTHONPATH": str(Path(ct.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _STARTUP], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == [
        "clocktree", "clocktree.cli", "clocktree.errors", "clocktree.exact", "clocktree.fixedpoint",
        "clocktree.phase", "clocktree.recursion", "clocktree.spectral",
    ]
    # each public name that is not loaded yet comes from its own module, and is read there once
    assert seen["homes"] == ["clocktree.basis", "clocktree.potts", "clocktree.quartic"]
    assert set(seen["deferred"]) <= set(PUBLIC_NAMES)
    assert seen["same"] == seen["deferred"]
    assert seen["reads"] == seen["deferred"]
    assert set(PUBLIC_NAMES) <= set(seen["dir"])


# each public function's parameter names, in order, read with inspect.signature
PUBLIC_PARAMETERS = {
    "a_norm": ("q", "f"),
    "apply_transfer": ("spec", "dist"),
    "classify_point": ("q", "lambda1", "lambda2"),
    "classify_quartic": ("coeffs",),
    "displacement": ("lambda1", "lambda2", "alpha"),
    "eigenvalues_from_row": ("q", "row"),
    "jacobian_profile": ("lambda_grid",),
    "linearization_residual": ("spec", "children"),
    "make_potts": ("q", "beta"),
    "make_potts_from_theta": ("q", "theta"),
    "make_standard_clock": ("q", "coupling"),
    "mode_map": ("q", "lambda1", "lambda2", "alpha"),
    "mode_map_q4": ("lambda1", "lambda2", "alpha"),
    "mode_map_q5": ("lambda1", "lambda2", "alpha"),
    "potts_boundary_laws": ("lam",),
    "potts_lambda": ("q", "theta"),
    "potts_theta": ("q", "lam"),
    "potts_thresholds": ("q", "d"),
    "q4_critical_line": ("lambda2",),
    "q4_solutions": ("lambda1", "lambda2"),
    "q5_jacobian": ("lambda1", "lambda2", "alpha"),
    "q5_potts_diagonal_solutions": ("lam",),
    "q5_quartic_analysis": ("lambda2",),
    "q5_quartic_coeffs": ("lambda2",),
    "q5_solutions": ("lambda1", "lambda2"),
    "q5_solutions_at_critical": ("lambda2",),
    "q5_transition_line": ("lambda1_grid", "tol", "lambda2_bracket"),
    "quartic_invariants": ("coeffs",),
    "raw_coefficients": ("q", "f"),
    "recursion_step": ("spec", "children"),
    "row_from_eigenvalues": ("q", "eigenvalues"),
    "rpt_probe": ("spec", "tree", "u", "levels", "tol"),
    "spec_from_lambdas": ("q", "lambda1", "lambda2"),
    "sweep": ("q", "lambda1_range", "lambda2_range", "resolution"),
    "validate_non_increasing": ("spec",),
    "weakened_row": ("spec", "u"),
}


def test_public_parameters():
    parameters = {
        name: tuple(inspect.signature(value).parameters)
        for name, value in _public_items()
        if inspect.isfunction(value)
    }
    assert parameters == PUBLIC_PARAMETERS


# the members of the phase classification's enums, the fields of a classified
# point, and the constructor parameters and regime codes of a classified grid, in order
PUBLIC_MEMBERS = {
    "Regime": ("INFEASIBLE", "NO_PT", "PT_AND_RPT", "PT_NOT_RPT"),
}
PHASE_POINT_FIELDS = ("q", "lambda1", "lambda2", "regime", "n_nontrivial")
# the fields of every other public dataclass, in order
RESULT_FIELDS = {
    "Cayley": ("children",),
    "PottsBoundaryLaws": (
        "lam", "theta", "a_plus", "a_minus", "modes_plus", "modes_minus", "residual_plus", "residual_minus",
    ),
    "ProbeResult": ("distances", "verdict", "u", "tol", "cycle"),
    "QuarticAnalysis": ("coeffs", "delta", "p", "d", "delta0", "structure", "n_simple", "real_roots"),
    "QuarticCoeffs": ("a", "b", "c", "d", "e"),
    "SolutionSet": ("q", "lambda1", "lambda2", "solutions", "residuals", "rejected", "notes"),
    "SymmetricDist": ("q", "modes"),
    "TransferSpec": ("q", "eigenvalues", "row"),
}
PHASE_GRID_PARAMETERS = ("self", "q", "lambda1", "lambda2", "starts", "regime", "n_nontrivial")
PHASE_GRID_REGIMES = ("INFEASIBLE", "PT_AND_RPT", "PT_NOT_RPT", "NO_PT")
# what a classified grid holds besides a Sequence's methods: its axes, its
# runs and their columns, and the code tables; no per-point column
PHASE_GRID_ATTRIBUTES = ("lambda1", "lambda2", "q", "regimes", "run_n_nontrivial", "run_regime", "starts")


def test_public_phase_types():
    assert {name: tuple(getattr(ct, name).__members__) for name in PUBLIC_MEMBERS} == PUBLIC_MEMBERS
    assert all(member.value == member.name for name in PUBLIC_MEMBERS for member in getattr(ct, name))
    assert tuple(field.name for field in dataclasses.fields(ct.PhasePoint)) == PHASE_POINT_FIELDS
    assert tuple(inspect.signature(ct.PhaseGrid.__init__).parameters) == PHASE_GRID_PARAMETERS
    assert tuple(regime.name for regime in ct.PhaseGrid.regimes) == PHASE_GRID_REGIMES


def test_phase_grid_attributes():
    names = set(dir(ct.PhaseGrid)) - set(dir(collections.abc.Sequence))
    assert tuple(sorted(name for name in names if not name.startswith("_"))) == PHASE_GRID_ATTRIBUTES


def test_public_result_fields():
    fields = {
        name: tuple(field.name for field in dataclasses.fields(value))
        for name, value in _public_items()
        if dataclasses.is_dataclass(value) and name != "PhasePoint"
    }
    assert fields == RESULT_FIELDS


# the public methods and properties of every public dataclass besides its
# fields, sorted: a derived read joins or leaves a result type only on purpose
RESULT_MEMBERS = {
    "Cayley": (),
    "PhasePoint": (),
    "PottsBoundaryLaws": ("mode_conversion", "sign_convention"),
    "ProbeResult": (),
    "QuarticAnalysis": (),
    "QuarticCoeffs": ("as_array", "derivative"),
    "SolutionSet": ("n_nontrivial", "nontrivial"),
    "SymmetricDist": (
        "from_probabilities", "point_mass", "probabilities", "raw_coefficients", "sup_distance_to_uniform", "uniform",
    ),
    "TransferSpec": ("from_eigenvalues", "from_row", "lambda1", "lambda2", "matrix"),
}


def test_public_result_members():
    members = {}
    for name, value in _public_items():
        if dataclasses.is_dataclass(value):
            fields = {field.name for field in dataclasses.fields(value)}
            members[name] = tuple(sorted(m for m in dir(value) if not m.startswith("_") and m not in fields))
    assert members == RESULT_MEMBERS


# each module's imports from the package: (at import, on first use inside a
# function).  `clocktree/__init__.py` also loads `basis`, `quartic` and
# `potts` on first use through importlib, which the start-up test pins.
IMPORT_GRAPH = {
    "__init__": ({"errors", "fixedpoint", "phase", "recursion", "spectral"}, set()),
    "__main__": ({"cli"}, set()),
    "basis": ({"errors", "spectral"}, set()),
    "cli": ({"errors", "fixedpoint", "phase", "recursion", "spectral"}, {"potts", "quartic", "svg"}),
    "errors": (set(), set()),
    "exact": (set(), set()),
    "fixedpoint": ({"errors", "exact", "recursion", "spectral"}, set()),
    "phase": ({"errors", "fixedpoint", "spectral"}, set()),
    "potts": ({"errors", "fixedpoint", "recursion", "spectral"}, set()),
    "quartic": ({"errors", "exact", "fixedpoint"}, set()),
    "recursion": ({"errors", "spectral"}, set()),
    "spectral": ({"errors"}, set()),
    "svg": ({"phase"}, set()),
}


def _package_imports(node):
    """The package modules an import statement names: `from .x import y`, `from . import x`, `import clocktree.x`."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("clocktree.")}
    if node.level:
        module = node.module
    elif node.module == "clocktree" or node.module.startswith("clocktree."):
        module = node.module.partition(".")[2]
    else:
        return set()
    return {module.split(".")[0]} if module else {alias.name for alias in node.names}


def _import_graph():
    graph = {}
    for path in sorted(Path(ct.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        statements = (ast.Import, ast.ImportFrom)
        nested = {
            id(node)
            for function in ast.walk(tree) if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function) if isinstance(node, statements)
        }
        at_import, first_use = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, statements):
                (first_use if id(node) in nested else at_import).update(_package_imports(node))
        graph[path.stem] = (at_import, first_use)
    return graph


def test_import_graph():
    graph = _import_graph()
    assert graph == IMPORT_GRAPH
    reads = {module: at_import | first_use for module, (at_import, first_use) in graph.items()}
    # the mode-space API is checked against the solvers, so nothing in the package runs it
    assert [module for module, names in reads.items() if "basis" in names] == []
    # the transfer matrices rest on the errors alone
    assert reads["spectral"] == {"errors"}
    # the fixed-point solvers do not read the quartic classification or the Potts line
    assert not reads["fixedpoint"] & {"quartic", "potts"}
    # the phase classification counts fixed points; it runs no probe
    assert "recursion" not in reads["phase"]


def _raised_names(tree):
    """The names raised by the `raise` statements of a module: `raise X(...)`, `raise errors.X`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised():
    # an exception class nothing raises is an orphan that callers may still
    # try to catch; each one in clocktree.errors is raised somewhere in src/
    package = Path(ct.__file__).parent
    raised = set()
    for path in package.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(), str(path))))
    classes = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)}
    assert classes and sorted(classes - raised) == []


# a backticked dotted name in the package's text, `module.name` or
# `module.name.attr`, optionally called: `fixedpoint._fold_roots`,
# `spectral.feasibility_breakpoints(q, l1)`
_DOTTED_REFERENCE = re.compile(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`")


def _resolves(reference):
    """Whether a dotted name rooted at `clocktree` resolves by imports and getattr."""
    parts = reference.split(".")
    obj, path = importlib.import_module(parts[0]), parts[0]
    for part in parts[1:]:
        path = f"{path}.{part}"
        try:
            # a submodule that is not loaded yet is no attribute of its package
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
        except ModuleNotFoundError:
            return False
    return True


def test_docstring_references_resolve():
    # a rename or a deletion must not leave a docstring or comment pointing at nothing
    package = Path(ct.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    unresolved = []
    for path in sorted(package.glob("*.py")):
        for match in _DOTTED_REFERENCE.finditer(path.read_text()):
            reference = match.group(1)
            root = reference.split(".")[0]
            if root in modules:
                reference = f"clocktree.{reference}"
            elif root != "clocktree":
                continue
            if not _resolves(reference):
                unresolved.append((path.name, match.group(0)))
    assert unresolved == []
