"""The public names of the `clocktree` package, its functions' parameters and its phase types, pinned.

A name or a parameter joins or leaves the package only on purpose: the
change that does it updates these lists and names it in CHANGES.md.
"""
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import clocktree as ct
from clocktree import errors

PUBLIC_NAMES = [
    "AsymmetricVector", "BasisConvention", "Cayley", "ClockTreeError",
    "DegenerateQuartic", "DimensionMismatch", "EmptyChildren", "Evidence", "FeasibilityReport",
    "NormalizationUnderflow", "NotAProbability", "NotStochastic", "PhaseGrid", "PhasePoint",
    "PottsBoundaryLaws", "ProbeResult", "QuarticAnalysis", "QuarticCoeffs", "Regime",
    "RootStructure", "RowAsymmetric", "SolutionSet", "SpectrumAsymmetric",
    "SymmetricDist", "TransferSpec", "UnsupportedQ", "UnsupportedTree", "Verdict", "ZeroRowEntry",
    "a_norm", "apply_transfer", "basis_norms", "classify_point",
    "classify_quartic", "displacement", "eigenvalues_from_row", "jacobian_profile", "linearization_residual",
    "make_potts", "make_potts_from_theta", "make_standard_clock", "mode_map", "mode_map_q4", "mode_map_q5",
    "potts_boundary_laws", "potts_lambda", "potts_theta", "potts_thresholds", "pt_probe", "q4_critical_line",
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
        "clocktree", "clocktree.cli", "clocktree.errors", "clocktree.fixedpoint", "clocktree.phase",
        "clocktree.recursion", "clocktree.spectral",
    ]
    # each public name that is not loaded yet comes from its own module, and is read there once
    assert seen["homes"] == ["clocktree.basis", "clocktree.potts", "clocktree.quartic"]
    assert set(seen["deferred"]) <= set(PUBLIC_NAMES)
    assert seen["same"] == seen["deferred"]
    assert seen["reads"] == seen["deferred"]
    assert set(PUBLIC_NAMES) <= set(seen["dir"])


# each public function's parameter names, in order, read with inspect.signature
PUBLIC_PARAMETERS = {
    "a_norm": ("q", "f", "convention"),
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
    "pt_probe": ("spec", "tree", "levels", "tol"),
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
    "Evidence": ("CLOSED_FORM", "ELIMINATION"),
}
PHASE_POINT_FIELDS = ("q", "lambda1", "lambda2", "feasible", "regime", "n_nontrivial", "evidence")
PHASE_GRID_PARAMETERS = ("self", "q", "lambda1", "lambda2", "starts", "feasible", "regime", "n_nontrivial")
PHASE_GRID_REGIMES = ("INFEASIBLE", "PT_AND_RPT", "PT_NOT_RPT", "NO_PT")


def test_public_phase_types():
    assert {name: tuple(getattr(ct, name).__members__) for name in PUBLIC_MEMBERS} == PUBLIC_MEMBERS
    assert all(member.value == member.name for name in PUBLIC_MEMBERS for member in getattr(ct, name))
    assert tuple(field.name for field in dataclasses.fields(ct.PhasePoint)) == PHASE_POINT_FIELDS
    assert tuple(inspect.signature(ct.PhaseGrid.__init__).parameters) == PHASE_GRID_PARAMETERS
    assert tuple(regime.name for regime in ct.PhaseGrid.regimes) == PHASE_GRID_REGIMES


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
