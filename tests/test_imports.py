"""The lazy package namespace and the layers each CLI command loads."""

import importlib
import os
import subprocess
import sys

import pytest

import ortholag
from ortholag import cli, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every name the package exports, by home module
EXPORTED = {
    "errors": ("errors", "AmbientMismatch", "CapExceeded", "DegenerateForm",
               "DegenerateRestriction", "DimMismatch", "DivisionByZero",
               "IsotropicSearchExhausted", "MalformedInput", "MixedContexts",
               "NonSplitExtension", "NotLagrangian", "NotSplit",
               "NotSymmetric", "OddAmbient", "OrtholagError", "OutOfRange",
               "UnsupportedContext", "ZeroScalar"),
    "fields": ("fields", "GF", "QQ", "Scalar", "is_square"),
    "linalg": ("linalg", "Matrix", "Subspace"),
    "orthospace": ("orthospace", "GramSpace", "WittDecomposition",
                   "extend_by_scalar", "find_similarity", "is_isotropic",
                   "isometry_check", "mumford_sym2_form",
                   "orthogonal_complement", "standard_form", "witt_decompose",
                   "witt_index"),
    "lagrange": ("lagrange", "ComponentLabel", "CorankRecord", "LiftPair",
                 "complement_corank_law", "component_of",
                 "enumerate_lagrangians", "flip_automorphism", "is_lagrangian",
                 "lagrangian_count", "lift_odd_to_even", "og_tangent_dim",
                 "restrict_even_to_odd"),
    "strata": ("strata", "CurveParams", "StratumRow"),
    "verify": ("verify",),
    "jsonio": ("jsonio",),
}
NUMERIC = ("ortholag.linalg", "ortholag.orthospace", "ortholag.lagrange")


def loaded_after(code):
    """The ortholag modules loaded in a fresh interpreter after running code."""
    code += ("\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('ortholag'))))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("home,name", [(home, name)
                                       for home, names in EXPORTED.items()
                                       for name in names])
def test_exported_name_is_the_home_object(home, name):
    module = importlib.import_module(f"ortholag.{home}")
    assert name in dir(ortholag)
    want = module if name == home else getattr(module, name)
    assert getattr(ortholag, name) is want


def test_all_is_exactly_the_exported_names():
    assert ortholag.__all__ == sorted(
        name for names in EXPORTED.values() for name in names)


def test_from_import_and_star_import():
    from ortholag import GF, witt_decompose
    assert GF is ortholag.fields.GF
    assert witt_decompose is ortholag.orthospace.witt_decompose
    scope = {}
    exec("from ortholag import *", scope)
    assert scope["enumerate_lagrangians"] is ortholag.lagrange.enumerate_lagrangians


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ortholag.no_such_name
    assert not hasattr(ortholag, "_dot")


def test_cli_suite_choices_are_the_suites():
    parser = cli._build_parser()
    groups = parser._subparsers._group_actions[0].choices
    og = groups["og"]._subparsers._group_actions[0].choices
    for sub in (groups["verify"], og["verify"]):
        suite = next(a for a in sub._actions if a.dest == "suite")
        assert list(suite.choices) == sorted(verify.SUITES)


def test_package_import_loads_no_layer():
    assert loaded_after("import ortholag") == {"ortholag"}


def test_cli_import_loads_only_errors():
    assert loaded_after("import ortholag.cli") == {
        "ortholag", "ortholag.cli", "ortholag.errors"}


@pytest.mark.parametrize("argv", [
    ["strata", "table", "--g", "3", "--n", "1", "--json"],
    ["strata", "bounds", "--g", "3", "--n", "2"],
    ["verify", "tables"],
    ["verify", "exceptions"],
])
def test_closed_form_commands_leave_numeric_layers_unloaded(argv):
    code = ("import contextlib, io\n"
            "from ortholag.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")
    loaded = loaded_after(code)
    assert "ortholag.strata" in loaded
    assert not loaded & set(NUMERIC)
