"""Exact split orthogonal spaces, their Lagrangians, and stratum dimensions.

The building blocks are exact scalars (Q or F_p with p an odd prime),
canonically presented subspaces, and symmetric bilinear forms.  On top of
those sit Witt decomposition, Lagrangian enumeration over small prime
fields, the odd/even orthogonal Grassmannian correspondence, and closed
form dimension formulas for strata of odd orthogonal bundle moduli.

`import ortholag` loads none of the layers.  Each public name below, and
each layer module, is imported from its home module on first access
(PEP 562) and then bound here, as `from .home import name` would bind it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> the public names it exports; a module's own name is the module
_EXPORTS = {
    "errors": ("errors", "AmbientMismatch", "CapExceeded", "DegenerateForm",
               "DegenerateRestriction", "DimMismatch", "DivisionByZero",
               "IsotropicSearchExhausted", "MalformedInput", "MixedContexts",
               "NonSplitExtension", "NotLagrangian", "NotSplit",
               "NotSymmetric", "OddAmbient", "OrtholagError", "OutOfRange",
               "UnsupportedContext", "ZeroScalar"),
    "fields": ("fields", "GF", "QQ", "PrimeField", "Rationals", "Scalar",
               "is_square"),
    "linalg": ("linalg", "Matrix", "Subspace", "canonical_basis"),
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
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
