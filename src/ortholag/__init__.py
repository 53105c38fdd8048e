"""Exact split orthogonal spaces, their Lagrangians, and stratum dimensions.

The building blocks are exact scalars (Q or F_p with p an odd prime),
canonically presented subspaces, and symmetric bilinear forms.  On top of
those sit Witt decomposition, Lagrangian enumeration over small prime
fields, the odd/even orthogonal Grassmannian correspondence, and closed
form dimension formulas for strata of odd orthogonal bundle moduli.
"""

from . import jsonio, strata, verify
from .errors import (AmbientMismatch, CapExceeded, DegenerateForm,
                     DegenerateRestriction, DimMismatch, DivisionByZero,
                     IsotropicSearchExhausted, MalformedInput, MixedContexts,
                     NonSplitExtension, NotLagrangian, NotSplit, NotSymmetric,
                     OddAmbient, OrtholagError, OutOfRange, UnsupportedContext,
                     ZeroScalar)
from .fields import GF, QQ, PrimeField, Rationals, Scalar, is_square
from .lagrange import (ComponentLabel, CorankRecord, LiftPair,
                       complement_corank_law, component_of, enumerate_lagrangians,
                       flip_automorphism, is_lagrangian, lift_odd_to_even,
                       og_tangent_dim, restrict_even_to_odd)
from .linalg import Matrix, Subspace, canonical_basis
from .orthospace import (GramSpace, WittDecomposition, extend_by_scalar,
                         find_similarity, is_isotropic, isometry_check,
                         mumford_sym2_form, orthogonal_complement,
                         standard_form, witt_decompose, witt_index)
from .strata import CurveParams, StratumRow

__version__ = "0.1.0"
