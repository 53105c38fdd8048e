"""Closed-form dimension bookkeeping for odd orthogonal bundle strata.

The inputs are g >= 2 (curve genus) and n >= 1 (Lagrangian subbundle rank);
the ambient bundles have rank 2n+1 and trivial determinant.  The
stratification parameter t is minus twice the maximal Lagrangian subbundle
degree; it is always even and the values taken by a general bundle depend
on N = (n+1)(g-1) modulo 4.  A stratum's dimension is that of its extension
parameter space (param_space_dim) minus that of its family of maximal
Lagrangians (h0_wedge2), at e = t/2.  All arithmetic is int arithmetic
except hn_bound, which is a Fraction; only hn_bound imports fractions, so
the other formulas load no module but errors.
"""

from typing import NamedTuple

from .errors import OutOfRange

PLUS = "+"
MINUS = "-"


class _GenusRank(NamedTuple):
    g: int
    n: int


class CurveParams(_GenusRank):
    """Genus and subbundle rank; validates the documented domain."""

    __slots__ = ()

    def __new__(cls, g, n):
        if isinstance(g, bool) or not isinstance(g, int) or g < 2:
            raise OutOfRange(f"genus must be an integer >= 2, got {g}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise OutOfRange(f"rank parameter must be an integer >= 1, got {n}")
        return super().__new__(cls, g, n)

    @property
    def N(self):
        """The pivot value (n+1)(g-1) separating stratum regimes."""
        return (self.n + 1) * (self.g - 1)


def moduli_dim(p: CurveParams) -> int:
    """Dimension n(2n+1)(g-1) of either component of the moduli space."""
    return p.n * (2 * p.n + 1) * (p.g - 1)


def sharp_bound(p: CurveParams) -> int:
    """Sharp upper bound (n+1)(g-1) + 3 for t on a general bundle."""
    return p.N + 3


def hn_bound(p: CurveParams) -> "Fraction":
    """The coarser bound n(n+1)g/(n-1), as an exact rational; needs n >= 2."""
    from fractions import Fraction
    if p.n < 2:
        raise OutOfRange("the bound is undefined for n = 1")
    return Fraction(p.n * (p.n + 1) * p.g, p.n - 1)


def component_sign(t: int) -> str:
    """Component containing bundles with maximal Lagrangian degree -t/2."""
    return PLUS if t % 4 == 0 else MINUS


def general_t_values(p: CurveParams):
    """The two t values attained by general bundles, with component signs.

    For N even these are N and N+2; for N odd, N+1 and N+3.  Exactly one
    lands in each component.
    """
    base = p.N if p.N % 2 == 0 else p.N + 1
    return ((base, component_sign(base)), (base + 2, component_sign(base + 2)))


def _check_t(p: CurveParams, t: int):
    if not isinstance(t, int) or t % 2 != 0 or t <= 0 or t > p.N + 3:
        raise OutOfRange(
            f"t must be a positive even integer at most N+3 = {p.N + 3}, got {t}")


def stratum_dim(p: CurveParams, t: int) -> int:
    """Dimension of the stratum of bundles with parameter exactly t: the
    extension parameter space at e = t/2 minus the family of maximal
    Lagrangians.  Through the pivot that family is a point and the stratum
    is proper, of dimension n(3n+1)(g-1)/2 + nt/2.  Above it the difference
    is moduli_dim, which that formula also gives at t = N: the stratum is
    dense in a component.
    """
    _check_t(p, t)
    return param_space_dim(p, t // 2).total - h0_wedge2(p, t // 2)


def stratum_flags(p: CurveParams, t: int):
    """Which regime t falls in: the proper-stratum formula, density, or both."""
    _check_t(p, t)
    flags = []
    if t <= p.N:
        flags.append("formula")
    if t >= p.N:
        flags.append("dense")
    return tuple(flags)


def dim_max_lagrangians(p: CurveParams, t: int) -> int:
    """Dimension of the family of maximal Lagrangian subbundles at parameter t.

    This is h0_wedge2 at e = t/2: zero through the pivot (a unique one below
    it, finitely many at it), and n(t-N)/2 above it.
    """
    _check_t(p, t)
    return h0_wedge2(p, t // 2)


def max_lagrangian_count_class(p: CurveParams, t: int) -> str:
    """Trichotomy for maximal Lagrangian subbundles: unique, finite, infinite."""
    _check_t(p, t)
    if t < p.N:
        return "unique"
    if t == p.N:
        return "finite"
    return "infinite"


class StratumRow(NamedTuple):
    """One row of the general-bundle table for fixed (g, n)."""

    g: int
    n: int
    t: int
    e: int  # minus the maximal Lagrangian subbundle degree, t/2
    component: str
    stratum_dim: int
    dim_max_lagrangians: int
    flags: tuple


def stratum_row(p: CurveParams, t: int) -> StratumRow:
    _check_t(p, t)
    return StratumRow(g=p.g, n=p.n, t=t, e=t // 2,
                      component=component_sign(t),
                      stratum_dim=stratum_dim(p, t),
                      dim_max_lagrangians=dim_max_lagrangians(p, t),
                      flags=stratum_flags(p, t)
                      + (max_lagrangian_count_class(p, t),))


def mod4_table(p: CurveParams):
    """The two general-bundle rows, ordered by t; shape depends on N mod 4."""
    return tuple(stratum_row(p, t) for t, _ in general_t_values(p))


def hirschowitz_bound(p: CurveParams) -> int:
    """ceil(n(n+1)(g-1)/(2n+1)): degree bound for rank-n subbundles of a
    general rank 2n+1 degree 0 bundle."""
    num = p.n * (p.n + 1) * (p.g - 1)
    den = 2 * p.n + 1
    return -(-num // den)


def hirschowitz_exceptions(g_max: int, n_max: int):
    """All (g, n, t) with t general where the subbundle bound fails to be
    strictly smaller than t/2, by direct comparison.

    These are exactly the parameter sets where a maximal rank-n subbundle of
    a general bundle in the component can be Lagrangian.  There are none
    with g >= 5, so the cost grows with n_max only.
    """
    if g_max < 2 or n_max < 1:
        raise OutOfRange("need g_max >= 2 and n_max >= 1")
    # N/2 - n(n+1)(g-1)/(2n+1) = N/(2(2n+1)), and for g >= 5
    # N - (4n+2) = (n+1)(g-5) + 2 > 0, so the difference exceeds 1: the
    # ceiling is below N/2 <= t/2 for every general t
    out = []
    for g in range(2, min(g_max, 4) + 1):
        for n in range(1, n_max + 1):
            p = CurveParams(g, n)
            for t, _ in general_t_values(p):
                if hirschowitz_bound(p) >= t // 2:
                    out.append((g, n, t))
    return out


class ParamSpaceDims(NamedTuple):
    total: int       # dimension of the extension parameter space
    h1_bundle: int   # h^1 of the underlying subbundle twist
    h1_wedge2: int   # h^1 of its second exterior power


def param_space_dim(p: CurveParams, e: int) -> ParamSpaceDims:
    """Dimension triple of the parameter space at subbundle degree -e.

    total = n(3n+1)(g-1)/2 + ne and decomposes as
    [n^2(g-1) + 1] + [h1_bundle - 1] + h1_wedge2.
    """
    if e < 0:
        raise OutOfRange("e must be nonnegative")
    n, g = p.n, p.g
    # each // halves an even int: n(n+1) and n(n-1) are products of
    # consecutive ints, and n(3n+1) = n(n+1) + 2n^2
    return ParamSpaceDims(n * (3 * n + 1) // 2 * (g - 1) + n * e,
                          e + n * (g - 1),
                          (n - 1) * e + n * (n - 1) // 2 * (g - 1))


def h0_wedge2(p: CurveParams, e: int) -> int:
    """Sections of the second exterior power twist: zero up to e = N/2,
    then n(2e-N)/2 = ne - n(n+1)(g-1)/2."""
    if e < 0:
        raise OutOfRange("e must be nonnegative")
    if 2 * e <= p.N:
        return 0
    return p.n * (2 * e - p.N) // 2  # exact: nN = n(n+1)(g-1) is even


def closure_chain(p: CurveParams, component: str):
    """Ascending t values of the nested strata inside one component.

    Strata in a component step by 4 in t, so the chain is every even
    0 < t <= N+3 with component_sign(t) == component.
    """
    if component not in (PLUS, MINUS):
        raise OutOfRange(f"component must be '+' or '-', got {component!r}")
    return [t for t in range(2, p.N + 4, 2) if component_sign(t) == component]
