"""Numeric invariants of the stratification calculator."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortholag import OutOfRange
from ortholag.strata import (CurveParams, ParamSpaceDims, closure_chain,
                             component_sign, dim_max_lagrangians,
                             general_t_values, h0_wedge2, hirschowitz_bound,
                             hirschowitz_exceptions,
                             max_lagrangian_count_class, mod4_table,
                             moduli_dim, param_space_dim, sharp_bound,
                             stratum_dim, stratum_flags, stratum_row)


def cp(g, n):
    return CurveParams(g=g, n=n)


class TestParams:
    def test_n_value(self):
        assert cp(2, 1).N == 2
        assert cp(3, 2).N == 6
        assert cp(5, 3).N == 16

    @pytest.mark.parametrize("g,n", [(1, 1), (0, 2), (2, 0), (2, -1)])
    def test_domain(self, g, n):
        with pytest.raises(OutOfRange):
            cp(g, n)

    def test_non_integer(self):
        with pytest.raises(OutOfRange):
            cp(2.5, 1)
        with pytest.raises(OutOfRange):
            cp(2, "3")

    @pytest.mark.parametrize("g,n", [(3, True), (3, False), (True, 2)])
    def test_bool(self, g, n):
        with pytest.raises(OutOfRange):
            CurveParams(g, n)

    def test_value_type_behaviour(self):
        p = cp(3, 2)
        assert repr(p) == "CurveParams(g=3, n=2)"
        assert p == CurveParams(3, 2) and hash(p) == hash(CurveParams(3, 2))
        with pytest.raises(AttributeError):
            p.g = 4
        row = stratum_row(p, 8)
        assert repr(row).startswith("StratumRow(g=3, n=2, t=8, e=4, ")
        with pytest.raises(AttributeError):
            row.t = 6


class TestGlobalDimensions:
    def test_moduli_dim(self):
        assert moduli_dim(cp(2, 1)) == 3
        assert moduli_dim(cp(3, 2)) == 20
        assert moduli_dim(cp(2, 2)) == 10

    def test_sharp_bound(self):
        assert sharp_bound(cp(2, 1)) == 5
        assert sharp_bound(cp(3, 2)) == 9
        assert sharp_bound(cp(5, 3)) == 19

    def test_hn_bound_exact(self):
        assert hn_bound_val(3, 2) == 18
        assert hn_bound_val(2, 3) == 12
        assert hn_bound_val(2, 2) == 12
        got = hn_bound_val(2, 4)
        assert got == Fraction(40, 3)
        assert isinstance(got, Fraction)

    def test_hn_bound_domain(self):
        from ortholag.strata import hn_bound
        with pytest.raises(OutOfRange):
            hn_bound(cp(3, 1))

    def test_sharp_dominated_by_hn(self):
        from ortholag.strata import hn_bound
        for g in range(2, 21):
            for n in range(2, 21):
                assert sharp_bound(cp(g, n)) <= hn_bound(cp(g, n))


def hn_bound_val(g, n):
    from ortholag.strata import hn_bound
    return hn_bound(cp(g, n))


class TestComponentsAndGeneralT:
    def test_sign_rule(self):
        for t in range(2, 40, 2):
            assert component_sign(t) == ("+" if t % 4 == 0 else "-")

    @pytest.mark.parametrize("g,n,want", [
        (2, 1, ((2, "-"), (4, "+"))),
        (3, 1, ((4, "+"), (6, "-"))),
        (3, 2, ((6, "-"), (8, "+"))),
        (4, 2, ((10, "-"), (12, "+"))),
        (2, 2, ((4, "+"), (6, "-"))),
    ])
    def test_general_t_values(self, g, n, want):
        assert general_t_values(cp(g, n)) == want

    def test_one_per_component(self):
        for g in range(2, 12):
            for n in range(1, 12):
                (t1, s1), (t2, s2) = general_t_values(cp(g, n))
                assert {s1, s2} == {"+", "-"}
                assert t2 == t1 + 2
                assert t1 in (cp(g, n).N, cp(g, n).N + 1)


class TestStratumDim:
    def test_examples(self):
        assert stratum_dim(cp(3, 2), 4) == 18
        assert stratum_dim(cp(3, 2), 6) == 20
        assert stratum_dim(cp(2, 1), 2) == 3

    def test_domain(self):
        p = cp(3, 2)  # N = 6
        for bad in (3, 0, -2, p.N + 4, p.N + 5):
            with pytest.raises(OutOfRange):
                stratum_dim(p, bad)
        with pytest.raises(OutOfRange):
            stratum_dim(p, "4")

    def test_regimes_and_monotonicity(self):
        for g in range(2, 16):
            for n in range(1, 16):
                p = cp(g, n)
                top = moduli_dim(p)
                prev = None
                for t in range(2, p.N + 4, 2):
                    d = stratum_dim(p, t)
                    assert isinstance(d, int)
                    assert d <= top
                    if t >= p.N:
                        assert d == top
                    if prev is not None:
                        assert d >= prev
                    prev = d
                if p.N % 2 == 0:
                    # both branch formulas meet at the pivot
                    expected = (n * (3 * n + 1) * (g - 1) + n * p.N) // 2
                    assert stratum_dim(p, p.N) == expected == top

    def test_flags(self):
        p = cp(3, 2)  # N = 6
        assert stratum_flags(p, 4) == ("formula",)
        assert stratum_flags(p, 6) == ("formula", "dense")
        assert stratum_flags(p, 8) == ("dense",)


class TestMaxLagrangianFamilies:
    def test_examples(self):
        assert dim_max_lagrangians(cp(2, 2), 6) == 3
        assert dim_max_lagrangians(cp(3, 2), 8) == 2
        assert dim_max_lagrangians(cp(3, 1), 4) == 0

    def test_count_class(self):
        p = cp(3, 2)  # N = 6
        assert max_lagrangian_count_class(p, 4) == "unique"
        assert max_lagrangian_count_class(p, 6) == "finite"
        assert max_lagrangian_count_class(p, 8) == "infinite"

    def test_zero_up_to_pivot_then_linear(self):
        for g in range(2, 12):
            for n in range(1, 12):
                p = cp(g, n)
                for t in range(2, p.N + 4, 2):
                    d = dim_max_lagrangians(p, t)
                    if t <= p.N:
                        assert d == 0
                    else:
                        assert d == n * (t - p.N) // 2 > 0


class TestTables:
    @pytest.mark.parametrize("g,n,want", [
        (3, 1, ((4, "+", 0), (6, "-", 1))),
        (4, 2, ((10, "-", 1), (12, "+", 3))),
        (3, 2, ((6, "-", 0), (8, "+", 2))),
        (2, 2, ((4, "+", 1), (6, "-", 3))),
    ])
    def test_mod4_tables(self, g, n, want):
        rows = mod4_table(cp(g, n))
        got = tuple((r.t, r.component, r.dim_max_lagrangians) for r in rows)
        assert got == want

    def test_row_fields(self):
        p = cp(3, 2)
        row = stratum_row(p, 8)
        assert (row.g, row.n, row.t, row.e) == (3, 2, 8, 4)
        assert row.component == "+"
        assert row.stratum_dim == moduli_dim(p)
        assert row.flags == ("dense", "infinite")

    def test_general_rows_are_dense(self):
        for g in range(2, 10):
            for n in range(1, 10):
                p = cp(g, n)
                for row in mod4_table(p):
                    assert row.stratum_dim == moduli_dim(p)
                    assert "dense" in row.flags


def family_oracle(g_max, n_max):
    """Exception families, written out case by case for cross-checking."""
    out = set()
    for n in range(1, n_max + 1):
        if g_max >= 2:
            out.add((2, n, n + 1 if n % 2 else n + 2))
        if g_max >= 3:
            out.add((3, n, 2 * (n + 1)))
        if g_max >= 4 and n % 2 and n >= 3:
            out.add((4, n, 3 * (n + 1)))
    return out


def direct_exceptions(g_max, n_max):
    """Every (g, n, t) with t general and ceil(n(n+1)(g-1)/(2n+1)) >= t/2,
    scanning every genus up to g_max."""
    out = []
    for g in range(2, g_max + 1):
        for n in range(1, n_max + 1):
            big_n = (n + 1) * (g - 1)
            bound = -(-n * (n + 1) * (g - 1) // (2 * n + 1))
            base = big_n + big_n % 2
            out += [(g, n, t) for t in (base, base + 2) if bound >= t // 2]
    return out


class TestHirschowitz:
    def test_bound_examples(self):
        assert hirschowitz_bound(cp(2, 1)) == 1
        assert hirschowitz_bound(cp(3, 2)) == 3
        assert hirschowitz_bound(cp(2, 3)) == 2

    def test_bound_is_ceiling(self):
        for g in range(2, 15):
            for n in range(1, 15):
                b = hirschowitz_bound(cp(g, n))
                num, den = n * (n + 1) * (g - 1), 2 * n + 1
                assert den * (b - 1) < num <= den * b

    def test_exceptions_small_scan(self):
        got = set(hirschowitz_exceptions(4, 3))
        assert got == {(2, 1, 2), (2, 2, 4), (2, 3, 4),
                       (3, 1, 4), (3, 2, 6), (3, 3, 8), (4, 3, 12)}

    def test_exceptions_match_direct_scan_over_every_genus(self):
        assert hirschowitz_exceptions(40, 200) == direct_exceptions(40, 200)

    def test_exceptions_cost_does_not_grow_with_genus(self):
        start = time.perf_counter()
        found = hirschowitz_exceptions(10**6, 1000)
        assert time.perf_counter() - start < 1
        assert set(found) == family_oracle(4, 1000)

    def test_exceptions_match_family_oracle(self):
        assert set(hirschowitz_exceptions(10, 20)) == family_oracle(10, 20)
        assert len(hirschowitz_exceptions(10, 20)) == 49

    def test_no_exceptions_for_large_genus(self):
        for (g, n, t) in hirschowitz_exceptions(12, 12):
            assert g <= 4

    def test_excluded_neighbours(self):
        got = set(hirschowitz_exceptions(6, 6))
        assert (4, 1, 6) not in got
        assert (2, 1, 4) not in got

    def test_domain(self):
        with pytest.raises(OutOfRange):
            hirschowitz_exceptions(1, 5)
        with pytest.raises(OutOfRange):
            hirschowitz_exceptions(5, 0)


class TestParamSpaces:
    def test_examples(self):
        assert param_space_dim(cp(2, 2), 2) == ParamSpaceDims(11, 4, 3)
        assert param_space_dim(cp(3, 1), 1) == ParamSpaceDims(5, 3, 0)

    def test_sum_identity(self):
        for g in range(2, 12):
            for n in range(1, 12):
                p = cp(g, n)
                for e in range(0, 12):
                    dims = param_space_dim(p, e)
                    assert dims.total == (n * n * (g - 1) + 1) + (
                        dims.h1_bundle - 1) + dims.h1_wedge2

    def test_h0_wedge2(self):
        assert h0_wedge2(cp(3, 2), 3) == 0
        assert h0_wedge2(cp(3, 2), 7) == 8
        assert h0_wedge2(cp(2, 2), 3) == 3

    def test_h0_wedge2_matches_family_dim_above_pivot(self):
        for g in range(2, 10):
            for n in range(1, 10):
                p = cp(g, n)
                for e in range((p.N + 1) // 2, (p.N + 3) // 2 + 1):
                    t = 2 * e
                    if t <= 0 or t > p.N + 3:
                        continue
                    assert dim_max_lagrangians(p, t) == h0_wedge2(p, e)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            param_space_dim(cp(2, 2), -1)
        with pytest.raises(OutOfRange):
            h0_wedge2(cp(2, 2), -3)


class TestClosureChain:
    def test_examples(self):
        assert closure_chain(cp(3, 1), "-") == [2, 6]
        assert closure_chain(cp(3, 1), "+") == [4]
        assert closure_chain(cp(5, 2), "+") == [4, 8, 12]

    def test_structure(self):
        for g in range(2, 10):
            for n in range(1, 10):
                p = cp(g, n)
                plus = closure_chain(p, "+")
                minus = closure_chain(p, "-")
                assert set(plus) | set(minus) == set(range(2, p.N + 4, 2))
                for chain in (plus, minus):
                    assert all(b - a == 4 for a, b in zip(chain, chain[1:]))
                    dims = [stratum_dim(p, t) for t in chain]
                    assert dims == sorted(dims)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            closure_chain(cp(3, 1), "plus")


# Reference closed forms, written as Fraction polynomials on each regime and
# independently of the int arithmetic in strata.

def pivot(g, n):
    return (n + 1) * (g - 1)


def closed_stratum_dim(g, n, t):
    if t <= pivot(g, n):
        return Fraction(n * (3 * n + 1) * (g - 1), 2) + Fraction(n * t, 2)
    return Fraction(n * (2 * n + 1) * (g - 1))


def closed_dim_max_lagrangians(g, n, t):
    return Fraction(0) if t <= pivot(g, n) else Fraction(n * (t - pivot(g, n)), 2)


def closed_param_space_dim(g, n, e):
    return (Fraction(n * (3 * n + 1) * (g - 1), 2) + n * e,
            Fraction(e + n * (g - 1)),
            (n - 1) * e + Fraction(n * (n - 1) * (g - 1), 2))


def closed_h0_wedge2(g, n, e):
    return Fraction(0) if 2 * e <= pivot(g, n) else Fraction(
        n * (2 * e - pivot(g, n)), 2)


def assert_int(got, want):
    """got is an int (not a bool, float or Fraction) equal to want."""
    assert type(got) is int and got == want, (got, want)


BIG = 10**6


@st.composite
def genus_rank_t(draw):
    """(g, n, t) up to 10^6, with t drawn over its whole range or next to
    the pivot."""
    g, n = draw(st.integers(2, BIG)), draw(st.integers(1, BIG))
    top = (pivot(g, n) + 3) // 2
    near = max(1, pivot(g, n) // 2 - 1)
    return g, n, 2 * draw(st.integers(1, top) | st.integers(near, top))


@st.composite
def genus_rank_e(draw):
    """(g, n, e) with g, n up to 10^6 and e up to 10^6 or next to N/2."""
    g, n = draw(st.integers(2, BIG)), draw(st.integers(1, BIG))
    half = pivot(g, n) // 2
    return g, n, draw(st.integers(0, BIG)
                      | st.integers(max(0, half - 2), half + 2))


class TestClosedForms:
    @settings(max_examples=300, deadline=None)
    @given(genus_rank_t())
    def test_t_functions(self, gnt):
        g, n, t = gnt
        p = cp(g, n)
        assert_int(stratum_dim(p, t), closed_stratum_dim(g, n, t))
        assert_int(dim_max_lagrangians(p, t), closed_dim_max_lagrangians(g, n, t))

    @settings(max_examples=300, deadline=None)
    @given(genus_rank_e())
    def test_e_functions(self, gne):
        g, n, e = gne
        p = cp(g, n)
        for got, want in zip(param_space_dim(p, e), closed_param_space_dim(g, n, e)):
            assert_int(got, want)
        assert_int(h0_wedge2(p, e), closed_h0_wedge2(g, n, e))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, BIG), st.integers(1, BIG))
    def test_mod4_table_shape(self, g, n):
        big_n = pivot(g, n)
        half = Fraction(n, 2)
        want = {0: ((big_n, "+", 0), (big_n + 2, "-", n)),
                2: ((big_n, "-", 0), (big_n + 2, "+", n)),
                1: ((big_n + 1, "-", half), (big_n + 3, "+", 3 * half)),
                3: ((big_n + 1, "+", half), (big_n + 3, "-", 3 * half))}
        rows = mod4_table(cp(g, n))
        assert tuple((r.t, r.component, r.dim_max_lagrangians)
                     for r in rows) == want[big_n % 4]


def certify(identity, gs, ns, es, region):
    """Check identity(g, n, e) on the product grid gs x ns x es, after
    checking that every grid point lies in the region.

    Both sides of each certified identity are polynomials of degree <= 1 in g
    and e and <= 2 in n on the region (the halvings in strata are exact, see
    test_halvings_are_exact).  A polynomial of degree <= d_i in variable i
    that vanishes on a product of d_i + 1 points per variable is zero, so 2, 3
    and 2 points prove the identity on the whole region.
    """
    assert (len(set(gs)), len(set(ns)), len(set(es))) == (2, 3, 2)
    for g, n, e in itertools.product(gs, ns, es):
        assert region(g, n, e), (g, n, e)
        assert identity(g, n, e), (g, n, e)


class TestCertificates:
    def test_halvings_are_exact(self):
        # parity of an integer polynomial in n depends only on n mod 2
        for n in (0, 1):
            assert n * (n + 1) % 2 == n * (n - 1) % 2 == n * (3 * n + 1) % 2 == 0

    def test_below_the_pivot(self):
        def identity(g, n, e):
            p, t = cp(g, n), 2 * e
            return (stratum_dim(p, t) == closed_stratum_dim(g, n, t)
                    and dim_max_lagrangians(p, t) == h0_wedge2(p, e) == 0)
        certify(identity, (3, 4), (2, 3, 4), (1, 2),
                lambda g, n, e: 0 < 2 * e <= pivot(g, n))

    def test_above_the_pivot(self):
        # stratum_dim and dim_max_lagrangians take only t <= N+3 there, so
        # the count is certified on the helpers they are built from
        def identity(g, n, e):
            p = cp(g, n)
            return (param_space_dim(p, e).total - h0_wedge2(p, e) == moduli_dim(p)
                    and h0_wedge2(p, e) == closed_h0_wedge2(g, n, e))
        certify(identity, (2, 3), (1, 2, 3), (5, 6),
                lambda g, n, e: 2 * e > pivot(g, n))

    def test_param_space_dim(self):
        def identity(g, n, e):
            dims = param_space_dim(cp(g, n), e)
            return (dims == closed_param_space_dim(g, n, e)
                    and dims.total == (n * n * (g - 1) + 1)
                    + (dims.h1_bundle - 1) + dims.h1_wedge2)
        certify(identity, (2, 3), (1, 2, 3), (0, 1), lambda g, n, e: e >= 0)

    def test_formulas_agree_at_the_pivot(self):
        # in g and n alone, so e is a dummy variable
        def identity(g, n, e):
            return (Fraction(n * (3 * n + 1) * (g - 1), 2)
                    + Fraction(n * pivot(g, n), 2) == moduli_dim(cp(g, n)))
        certify(identity, (2, 3), (1, 2, 3), (0, 1), lambda g, n, e: True)

    def test_no_exceptions_from_genus_five(self):
        # with x = n(n+1)(g-1)/(2n+1): 2(2n+1)(N/2 - x) = N, and
        # N - (4n+2) = (n+1)(g-5) + 2 > 0 for g >= 5, so N/2 - x > 1 and
        # ceil(x) < N/2 <= t/2 for both general t
        def identity(g, n, e):
            big_n = pivot(g, n)
            return ((2 * n + 1) * big_n - 2 * n * (n + 1) * (g - 1) == big_n
                    and big_n - (4 * n + 2) == (n + 1) * (g - 5) + 2)
        certify(identity, (5, 6), (1, 2, 3), (0, 1), lambda g, n, e: g >= 5)

    def test_exceptions_below_genus_five_repeat_every_four_ranks(self):
        """For g <= 4 and n >= 2, g - 1 < 2n + 1, and
        n(n+1)/(2n+1) = (2n+1)/4 - 1/(4(2n+1)), so hirschowitz_bound is
        ceil((g-1)(2n+1)/4 - eps) with 0 < eps < 1/4, which is
        ceil((g-1)(2n+1)/4).  Raising n by 4 raises it, and N/2 and each
        general t/2, by 2(g-1).  So the exceptions at n >= 2 repeat with
        period 4 in n, and n <= 5 settles them all."""
        for g in (2, 3, 4):
            for n in range(2, 401):
                p = cp(g, n)
                assert hirschowitz_bound(p) == -(-(g - 1) * (2 * n + 1) // 4)
                q = cp(g, n + 4)
                assert [hirschowitz_bound(q) - t // 2 for t, _ in general_t_values(q)] \
                    == [hirschowitz_bound(p) - t // 2 for t, _ in general_t_values(p)]
        assert set(hirschowitz_exceptions(4, 5)) == family_oracle(4, 5)
        # the families repeat the same way: (g, n, t) -> (g, n+4, t+4(g-1))
        fam = family_oracle(4, 9)
        assert {(g, n + 4, t + 4 * (g - 1)) for g, n, t in fam if 2 <= n <= 5} \
            == {x for x in fam if x[1] >= 6}
