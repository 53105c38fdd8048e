"""Numeric invariants of the stratification calculator."""

from fractions import Fraction

import pytest

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
