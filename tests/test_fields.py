"""Exact scalar arithmetic: canonical forms, context rules, squareness."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ortholag import (GF, QQ, DivisionByZero, MixedContexts, Scalar,
                      UnsupportedContext, ZeroScalar, is_square)
from ortholag.fields import Field, _inv, _is_prime, _sqrt

F3 = GF(3)
F5 = GF(5)


class TestContexts:
    def test_rationals_singleton_equality(self):
        assert QQ == QQ
        assert QQ.p == 0

    def test_prime_fields_compare_by_p(self):
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)
        assert GF(5) != QQ
        assert hash(GF(5)) == hash(GF(5))

    @pytest.mark.parametrize("bad", [1, 4, 6, 9, 15, 0, -3, 2.0, "5", True,
                                     False])
    def test_composite_or_nonint_rejected(self, bad):
        with pytest.raises(UnsupportedContext,
                           match=f"^{re.escape(str(bad))} is not prime$"):
            GF(bad)

    def test_characteristic_two_rejected(self):
        with pytest.raises(UnsupportedContext,
                           match="^characteristic 2 is not supported$"):
            GF(2)

    def test_characteristic_exposed(self):
        assert GF(7).p == 7

    def test_identity_is_the_characteristic(self):
        assert Field() == QQ and hash(Field()) == hash(QQ)
        assert Field(5) == GF(5) and hash(Field(5)) == hash(GF(5))
        assert GF(5) is not GF(5) and GF(5) == GF(5)
        assert GF(3) != GF(5) and not GF(3) == GF(5)
        assert QQ != GF(3) and GF(3) != QQ
        assert QQ != 0 and GF(3) != 3
        assert len({QQ, Field(), GF(5), Field(5), GF(7)}) == 3

    def test_repr_and_characteristic_on_both_kinds(self):
        assert (repr(QQ), QQ.p) == ("Q", 0)
        assert (repr(GF(5)), GF(5).p) == ("F_5", 5)


class TestCanonicalForms:
    def test_rational_lowest_terms(self):
        s = QQ.scalar(Fraction(2, 4))
        assert s.value == Fraction(1, 2)

    def test_rational_string_parse(self):
        assert QQ.scalar("3/4").value == Fraction(3, 4)
        assert QQ.scalar("-7").value == -7

    def test_prime_field_reduction(self):
        assert F5.scalar(7).value == 2
        assert F5.scalar(-1).value == 4
        assert F5.scalar(10).value == 0

    def test_prime_field_fraction_input(self):
        # 1/3 = 2 mod 5 because 3*2 = 6 = 1
        assert F5.scalar(Fraction(1, 3)).value == 2
        assert F5.scalar("1/3").value == 2

    def test_prime_field_bad_denominator(self):
        with pytest.raises(DivisionByZero):
            F5.scalar(Fraction(1, 5))

    def test_foreign_scalar_rejected(self):
        with pytest.raises(MixedContexts):
            F5.scalar(F3.scalar(1))

    def test_uncoercible_rejected(self):
        with pytest.raises(TypeError):
            QQ.scalar(0.5)

    def test_equal_values_equal_structurally(self):
        assert F5.scalar(12) == F5.scalar(2)
        assert hash(F5.scalar(12)) == hash(F5.scalar(2))
        assert QQ.scalar("2/4") == QQ.scalar(Fraction(1, 2))


class TestRawMessages:
    """Every refusal of Field.raw, on both kinds of field."""

    @pytest.mark.parametrize("field,name", [(QQ, "Q"), (F5, "F_5")])
    @pytest.mark.parametrize("value", [0.5, None, [1], 1j])
    def test_uncoercible(self, field, name, value):
        with pytest.raises(TypeError,
                           match=f"^cannot coerce {re.escape(repr(value))} "
                                 f"into {name}$"):
            field.raw(value)

    @pytest.mark.parametrize("value",
                             [Fraction(1, 5), Fraction(2, 25), "3/10"])
    def test_denominator_divisible_by_p(self, value):
        with pytest.raises(DivisionByZero,
                           match="^denominator divisible by 5$"):
            F5.raw(value)

    def test_foreign_scalar(self):
        with pytest.raises(MixedContexts, match="^scalar from F_3 used in Q$"):
            QQ.raw(F3.one)
        with pytest.raises(MixedContexts, match="^scalar from Q used in F_5$"):
            F5.raw(QQ.one)
        with pytest.raises(MixedContexts,
                           match="^scalar from F_3 used in F_5$"):
            F5.raw(F3.one)

    @pytest.mark.parametrize("field", [QQ, F5])
    def test_unreadable_string(self, field):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            field.raw("one half")

    def test_bools_are_ints(self):
        assert QQ.raw(True) == Fraction(1) and type(QQ.raw(True)) is Fraction
        assert F5.raw(True) == 1 and type(F5.raw(True)) is int
        assert F5.raw(False) == 0 and type(F5.raw(False)) is int


_PRIMES = st.sampled_from([3, 5, 7, 11, 13, 101, 2 ** 31 - 1])
_FRACTIONS = st.fractions(max_denominator=10 ** 6)
_RATIONAL_INPUTS = st.one_of(st.integers(), _FRACTIONS).flatmap(
    lambda x: st.sampled_from([x, str(x)]))


@given(_PRIMES, _RATIONAL_INPUTS)
def test_raw_is_num_times_inverse_den(p, x):
    """GF(p).raw(x) is num * den^-1 mod p and QQ.raw(x) is Fraction(x)."""
    q = Fraction(x)
    assert QQ.raw(x) == q and type(QQ.raw(x)) is Fraction
    if q.denominator % p == 0:
        with pytest.raises(DivisionByZero):
            GF(p).raw(x)
        return
    got = GF(p).raw(x)
    assert type(got) is int and 0 <= got < p
    assert got == q.numerator * pow(q.denominator, -1, p) % p
    assert got * q.denominator % p == q.numerator % p


class TestArithmetic:
    def test_rational_examples(self):
        assert QQ.scalar("1/2") + QQ.scalar("1/3") == QQ.scalar("5/6")
        assert QQ.scalar(1) / QQ.scalar(3) == QQ.scalar("1/3")

    def test_prime_field_examples(self):
        assert F5.scalar(2) * F5.scalar(3) == F5.one
        assert F5.one / F5.scalar(3) == F5.scalar(2)

    def test_int_operands_coerce(self):
        s = F5.scalar(2)
        assert s + 3 == F5.zero
        assert 3 + s == F5.zero
        assert 1 - s == F5.scalar(4)
        assert 2 * s == F5.scalar(4)
        assert 1 / s == F5.scalar(3)

    def test_negation_and_bool(self):
        assert -F5.scalar(2) == F5.scalar(3)
        assert bool(F5.zero) is False
        assert bool(F5.scalar(4)) is True

    def test_mixed_contexts_raise(self):
        with pytest.raises(MixedContexts):
            F5.scalar(1) + F3.scalar(1)
        with pytest.raises(MixedContexts):
            QQ.scalar(1) * F3.scalar(1)

    def test_cross_field_equality_is_false(self):
        assert (F5.scalar(1) == F3.scalar(1)) is False
        assert F5.scalar(1) != F3.scalar(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            F5.one / F5.zero
        with pytest.raises(DivisionByZero):
            QQ.one / QQ.zero

    def test_raw_inverse(self):
        assert _inv(3, 7) == 5 and _inv(-1, 5) == 4
        assert _inv(Fraction(-2, 3), 0) == Fraction(-3, 2)
        with pytest.raises(DivisionByZero, match="^division by zero in F_5$"):
            _inv(10, 5)
        with pytest.raises(DivisionByZero, match="^division by zero in Q$"):
            _inv(Fraction(0), 0)

    def test_division_by_zero_is_zero_division_error(self):
        assert issubclass(DivisionByZero, ZeroDivisionError)

    def test_scalars_immutable(self):
        s = F5.scalar(1)
        with pytest.raises(AttributeError):
            s.value = 3

    @pytest.mark.parametrize("field", [F3, F5, GF(7), QQ])
    def test_field_axioms_random_sweep(self, field):
        rng = random.Random(11)

        def rand():
            if field is QQ:
                return QQ.scalar(Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9)))
            return field.scalar(rng.randrange(field.p))

        for _ in range(200):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if b != field.zero:
                assert b * (a / b) == a
                assert b / b == field.one


class TestIsSquare:
    def test_rationals_unsupported(self):
        with pytest.raises(UnsupportedContext):
            is_square(QQ.scalar(4))

    def test_zero_excluded(self):
        with pytest.raises(ZeroScalar):
            is_square(F5.zero)

    def test_known_values_mod_5(self):
        ok, root = is_square(F5.scalar(4))
        assert ok and root == F5.scalar(2)
        ok, root = is_square(F5.scalar(2))
        assert not ok and root is None
        ok, root = is_square(F5.scalar(-1))
        assert ok and root == F5.scalar(2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_exhaustive_against_direct_squaring(self, p):
        field = GF(p)
        squares = {(x * x) % p for x in range(1, p)}
        for v in range(1, p):
            ok, root = is_square(field.scalar(v))
            assert ok == (v in squares)
            if ok:
                assert root * root == field.scalar(v)
                # witness is the smaller of the two roots
                assert root.value == min(root.value, p - root.value)

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 41, 97, 257, 7919])
    def test_raw_sqrt_against_direct_squaring(self, p):
        # 17, 41, 97 and 257 are 1 mod 8, where Tonelli-Shanks loops
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, x)
        for v in range(-p, 2 * p):
            assert _sqrt(v, p) == roots.get(v % p)

    def test_scalar_repr(self):
        assert repr(F5.scalar(7)) == "2"
        assert repr(Scalar(QQ, Fraction(1, 2))) == "1/2"


class TestPrimality:
    """Deterministic Miller-Rabin against sympy, which is used only here."""

    def test_matches_sympy_below_1e5(self):
        from sympy import isprime
        assert ([n for n in range(10 ** 5) if _is_prime(n)]
                == [n for n in range(10 ** 5) if isprime(n)])

    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
        318665857834031151167461,  # strong pseudoprime to all bases up to 37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        from sympy import isprime
        assert not isprime(n)
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2 ** 31 - 1, 10 ** 17 + 3, 2 ** 61 - 1,
                                   10 ** 24 + 7])
    def test_large_primes_are_fast(self, n):
        start = time.perf_counter()
        assert GF(n).p == n
        assert time.perf_counter() - start < 0.1

    def test_refuses_above_the_certified_bound(self):
        from ortholag.fields import _MR_BOUND
        n = 3317044064679887385961981  # strong pseudoprime to the 13 bases
        assert n == _MR_BOUND
        with pytest.raises(UnsupportedContext, match=str(_MR_BOUND)):
            GF(n)
        # a small factor still decides compositeness above the bound
        assert not _is_prime(3 * _MR_BOUND)
