"""Matrices and canonical subspaces, cross-checked against oracles.py."""

import random
from fractions import Fraction

import pytest

from ortholag import (GF, QQ, AmbientMismatch, DimMismatch, Matrix,
                      MixedContexts, Subspace, canonical_basis)
from ortholag.linalg import dot

import oracles

F3 = GF(3)
F5 = GF(5)


def int_rows(mat):
    """Matrix over F_p as plain int rows."""
    return tuple(tuple(x.value for x in row) for row in mat.entries)


def frac_rows(mat):
    return tuple(tuple(Fraction(x.value) for x in row) for row in mat.entries)


def random_int_rows(rng, p, nr, nc):
    return [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]


class TestMatrixBasics:
    def test_construction_coerces_entries(self):
        m = Matrix(F5, [[7, -1], [0, "1/3"]])
        assert int_rows(m) == ((2, 4), (0, 2))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimMismatch):
            Matrix(QQ, [[1, 2], [3]])

    def test_identity_zero_diagonal(self):
        assert int_rows(Matrix.identity(F3, 2)) == ((1, 0), (0, 1))
        assert int_rows(Matrix.zero(F3, 2, 3)) == ((0, 0, 0), (0, 0, 0))
        assert int_rows(Matrix.diagonal(F3, [1, -1])) == ((1, 0), (0, 2))

    def test_shape_and_indexing(self):
        m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)
        assert m[1, 2] == QQ.scalar(6)
        assert m.row(0) == tuple(QQ.scalar(x) for x in (1, 2, 3))

    def test_transpose(self):
        m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
        assert m.T.entries == Matrix(QQ, [[1, 4], [2, 5], [3, 6]]).entries
        assert m.T.T == m
        assert Matrix(QQ, []).T == Matrix(QQ, [])

    def test_arithmetic(self):
        a = Matrix(F5, [[1, 2], [3, 4]])
        b = Matrix(F5, [[0, 1], [1, 0]])
        assert int_rows(a + b) == ((1, 3), (4, 4))
        assert int_rows(a - b) == ((1, 1), (2, 4))
        assert int_rows(a * b) == ((2, 1), (4, 3))
        assert int_rows(2 * a) == int_rows(a * 2) == ((2, 4), (1, 3))

    def test_scalar_times_matrix_dispatches(self):
        a = Matrix(F5, [[1, 2], [3, 4]])
        assert F5.scalar(2) * a == a * 2

    def test_mixed_fields_raise(self):
        with pytest.raises(MixedContexts):
            Matrix(F3, [[1]]) + Matrix(F5, [[1]])

    def test_shape_mismatches_raise(self):
        with pytest.raises(DimMismatch):
            Matrix(QQ, [[1, 2]]) + Matrix(QQ, [[1], [2]])
        with pytest.raises(DimMismatch):
            Matrix(QQ, [[1, 2]]) * Matrix(QQ, [[1, 2]])

    def test_repr(self):
        assert repr(Matrix(QQ, [[1, "1/2"], [0, -3]])) == "Matrix[1 1/2; 0 -3]"
        assert repr(Matrix(F5, [[7, 4]])) == "Matrix[2 4]"
        assert repr(Matrix(F3, [])) == "Matrix[]"

    def test_dot_of_unequal_lengths_raises(self):
        with pytest.raises(DimMismatch):
            dot((F3.one,), (F3.one, F3.one))

    def test_immutable_and_hashable(self):
        m = Matrix(F3, [[1]])
        with pytest.raises(AttributeError):
            m.entries = ()
        assert hash(m) == hash(Matrix(F3, [[4]]))


class TestRrefRankKernelInverse:
    @pytest.mark.parametrize("p", [3, 5])
    def test_rref_matches_oracle_mod_p(self, p):
        rng = random.Random(p)
        field = GF(p)
        for _ in range(80):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            rows = random_int_rows(rng, p, nr, nc)
            got, pivots = Matrix(field, rows).rref()
            want_rows, want_pivots = oracles.rref_mod_p(rows, p)
            # library keeps zero rows in the rref result; compare the nonzero part
            assert int_rows(got)[: len(want_rows)] == want_rows
            assert all(not any(r) for r in int_rows(got)[len(want_rows):])
            assert pivots == want_pivots
            assert Matrix(field, rows).rank() == len(want_pivots)

    def test_rref_matches_oracle_rationals(self):
        rng = random.Random(7)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(nc)] for _ in range(nr)]
            got, pivots = Matrix(QQ, rows).rref()
            want_rows, want_pivots = oracles.rref_fractions(rows)
            assert frac_rows(got)[: len(want_rows)] == want_rows
            assert pivots == want_pivots

    @pytest.mark.parametrize("p", [3, 5])
    def test_kernel_annihilates_and_is_complete(self, p):
        rng = random.Random(p + 10)
        field = GF(p)
        for _ in range(60):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            m = Matrix(field, random_int_rows(rng, p, nr, nc))
            k = m.kernel()
            assert k.nrows == nc - m.rank()
            for row in k.entries:
                assert all(x == field.zero
                           for x in (m * Matrix(field, [row]).T).T.entries[0])
            want = oracles.nullspace_mod_p(int_rows(m), p, ncols=nc)
            assert int_rows(k) == want

    def test_kernel_of_injective_map_is_empty(self):
        k = Matrix(QQ, [[1, 0], [0, 1], [1, 1]]).kernel()
        assert k.nrows == 0

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for p in (3, 5):
            field = GF(p)
            done = 0
            while done < 20:
                n = rng.randint(1, 5)
                m = Matrix(field, random_int_rows(rng, p, n, n))
                if not m.is_invertible():
                    continue
                done += 1
                assert m * m.inverse() == Matrix.identity(field, n)
                assert m.inverse() * m == Matrix.identity(field, n)

    def test_singular_inverse_raises(self):
        with pytest.raises(DimMismatch):
            Matrix(QQ, [[1, 2], [2, 4]]).inverse()
        with pytest.raises(DimMismatch):
            Matrix(QQ, [[1, 2, 3]]).inverse()

    def test_is_invertible(self):
        assert Matrix(QQ, [[2]]).is_invertible()
        assert not Matrix(QQ, [[0]]).is_invertible()
        assert not Matrix(QQ, [[1, 2]]).is_invertible()


class TestSubspaceCanonicalForm:
    def test_span_canonicalizes_known_examples(self):
        s = Subspace.span(QQ, 2, [[2, 0], [0, 3]])
        assert frac_rows(s.basis) == ((1, 0), (0, 1))
        s = Subspace.span(QQ, 2, [[1, 1], [2, 2]])
        assert frac_rows(s.basis) == ((1, 1),)
        s = Subspace.span(QQ, 2, [[0, 0]])
        assert s.dim == 0

    def test_same_space_same_object_structure(self):
        a = Subspace.span(F5, 3, [[1, 2, 3], [0, 1, 4]])
        b = Subspace.span(F5, 3, [[2, 4, 6], [1, 3, 2]])  # scaled + mixed rows
        assert a == b
        assert hash(a) == hash(b)

    def test_span_matches_oracle_rref(self):
        rng = random.Random(42)
        for p in (3, 5):
            field = GF(p)
            for _ in range(60):
                n = rng.randint(1, 6)
                rows = oracles.random_subspace_rows(rng, p, n)
                s = Subspace.span(field, n, rows)
                want = oracles.rref_mod_p(rows, p)[0] if rows else ()
                assert int_rows(s.basis) == tuple(want)

    def test_canonicalization_idempotent(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = oracles.random_subspace_rows(rng, 3, 5)
            s = Subspace.span(F3, 5, rows)
            again = Subspace.span(F3, 5, [tuple(x.value for x in r)
                                          for r in s.basis.entries])
            assert again == s

    def test_canonical_basis_function(self):
        s = canonical_basis(QQ, 2, [[2, 2], [1, 1]])
        assert frac_rows(s.basis) == ((1, 1),)

    def test_full_and_zero(self):
        assert Subspace.full(F3, 4).dim == 4
        assert Subspace.zero_subspace(F3, 4).dim == 0

    def test_wrong_row_length_rejected(self):
        with pytest.raises(AmbientMismatch):
            Subspace.span(QQ, 3, [[1, 2]])


class TestSubspaceOperations:
    def test_sum_and_intersection_examples(self):
        e1 = Subspace.span(QQ, 4, [[1, 0, 0, 0]])
        e2 = Subspace.span(QQ, 4, [[0, 1, 0, 0]])
        e12 = Subspace.span(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        e23 = Subspace.span(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert e1 + e2 == e12
        assert (e12 & e23) == e2
        assert (e12 & e12) == e12
        diag = Subspace.span(QQ, 2, [[1, 1]])
        anti = Subspace.span(QQ, 2, [[1, -1]])
        assert (diag & anti).dim == 0
        assert (diag + anti) == Subspace.full(QQ, 2)

    @pytest.mark.parametrize("field", [F3, QQ])
    def test_intersection_with_zero(self, field):
        z = Subspace.zero_subspace(field, 3)
        a = Subspace.span(field, 3, [[1, 2, 0], [0, 1, 1]])
        assert (a & z) == (z & a) == (z & z) == z
        assert (Subspace.full(field, 3) & z) == z
        z0 = Subspace.zero_subspace(field, 0)
        assert (z0 & Subspace.full(field, 0)) == z0

    def test_sum_with_zero_is_identity(self):
        a = Subspace.span(F3, 3, [[1, 2, 0]])
        assert a + Subspace.zero_subspace(F3, 3) == a

    @pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 4)])
    def test_dimension_law_random_sweep(self, p, n):
        rng = random.Random(100 * p + n)
        field = GF(p)
        for _ in range(120):
            a = Subspace.span(field, n, oracles.random_subspace_rows(rng, p, n))
            b = Subspace.span(field, n, oracles.random_subspace_rows(rng, p, n))
            inter, total = a & b, a + b
            assert inter.dim + total.dim == a.dim + b.dim
            assert a.contains(inter) and b.contains(inter)
            assert total.contains(a) and total.contains(b)
            want = oracles.intersection_dim_mod_p(
                int_rows(a.basis), int_rows(b.basis), p)
            assert inter.dim == want

    def test_dimension_law_rationals(self):
        rng = random.Random(5)
        for _ in range(40):
            rows_a = [[rng.randint(-3, 3) for _ in range(4)]
                      for _ in range(rng.randint(0, 4))]
            rows_b = [[rng.randint(-3, 3) for _ in range(4)]
                      for _ in range(rng.randint(0, 4))]
            a = Subspace.span(QQ, 4, rows_a)
            b = Subspace.span(QQ, 4, rows_b)
            assert (a & b).dim + (a + b).dim == a.dim + b.dim

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            Subspace.full(QQ, 2) & Subspace.full(QQ, 3)
        with pytest.raises(MixedContexts):
            Subspace.full(F3, 2) + Subspace.full(F5, 2)

    def test_contains_vector(self):
        s = Subspace.span(F5, 3, [[1, 0, 2], [0, 1, 3]])
        assert s.contains_vector([1, 1, 0])
        assert not s.contains_vector([0, 0, 1])
        with pytest.raises(AmbientMismatch):
            s.contains_vector([1, 0])

    def test_coordinates_round_trip(self):
        rng = random.Random(17)
        s = Subspace.span(F5, 4, [[1, 0, 2, 3], [0, 1, 4, 1]])
        for _ in range(30):
            c = [rng.randrange(5), rng.randrange(5)]
            v = tuple(c[0] * a.value + c[1] * b.value
                      for a, b in zip(*s.basis.entries))
            coords = s.coordinates(v)
            assert tuple(x.value for x in coords) == (c[0] % 5, c[1] % 5)

    def test_coordinates_zero_subspace(self):
        z = Subspace.zero_subspace(QQ, 3)
        assert z.coordinates([0, 0, 0]) == ()
        with pytest.raises(AmbientMismatch):
            z.coordinates([1, 0, 0])

    def test_coordinates_wrong_length_raises(self):
        s = Subspace.span(F5, 3, [[1, 0, 2]])
        with pytest.raises(AmbientMismatch):
            s.coordinates([1, 0])
        with pytest.raises(AmbientMismatch):
            Subspace.zero_subspace(F5, 3).coordinates([0, 0, 0, 0])

    def test_coordinates_outside_raises(self):
        s = Subspace.span(QQ, 3, [[1, 0, 0]])
        with pytest.raises(AmbientMismatch):
            s.coordinates([0, 1, 0])

    def test_apply_identity_and_composition(self):
        rng = random.Random(23)
        s = Subspace.span(F3, 4, [[1, 0, 1, 2], [0, 1, 2, 0]])
        assert s.apply(Matrix.identity(F3, 4)) == s
        for _ in range(20):
            m = Matrix(F3, random_int_rows(rng, 3, 4, 4))
            q = Matrix(F3, random_int_rows(rng, 3, 4, 4))
            assert s.apply(m).apply(q) == s.apply(m * q)

    def test_apply_shape_check(self):
        s = Subspace.full(F3, 4)
        with pytest.raises(DimMismatch):
            s.apply(Matrix.identity(F3, 3))

    def test_apply_can_change_ambient(self):
        s = Subspace.span(QQ, 2, [[1, 1]])
        m = Matrix(QQ, [[1, 0, 0], [0, 1, 0]])
        assert s.apply(m) == Subspace.span(QQ, 3, [[1, 1, 0]])

    def test_sort_key_is_deterministic(self):
        subs = [Subspace.span(F3, 2, [v]) for v in ([1, 0], [0, 1], [1, 1], [1, 2])]
        assert sorted(subs, key=lambda s: s.key) == sorted(
            subs, key=lambda s: s.key)
