"""Bilinear spaces and Witt decomposition, cross-checked against oracles.py."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ortholag import (GF, QQ, AmbientMismatch, DegenerateForm, DimMismatch,
                      GramSpace, IsotropicSearchExhausted, Matrix,
                      MixedContexts, OutOfRange, Subspace, UnsupportedContext,
                      ZeroScalar, extend_by_scalar, find_similarity,
                      is_isotropic, isometry_check, mumford_sym2_form,
                      orthogonal_complement, standard_form, witt_decompose,
                      witt_index)
from ortholag import orthospace

import oracles

F3 = GF(3)
F5 = GF(5)

H = [[0, 1], [1, 0]]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[at + i][at + j] = b[i][j]
        at += len(b)
    return out


def int_gram(space):
    return [[x.value % space.field.p for x in row]
            for row in space.gram.entries]


def int_rows(mat):
    return tuple(tuple(x.value for x in row) for row in mat.entries)


def det3(g, p):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])) % p


def random_form3(rng, p):
    """A random nondegenerate symmetric 3x3 matrix mod p."""
    while True:
        g = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = rng.randrange(p)
        if det3(g, p):
            return g


class TestGramSpace:
    def test_validation(self):
        with pytest.raises(DimMismatch):
            GramSpace(QQ, [[1, 2]])
        with pytest.raises(ValueError):
            GramSpace(QQ, [[0, 1], [2, 0]])
        with pytest.raises(MixedContexts):
            GramSpace(QQ, Matrix(F3, [[1]]))

    def test_nondegeneracy_flag(self):
        assert GramSpace(F3, H).nondegenerate
        assert not GramSpace(F3, [[1, 0], [0, 0]]).nondegenerate

    def test_bilinear_and_qvalue(self):
        s = GramSpace(QQ, [[2, 1], [1, 0]])
        # [1,1] G [1,2]^t = [3,1].[1,2] = 5
        assert s.bilinear([1, 1], [1, 2]) == QQ.scalar(5)
        assert s.qvalue([1, 1]) == QQ.scalar(4)
        assert s.bilinear([1, 0], [0, 1]) == s.bilinear([0, 1], [1, 0])

    def test_restrict(self):
        s = GramSpace(QQ, block_diag(H, [[3]]))
        sub = Subspace.span(QQ, 3, [[1, 0, 0], [0, 0, 1]])
        r = s.restrict(sub)
        assert r.dim == 2
        assert r.gram == Matrix(QQ, [[0, 0], [0, 3]])

    def test_restrict_zero_subspace(self):
        s = GramSpace(F3, H)
        assert s.restrict(Subspace.zero_subspace(F3, 2)).dim == 0

    def test_restrict_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            GramSpace(F3, H).restrict(Subspace.full(F3, 3))

    def test_equality_hash_and_repr(self):
        a, b = GramSpace(F3, H), GramSpace(F3, [[3, 4], [1, 0]])
        assert a == b and hash(a) == hash(b)
        assert a != GramSpace(F5, H) and a != GramSpace(F3, [[1, 0], [0, 1]])
        assert a != H
        assert repr(a) == "GramSpace(dim=2 over F_3)"
        assert repr(GramSpace(QQ, [])) == "GramSpace(dim=0 over Q)"


class TestOrthogonalComplement:
    def test_known_example(self):
        s = GramSpace(QQ, block_diag(H, [[1]]))
        e = Subspace.span(QQ, 3, [[1, 0, 0]])  # isotropic e of the pair
        perp = orthogonal_complement(s, e)
        # e pairs only with f, so perp = span(e, last)
        assert perp == Subspace.span(QQ, 3, [[1, 0, 0], [0, 0, 1]])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            orthogonal_complement(GramSpace(F3, [[0]]), Subspace.full(F3, 1))

    def test_zero_subspace_gives_everything(self):
        for field in (F3, F5, QQ):
            for gram in ([], [[2]], H, block_diag(H, [[-1]])):
                space = GramSpace(field, gram)
                zero = Subspace.zero_subspace(field, space.dim)
                assert orthogonal_complement(space, zero) == Subspace.full(
                    field, space.dim)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            orthogonal_complement(GramSpace(F3, H), Subspace.full(F3, 3))

    @pytest.mark.parametrize("p", [3, 5])
    def test_dimension_law_involution_and_oracle(self, p):
        import random
        rng = random.Random(p)
        field = GF(p)
        for _ in range(40):
            d = rng.randint(1, 5)
            while True:
                m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
                sym = [[(m[i][j] + m[j][i]) % p for j in range(d)]
                       for i in range(d)]
                if oracles.rank_mod_p(sym, p) == d:
                    break
            space = GramSpace(field, sym)
            rows = oracles.random_subspace_rows(rng, p, d)
            s = Subspace.span(field, d, rows)
            perp = orthogonal_complement(space, s)
            assert s.dim + perp.dim == d
            assert orthogonal_complement(space, perp) == s
            want = oracles.orth_complement_mod_p(
                int_rows(s.basis), sym, p)
            assert int_rows(perp.basis) == tuple(want)

    def test_rational_dimension_law(self):
        s = GramSpace(QQ, block_diag(H, H, [[1]]))
        sub = Subspace.span(QQ, 5, [[1, 2, 3, 4, 5], [0, 1, 0, 1, 0]])
        perp = orthogonal_complement(s, sub)
        assert perp.dim == 3
        for u in sub.basis.entries:
            for v in perp.basis.entries:
                assert s.bilinear(u, v) == QQ.zero


class TestIsIsotropic:
    def test_examples(self):
        s = GramSpace(F3, block_diag(H, H))
        assert is_isotropic(s, Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]]))
        assert not is_isotropic(s, Subspace.span(F3, 4, [[1, 1, 0, 0]]))
        assert is_isotropic(s, Subspace.zero_subspace(F3, 4))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            is_isotropic(GramSpace(F3, H), Subspace.full(F3, 3))


class TestWittDecomposition:
    @pytest.mark.parametrize("p,shape,n,want", [
        (3, "even", 1, 1), (3, "even", 2, 2), (3, "even", 3, 3),
        (3, "odd", 1, 1), (3, "odd", 2, 2),
        (5, "even", 2, 2), (5, "odd", 2, 2),
    ])
    def test_standard_forms_have_full_index(self, p, shape, n, want):
        assert witt_index(standard_form(GF(p), n, shape)) == want

    def test_block_structure(self):
        wd = witt_decompose(GramSpace(F3, block_diag(H, [[1]])))
        assert wd.witt_index == 1
        assert wd.hyperbolic_pairs == ((0, 1),)
        assert wd.anisotropic_part.dim == 1
        b = wd.block_gram
        assert (b[0, 0], b[0, 1], b[1, 0], b[1, 1]) == (
            F3.zero, F3.one, F3.one, F3.zero)

    def test_change_of_basis_is_isometry_onto_block_form(self):
        space = GramSpace(F5, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        wd = witt_decompose(space)
        block_space = GramSpace(F5, wd.block_gram)
        assert isometry_check(space, block_space, wd.change_of_basis)

    def test_basis_rows_pair_correctly(self):
        space = GramSpace(F3, block_diag([[1]], H, [[2]]))
        wd = witt_decompose(space)
        rows = wd.basis_rows
        for i, j in wd.hyperbolic_pairs:
            assert space.qvalue(rows[i]) == F3.zero
            assert space.qvalue(rows[j]) == F3.zero
            assert space.bilinear(rows[i], rows[j]) == F3.one

    def test_repr(self):
        assert repr(witt_decompose(standard_form(F3, 1, "odd"))) == (
            "WittDecomposition(index=1, anisotropic_dim=1)")
        # -1 is not a square mod 3, so x^2 + y^2 has no zero
        assert repr(witt_decompose(GramSpace(F3, [[1, 0], [0, 1]]))) == (
            "WittDecomposition(index=0, anisotropic_dim=2)")

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            witt_decompose(GramSpace(F3, [[0]]))

    @pytest.mark.parametrize("gram", [[[1, 0], [0, -1]],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, -1]]])
    def test_certificate_catches_a_broken_partner(self, monkeypatch, gram):
        # twice the inverse leaves f pairing 2 with e, not 1; on these
        # diagonal forms over Q the rest of the decomposition is unchanged
        inv = orthospace._inv
        monkeypatch.setattr(orthospace, "_inv", lambda x, p: 2 * inv(x, p))
        with pytest.raises(AssertionError, match="^internal error: change "
                                                 "of basis fails to block$"):
            witt_decompose(GramSpace(QQ, gram))

    @pytest.mark.parametrize("p", [3, 5])
    def test_random_sweep_against_oracle(self, p):
        for q, gram in oracles.random_symmetric_grams(40, seed=p, qs=(p,)):
            space = GramSpace(GF(p), gram)
            wd = witt_decompose(space)
            assert isometry_check(space, GramSpace(GF(p), wd.block_gram),
                                  wd.change_of_basis)
            assert wd.witt_index == oracles.max_isotropic_dim(gram, p)
            assert wd.anisotropic_part.dim == space.dim - 2 * wd.witt_index
            if wd.anisotropic_part.dim:
                aniso = [[x.value for x in row]
                         for row in wd.anisotropic_part.gram.entries]
                assert not oracles.isotropic_projective_points(aniso, p)

    def test_exhaustive_diagonal_forms_small_dims(self):
        # over F_p every form diagonalizes, so diagonal forms cover all
        # congruence classes; witt_index is a congruence invariant
        for p in (3, 5):
            field = GF(p)
            for dim in (1, 2, 3):
                for diag in itertools.product(range(1, p), repeat=dim):
                    space = GramSpace(field, Matrix.diagonal(field, diag))
                    got = witt_index(space)
                    want = oracles.max_isotropic_dim(
                        [[d if i == j else 0 for j in range(dim)]
                         for i, d in enumerate(diag)], p)
                    assert got == want
                    if dim % 2:
                        assert got == dim // 2  # odd dims are always split

    @pytest.mark.parametrize("p", [1009, 7919])
    def test_anisotropic_planes_over_large_primes(self, p):
        rng = random.Random(p)
        nonsquares = [r for r in range(2, p) if pow(r, (p - 1) // 2, p) != 1]
        for _ in range(5):
            # 1 + 2bxy + (b^2 - r) y^2 = (x + by)^2 - r y^2 with r a nonsquare
            b, r = rng.randrange(p), rng.choice(nonsquares)
            wd = witt_decompose(GramSpace(GF(p), [[1, b], [b, b * b - r]]))
            assert wd.witt_index == 0
            (a, c), (c2, e) = [[x.value for x in row]
                               for row in wd.anisotropic_part.gram.entries]
            assert pow((c * c2 - a * e) % p, (p - 1) // 2, p) == p - 1

    def test_rationals_definite_is_anisotropic(self):
        wd = witt_decompose(GramSpace(QQ, [[1, 0], [0, 1]]))
        assert wd.witt_index == 0
        assert wd.anisotropic_part.dim == 2
        wd = witt_decompose(GramSpace(QQ, [[-2, 0], [0, -3]]))
        assert wd.witt_index == 0

    def test_rationals_indefinite_with_zero(self):
        wd = witt_decompose(GramSpace(QQ, [[1, 0], [0, -4]]))
        assert wd.witt_index == 1
        assert wd.anisotropic_part.dim == 0
        space = GramSpace(QQ, block_diag(H, [[-1]], [[1]]))
        assert witt_index(space) == 2

    def test_rationals_exhausted_search_raises(self):
        # x^2 + y^2 = 3 z^2 has no rational solution; the form is ternary and
        # indefinite, so the search runs to its height bound and must report
        # rather than decide
        space = GramSpace(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -3]])
        with pytest.raises(IsotropicSearchExhausted):
            witt_decompose(space, height_bound=3)

    @pytest.mark.parametrize("d1,d2", [(1, -2), (3, -5), (Fraction(7, 3), -3),
                                       (-1, Fraction(1, 2))])
    def test_rationals_binary_anisotropy_is_certified(self, d1, d2):
        # a binary form is isotropic iff -d1*d2 is a rational square, which
        # is decided exactly, whatever the height bound
        from sympy import Rational, sqrt
        assert not sqrt(Rational(-d1 * d2)).is_rational
        for bound in (1, 50):
            wd = witt_decompose(GramSpace(QQ, [[d1, 0], [0, d2]]),
                                height_bound=bound)
            assert wd.witt_index == 0
            assert wd.anisotropic_part.dim == 2
            assert wd.anisotropic_part.gram == Matrix(QQ, [[d1, 0], [0, d2]])

    def test_rationals_binary_zero_above_the_height_bound(self):
        # -1/10201 is (1/101)^2: the zero (101, 1) lies far above the bound
        wd = witt_decompose(GramSpace(QQ, [[1, 0], [0, -10201]]),
                            height_bound=3)
        assert wd.witt_index == 1
        assert wd.block_gram == Matrix(QQ, H)

    def test_rational_height_bound_is_honored(self):
        space = GramSpace(QQ, [[1, 0], [0, -4]])
        assert witt_decompose(space, height_bound=3).witt_index == 1
        # the ternary search: x^2 + y^2 - 5 z^2 first vanishes at height 2
        space = GramSpace(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -5]])
        with pytest.raises(IsotropicSearchExhausted):
            witt_decompose(space, height_bound=1)
        assert witt_decompose(space, height_bound=2).witt_index == 1


_NONZERO_Q = st.fractions(min_value=-40, max_value=40, max_denominator=12
                          ).filter(bool)


@settings(max_examples=200, deadline=None)
@given(_NONZERO_Q, _NONZERO_Q, st.booleans(),
       st.sampled_from((1, 4, 9, 25, Fraction(1, 4), Fraction(49, 9))),
       st.integers(-3, 3), st.booleans())
def test_rational_binary_forms_against_sympy(d1, d2, split, square, t, swap):
    """Witt index 1 exactly when -d1*d2 is a rational square (sympy), on
    diag(d1, d2) and on a unimodular conjugate; the change of basis holds."""
    from sympy import Rational, sqrt
    if split:
        d2 = -d1 * square  # so that about half of the draws are split
    want = 1 if sqrt(Rational(-d1 * d2)).is_rational else 0
    b = Matrix(QQ, [[1, t], [0, 1]])
    if swap:
        b = b * Matrix(QQ, [[0, 1], [1, 0]])
    diag = GramSpace(QQ, [[d1, 0], [0, d2]])
    for space in (diag, GramSpace(QQ, b.T * diag.gram * b)):
        wd = witt_decompose(space)
        assert wd.witt_index == want
        assert isometry_check(space, GramSpace(QQ, wd.block_gram),
                              wd.change_of_basis)


def _check_search(diag, bound, budget):
    """The package's search returns the oracle's first zero, or refuses with
    the oracle's message, under the given height bound and budget."""
    diag = [Fraction(d) for d in diag]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthospace, "SEARCH_BUDGET", budget)
        try:
            want = oracles.first_rational_zero(diag, bound, budget)
        except oracles.SearchRefused as exc:
            with pytest.raises(IsotropicSearchExhausted) as got:
                orthospace._isotropic_in_diagonal(QQ, diag, bound)
            assert str(got.value) == str(exc)
            return None
        got = orthospace._isotropic_in_diagonal(QQ, diag, bound)
    assert got == want and all(type(x) is Fraction for x in got)
    return got


class TestRationalHeightSearch:
    """The prefix search against the plain product-order scan in oracles."""

    def test_zero_with_last_coordinate_zero(self):
        # x^2 - y^2 + 5 z^2: (-1, -1, 0) is the second candidate at height 1
        assert _check_search([1, -1, 5], 3, 10 ** 6) == [-1, -1, 0]

    def test_zero_from_a_prefix_below_the_shell(self):
        # 4x^2 + 9y^2 - z^2 first vanishes at (-1, 0, -2): the prefix (-1, 0)
        # has height 1, so only z = -2 and z = 2 are candidates of height 2
        assert _check_search([4, 9, -1], 3, 10 ** 6) == [-1, 0, -2]

    def test_budget_runs_out_exactly_at_a_hit(self):
        # 26 candidates at height 1, then 25 + 5 + 2 + 1 up to the zero
        assert _check_search([4, 9, -1], 3, 59) == [-1, 0, -2]
        assert _check_search([4, 9, -1], 3, 58) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(_NONZERO_Q, min_size=3, max_size=5),
       st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       st.integers(1, 3), st.booleans(), st.integers(1, 6),
       st.integers(1, 3000))
def test_rational_search_against_oracle(diag, xs, z, plant, bound, budget):
    """Same first zero, or the same refusal, as the product-order scan, on
    nonzero mixed-sign diagonals of rank 3-5; half of them get a planted
    zero (xs, z) of height at most 3."""
    if plant:
        s = sum(d * x * x for d, x in zip(diag[:-1], xs))
        if s:
            diag[-1] = -s / (z * z)
    assume(min(diag) < 0 < max(diag))
    _check_search(diag, bound, budget)


class TestStandardFormAndExtension:
    def test_standard_form_shapes(self):
        even = standard_form(F3, 2, "even")
        odd = standard_form(F3, 2, "odd")
        assert even.dim == 4 and odd.dim == 5
        assert int_gram(even) == block_diag(H, H)
        assert int_gram(odd) == block_diag(H, H, [[1]])

    def test_standard_form_validation(self):
        with pytest.raises(OutOfRange):
            standard_form(F3, 0, "even")
        with pytest.raises(OutOfRange):
            standard_form(F3, 1, "either")

    def test_extend_by_scalar(self):
        w = extend_by_scalar(standard_form(F3, 1, "odd"), -1)
        assert w.dim == 4
        assert int_gram(w) == block_diag(H, [[1]], [[2]])

    def test_extend_fraction_scalar_over_q(self):
        w = extend_by_scalar(GramSpace(QQ, [[1]]), "1/2")
        assert w.gram == Matrix(QQ, [[1, 0], [0, Fraction(1, 2)]])

    def test_extend_zero_rejected(self):
        with pytest.raises(ZeroScalar):
            extend_by_scalar(GramSpace(QQ, [[1]]), 0)


class TestIsometryCheck:
    def test_identity_and_flip(self):
        w = extend_by_scalar(standard_form(F5, 1, "odd"), 2)
        assert isometry_check(w, w, Matrix.identity(F5, 4))
        flip = Matrix.diagonal(F5, [1, 1, 1, -1])
        assert isometry_check(w, w, flip)

    def test_conjugation_by_random_invertible(self):
        import random
        rng = random.Random(2)
        space = standard_form(F5, 2, "even")
        done = 0
        while done < 10:
            b = Matrix(F5, [[rng.randrange(5) for _ in range(4)]
                            for _ in range(4)])
            if not b.is_invertible():
                continue
            done += 1
            other = GramSpace(F5, b.T * space.gram * b)
            assert isometry_check(space, other, b)

    def test_non_isometry_and_singular(self):
        s = GramSpace(F3, H)
        t = GramSpace(F3, [[1, 0], [0, 1]])
        assert not isometry_check(s, t, Matrix.identity(F3, 2))
        assert not isometry_check(s, s, Matrix.zero(F3, 2, 2))

    def test_shape_and_field_checks(self):
        with pytest.raises(DimMismatch):
            isometry_check(GramSpace(F3, H), GramSpace(F3, [[1]]),
                           Matrix.identity(F3, 2))
        with pytest.raises(DimMismatch):
            isometry_check(GramSpace(F3, H), GramSpace(F3, H),
                           Matrix.identity(F3, 3))
        with pytest.raises(MixedContexts):
            isometry_check(GramSpace(F3, H), GramSpace(F5, H),
                           Matrix.identity(F3, 2))


class TestMumfordSym2Form:
    def test_gram_matrix_over_q(self):
        s = mumford_sym2_form(QQ)
        assert s.gram == Matrix(QQ, [[0, 0, -2], [0, 1, 0], [-2, 0, 0]])

    def test_polarization_oracle(self):
        # the form must be the polarization of q(a,b,c) = b^2 - 4ac:
        # G[i][j] = (q(e_i+e_j) - q(e_i) - q(e_j)) / 2
        def q(v):
            a, b, c = v
            return b * b - 4 * a * c

        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        s = mumford_sym2_form(QQ)
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                w = tuple(a + b for a, b in zip(u, v))
                want = Fraction(q(w) - q(u) - q(v), 2)
                assert s.gram[i, j] == QQ.scalar(want)

    @pytest.mark.parametrize("p", [3, 5])
    def test_split_of_dim_3_over_prime_fields(self, p):
        s = mumford_sym2_form(GF(p))
        assert s.dim == 3 and s.nondegenerate
        assert witt_index(s) == 1  # maximal for dimension 3
        assert s.qvalue([1, 0, 0]) == GF(p).zero

    def test_split_over_q(self):
        assert witt_index(mumford_sym2_form(QQ)) == 1

    def test_isotropic_line_count_over_f3(self):
        pts = oracles.isotropic_projective_points(int_gram(mumford_sym2_form(F3)), 3)
        assert len(pts) == 4  # q + 1 points on a smooth conic


class TestFindSimilarity:
    @pytest.mark.parametrize("p", [3, 5])
    def test_mumford_to_standard_odd(self, p):
        field = GF(p)
        src = mumford_sym2_form(field)
        dst = standard_form(field, 1, "odd")
        lam, x = find_similarity(src, dst)
        assert lam != field.zero
        assert x.T * src.gram * x == lam * dst.gram

    def test_similarity_between_scaled_conjugates(self):
        import random
        rng = random.Random(4)
        field = F5
        base = standard_form(field, 1, "odd")
        done = 0
        while done < 10:
            b = Matrix(field, [[rng.randrange(5) for _ in range(3)]
                               for _ in range(3)])
            mu = rng.randrange(1, 5)
            if not b.is_invertible():
                continue
            done += 1
            other = GramSpace(field, mu * (b.T * base.gram * b))
            res = find_similarity(base, other)
            assert res is not None
            lam, x = res
            assert x.T * base.gram * x == lam * other.gram

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_factor_is_the_least_that_makes_a_square(self, p):
        # oracle: the first lam in 1..p-1 with lam * det(dst) / det(src) a
        # square (Euler's criterion); with the hyperbolic plane's det -1 it
        # is in the square class of lam * b / a for the lines <a>, <b>
        rng = random.Random(p)
        field, seen = GF(p), set()
        for _ in range(16):
            src, dst = random_form3(rng, p), random_form3(rng, p)
            t = det3(dst, p) * pow(det3(src, p), -1, p) % p
            want = next(v for v in range(1, p)
                        if pow(v * t, (p - 1) // 2, p) == 1)
            s, d = GramSpace(field, src), GramSpace(field, dst)
            lam, x = find_similarity(s, d)
            assert lam == field.scalar(want)
            assert x.T * s.gram * x == lam * d.gram
            seen.add(want)
        assert len(seen) == 2  # both square classes of b / a were drawn

    def test_validation(self):
        with pytest.raises(MixedContexts):
            find_similarity(mumford_sym2_form(F3), mumford_sym2_form(F5))
        with pytest.raises(UnsupportedContext):
            find_similarity(mumford_sym2_form(QQ), mumford_sym2_form(QQ))
        with pytest.raises(DimMismatch):
            find_similarity(GramSpace(F3, H), mumford_sym2_form(F3))
        with pytest.raises(DegenerateForm):
            find_similarity(GramSpace(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                            mumford_sym2_form(F3))
