"""Bilinear spaces and Witt decomposition, cross-checked against oracles.py."""

import itertools
import random
from fractions import Fraction

import pytest

from ortholag import (GF, QQ, AmbientMismatch, DegenerateForm, DimMismatch,
                      GramSpace, IsotropicSearchExhausted, Matrix,
                      MixedContexts, OutOfRange, Subspace, UnsupportedContext,
                      ZeroScalar, extend_by_scalar, find_similarity,
                      is_isotropic, isometry_check, mumford_sym2_form,
                      orthogonal_complement, standard_form, witt_decompose,
                      witt_index)

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
        s = GramSpace(F3, H)
        assert orthogonal_complement(
            s, Subspace.zero_subspace(F3, 2)) == Subspace.full(F3, 2)

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

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateForm):
            witt_decompose(GramSpace(F3, [[0]]))

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
        # x^2 = 2 y^2 has no rational solution; indefinite, so the search
        # runs to its height bound and must report rather than decide
        space = GramSpace(QQ, [[1, 0], [0, -2]])
        with pytest.raises(IsotropicSearchExhausted):
            witt_decompose(space, height_bound=10)

    def test_rational_height_bound_is_honored(self):
        space = GramSpace(QQ, [[1, 0], [0, -4]])
        assert witt_decompose(space, height_bound=3).witt_index == 1


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
