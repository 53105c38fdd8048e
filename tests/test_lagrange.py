"""Lagrangian enumeration, components, lifts, and the corank law."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortholag import (GF, QQ, AmbientMismatch, CapExceeded, DegenerateForm,
                      DegenerateRestriction, DimMismatch, GramSpace, Matrix,
                      NonSplitExtension, NotLagrangian, NotSplit, OddAmbient,
                      OrtholagError, OutOfRange, Subspace, UnsupportedContext,
                      complement_corank_law, component_of,
                      enumerate_lagrangians, extend_by_scalar,
                      flip_automorphism, is_lagrangian, isometry_check,
                      lagrangian_count, lift_odd_to_even, og_tangent_dim,
                      restrict_even_to_odd, standard_form)

import oracles

F3 = GF(3)
F5 = GF(5)

H = [[0, 1], [1, 0]]


def int_rows(sub):
    return tuple(tuple(x.value for x in row) for row in sub.basis.entries)


def int_gram(space):
    return [[x.value % space.field.p for x in row]
            for row in space.gram.entries]


def og_count(n, q, even):
    """Point count of the orthogonal Grassmannian over F_q."""
    if even:
        out = 2
        for i in range(1, n):
            out *= q ** i + 1
    else:
        out = 1
        for i in range(1, n + 1):
            out *= q ** i + 1
    return out


class TestEnumeration:
    @pytest.mark.parametrize("q,n,shape,count", [
        (3, 1, "even", 2), (3, 2, "even", 8), (3, 3, "even", 80),
        (3, 1, "odd", 4), (3, 2, "odd", 40),
        (5, 1, "odd", 6), (5, 2, "odd", 156),
    ])
    def test_counts_and_exact_sets(self, q, n, shape, count):
        space = standard_form(GF(q), n, shape)
        got = enumerate_lagrangians(space)
        assert len(got) == count
        assert count == og_count(n, q, shape == "even")
        assert all(is_lagrangian(space, s) for s in got)
        # full subspace scan oracle, independent of the package recursion
        want = oracles.lagrangian_bases(int_gram(space), q)
        assert {int_rows(s) for s in got} == want

    @pytest.mark.parametrize("q,n,shape", [(3, 3, "odd"), (5, 3, "even")])
    def test_beyond_the_subspace_scan(self, q, n, shape):
        # too large for the oracle scan; F_3 in dimension 7 is the case where
        # a complement read off non-reduced rows yields duplicates
        space = standard_form(GF(q), n, shape)
        got = enumerate_lagrangians(space)
        assert len(got) == og_count(n, q, shape == "even")
        assert len(set(got)) == len(got)
        assert all(is_lagrangian(space, s) for s in got)
        assert got == sorted(got, key=lambda s: s.key)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_conjugated_split_forms_match_oracle(self, data):
        p = data.draw(st.sampled_from((3, 5)))
        d = data.draw(st.integers(2, 5))
        g = [[int(i // 2 == j // 2 and i != j) for j in range(d)]
             for i in range(d)]
        if d % 2:
            g[-1][-1] = data.draw(st.integers(1, p - 1))
        row = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
        b = data.draw(st.lists(row, min_size=d, max_size=d).filter(
            lambda m: oracles.rank_mod_p(m, p) == d))
        gram = [[sum(b[i][k] * g[k][l] * b[j][l]
                     for k in range(d) for l in range(d)) % p
                 for j in range(d)] for i in range(d)]
        got = enumerate_lagrangians(GramSpace(GF(p), gram))
        assert len(set(got)) == len(got)
        assert {int_rows(s) for s in got} == oracles.lagrangian_bases(gram, p)

    def test_order_is_canonical_and_stable(self):
        space = standard_form(F3, 2, "even")
        first = enumerate_lagrangians(space)
        second = enumerate_lagrangians(space)
        assert first == second
        assert first == sorted(first, key=lambda s: s.key)

    def test_nonstandard_split_gram(self):
        # identity of rank 4 over F_3 has square discriminant, hence split
        space = GramSpace(F3, Matrix.diagonal(F3, [1] * 4))
        got = enumerate_lagrangians(space)
        assert len(got) == 8
        assert {int_rows(s) for s in got} == oracles.lagrangian_bases(
            int_gram(space), 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_lagrangians(standard_form(F3, 2, "even"), cap=3)

    def test_not_split(self):
        with pytest.raises(NotSplit):
            enumerate_lagrangians(GramSpace(F3, [[1, 0], [0, 1]]))

    def test_degenerate(self):
        with pytest.raises(DegenerateForm):
            enumerate_lagrangians(GramSpace(F3, [[1, 0], [0, 0]]))

    def test_rationals_unsupported(self):
        with pytest.raises(UnsupportedContext):
            enumerate_lagrangians(GramSpace(QQ, H))


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class TestClosedFormCount:
    @pytest.mark.parametrize("q", [3, 5, 7])
    @pytest.mark.parametrize("n,shape", [(1, "even"), (1, "odd"), (2, "even"),
                                         (2, "odd"), (3, "even")])
    def test_matches_enumeration(self, q, n, shape):
        space = standard_form(GF(q), n, shape)
        assert lagrangian_count(q, n, shape) == len(enumerate_lagrangians(space))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 1009])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_q_binomial_sum(self, q, n):
        # one term per dimension k of the meet with a fixed Lagrangian
        even = sum(gaussian_binomial(n, k, q) * q ** ((n - k) * (n - k - 1) // 2)
                   for k in range(n + 1))
        odd = sum(gaussian_binomial(n, k, q) * q ** ((n - k) * (n - k + 1) // 2)
                  for k in range(n + 1))
        assert lagrangian_count(q, n, "even") == even
        assert lagrangian_count(q, n, "odd") == odd

    def test_refusals(self):
        with pytest.raises(OutOfRange):
            lagrangian_count(3, 0, "even")
        with pytest.raises(OutOfRange):
            lagrangian_count(3, 2, "mixed")


class TestIsLagrangianAndTangent:
    def test_examples(self):
        space = standard_form(F3, 2, "even")
        assert is_lagrangian(space, Subspace.span(F3, 4, [[1, 0, 0, 0],
                                                          [0, 0, 1, 0]]))
        # isotropic but not maximal
        assert not is_lagrangian(space, Subspace.span(F3, 4, [[1, 0, 0, 0]]))
        # maximal dimension but not isotropic
        assert not is_lagrangian(space, Subspace.span(F3, 4, [[1, 0, 0, 0],
                                                              [0, 1, 0, 0]]))

    def test_degenerate_space(self):
        with pytest.raises(DegenerateForm):
            is_lagrangian(GramSpace(F3, [[0]]), Subspace.span(F3, 1, []))

    def test_tangent_dim(self):
        assert og_tangent_dim(1) == 1
        assert og_tangent_dim(2) == 3
        assert og_tangent_dim(4) == 10
        with pytest.raises(OutOfRange):
            og_tangent_dim(0)


class TestComponents:
    def test_parity_rule_exhaustive_dim4(self):
        space = standard_form(F3, 2, "even")
        ls = enumerate_lagrangians(space)
        for f, ref in itertools.product(ls, repeat=2):
            lab = component_of(space, f, ref)
            same = (oracles.intersection_dim_mod_p(
                int_rows(f), int_rows(ref), 3) - 2) % 2 == 0
            assert lab.same == same
            assert lab.reference == ref
            with pytest.raises(AttributeError):
                lab.label = "other"

    def test_two_classes_of_equal_size(self):
        space = standard_form(F3, 2, "even")
        ls = enumerate_lagrangians(space)
        ref = ls[0]
        same = [f for f in ls if component_of(space, f, ref).same]
        assert len(same) == len(ls) // 2

    def test_equivalence_relation(self):
        space = standard_form(F3, 2, "even")
        ls = enumerate_lagrangians(space)
        for f in ls:
            assert component_of(space, f, f).same
        for f, g in itertools.combinations(ls, 2):
            assert (component_of(space, f, g).same
                    == component_of(space, g, f).same)
        for f, g, h in itertools.combinations(ls, 3):
            fg = component_of(space, f, g).same
            gh = component_of(space, g, h).same
            fh = component_of(space, f, h).same
            assert fh == (fg == gh)

    def test_errors(self):
        even = standard_form(F3, 2, "even")
        odd = standard_form(F3, 1, "odd")
        f = enumerate_lagrangians(even)[0]
        with pytest.raises(OddAmbient):
            component_of(odd, Subspace.span(F3, 3, [[1, 0, 0]]),
                         Subspace.span(F3, 3, [[1, 0, 0]]))
        with pytest.raises(NotLagrangian):
            component_of(even, Subspace.span(F3, 4, [[1, 0, 0, 0]]), f)
        with pytest.raises(NotLagrangian):
            component_of(even, f, Subspace.span(F3, 4, [[0, 1, 0, 0],
                                                        [1, 0, 0, 0]]))


class TestLifts:
    def test_f5_example(self):
        space = standard_form(F5, 1, "odd")
        e = Subspace.span(F5, 3, [[1, 0, 0]])
        pair = lift_odd_to_even(space, e, 1)
        assert int_rows(pair.plus_lift) == ((1, 0, 0, 0), (0, 0, 1, 2))
        assert int_rows(pair.minus_lift) == ((1, 0, 0, 0), (0, 0, 1, 3))

    def test_rational_example(self):
        space = standard_form(QQ, 1, "odd")
        e = Subspace.span(QQ, 3, [[1, 0, 0]])
        pair = lift_odd_to_even(space, e, -1)
        assert int_rows(pair.plus_lift) == ((1, 0, 0, 0), (0, 0, 1, -1))
        assert int_rows(pair.minus_lift) == ((1, 0, 0, 0), (0, 0, 1, 1))

    def test_anisotropic_extension_raises(self):
        space = standard_form(F3, 1, "odd")
        e = Subspace.span(F3, 3, [[1, 0, 0]])
        with pytest.raises(NonSplitExtension):
            lift_odd_to_even(space, e, 1)

    def test_rational_lifts_are_decided_exactly(self):
        space = standard_form(QQ, 1, "odd")
        e = Subspace.span(QQ, 3, [[1, 0, 0]])
        # -Q(u) c = 2 is not a rational square
        with pytest.raises(NonSplitExtension, match="no Lagrangian lift"):
            lift_odd_to_even(space, e, -2)
        # 10201 = 101^2: the isotropic lines u +- w/101 lie above height 50
        pair = lift_odd_to_even(space, e, -10201)
        r = Fraction(1, 101)
        assert int_rows(pair.plus_lift) == ((1, 0, 0, 0), (0, 0, 1, -r))
        assert int_rows(pair.minus_lift) == ((1, 0, 0, 0), (0, 0, 1, r))
        w = extend_by_scalar(space, -10201)
        assert is_lagrangian(w, pair.plus_lift)
        assert is_lagrangian(w, pair.minus_lift)

    @pytest.mark.parametrize("q", [3, 5, 7])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_lifts_are_the_lagrangians_through_e(self, q, conjugated):
        # against a full subspace scan of the extension, for every c in F_q^*
        field = GF(q)
        space = standard_form(field, 1, "odd")
        if conjugated:
            rng = random.Random(q)
            while True:
                b = Matrix(field, [[rng.randrange(q) for _ in range(3)]
                                   for _ in range(3)])
                if b.is_invertible():
                    break
            space = GramSpace(field, b.T * space.gram * b)
        odd_ls = enumerate_lagrangians(space)
        assert len(odd_ls) == q + 1
        for c in range(1, q):
            w_bases = oracles.lagrangian_bases(
                int_gram(extend_by_scalar(space, c)), q)
            for e in odd_ls:
                e_w = [list(r) + [0] for r in int_rows(e)]
                want = {f for f in w_bases if all(
                    oracles.span_contains_mod_p(f, r, q) for r in e_w)}
                if not want:
                    with pytest.raises(NonSplitExtension):
                        lift_odd_to_even(space, e, c)
                    continue
                pair = lift_odd_to_even(space, e, c)
                assert {int_rows(pair.plus_lift),
                        int_rows(pair.minus_lift)} == want
                assert len(want) == 2
                assert pair.plus_lift.key < pair.minus_lift.key

    def test_lift_makes_no_witt_decomposition(self, monkeypatch):
        import ortholag.lagrange as lagrange
        import ortholag.orthospace as orthospace

        def refuse(*args, **kwargs):
            raise AssertionError("witt_decompose called by a lift")

        monkeypatch.setattr(lagrange, "witt_decompose", refuse)
        monkeypatch.setattr(orthospace, "witt_decompose", refuse)
        assert not hasattr(lagrange, "_isotropic_reduction")
        for field, c in ((F5, 1), (F3, -1), (QQ, Fraction(-4, 9))):
            space = standard_form(field, 2, "odd")
            e = Subspace.span(field, 5, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
            pair = lift_odd_to_even(space, e, c)
            assert pair.plus_lift != pair.minus_lift
        with pytest.raises(NonSplitExtension):
            lift_odd_to_even(standard_form(F3, 1, "odd"),
                             Subspace.span(F3, 3, [[1, 0, 0]]), 1)

    def test_validation(self):
        even = standard_form(F3, 2, "even")
        odd = standard_form(F3, 1, "odd")
        with pytest.raises(DimMismatch):
            lift_odd_to_even(even, Subspace.span(F3, 4, [[1, 0, 0, 0],
                                                         [0, 0, 1, 0]]), 1)
        with pytest.raises(AmbientMismatch):
            lift_odd_to_even(odd, Subspace.span(F3, 4, [[1, 0, 0, 0]]), 1)
        with pytest.raises(NotLagrangian):
            lift_odd_to_even(odd, Subspace.span(F3, 3, [[0, 0, 1]]), -1)

    @pytest.mark.parametrize("n,q,c", [(1, 3, -1), (1, 5, 1), (2, 3, -1)])
    def test_round_trip_and_components(self, n, q, c):
        field = GF(q)
        space = standard_form(field, n, "odd")
        w = extend_by_scalar(space, c)
        d = space.dim
        embed = Subspace.span(field, d + 1,
                              [[1 if j == i else 0 for j in range(d + 1)]
                               for i in range(d)])
        flip = flip_automorphism(w)
        for e in enumerate_lagrangians(space):
            pair = lift_odd_to_even(space, e, c)
            for f in (pair.plus_lift, pair.minus_lift):
                assert is_lagrangian(w, f)
                assert restrict_even_to_odd(w, embed, f) == e
            assert not component_of(w, pair.plus_lift, pair.minus_lift).same
            assert pair.plus_lift.apply(flip) == pair.minus_lift
            assert pair.minus_lift.apply(flip) == pair.plus_lift

    @pytest.mark.parametrize("n,q,c", [(1, 3, -1), (1, 5, 1), (2, 3, -1)])
    def test_restriction_is_two_to_one(self, n, q, c):
        field = GF(q)
        space = standard_form(field, n, "odd")
        w = extend_by_scalar(space, c)
        d = space.dim
        embed = Subspace.span(field, d + 1,
                              [[1 if j == i else 0 for j in range(d + 1)]
                               for i in range(d)])
        odd_ls = enumerate_lagrangians(space)
        even_ls = enumerate_lagrangians(w)
        assert len(even_ls) == 2 * len(odd_ls)
        fibers = {}
        for f in even_ls:
            fibers.setdefault(restrict_even_to_odd(w, embed, f), []).append(f)
        assert set(fibers) == set(odd_ls)
        for e, fs in fibers.items():
            pair = lift_odd_to_even(space, e, c)
            assert sorted(fs, key=lambda s: s.key) == sorted(
                [pair.plus_lift, pair.minus_lift], key=lambda s: s.key)

    @pytest.mark.parametrize("n,q,c", [(1, 3, -1), (1, 5, 1)])
    def test_lift_intersection_dimension_law(self, n, q, c):
        field = GF(q)
        space = standard_form(field, n, "odd")
        w = extend_by_scalar(space, c)
        odd_ls = enumerate_lagrangians(space)
        lifted = {e: lift_odd_to_even(space, e, c) for e in odd_ls}
        for e, e2 in itertools.product(odd_ls, repeat=2):
            r = e.intersection(e2).dim
            for f in lifted[e].plus_lift, lifted[e].minus_lift:
                for f2 in lifted[e2].plus_lift, lifted[e2].minus_lift:
                    k = f.intersection(f2).dim
                    assert k in (r, r + 1)
                    same = component_of(w, f, f2).same
                    assert same == (k % 2 == (n + 1) % 2)


class TestRestriction:
    def test_degenerate_restriction(self):
        space = GramSpace(F3, [[0, 1, 0, 0], [1, 0, 0, 0],
                               [0, 0, 0, 1], [0, 0, 1, 0]])
        bad = Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        f = Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        with pytest.raises(DegenerateRestriction):
            restrict_even_to_odd(space, bad, f)

    def test_validation(self):
        even = extend_by_scalar(standard_form(F3, 1, "odd"), -1)
        odd = standard_form(F3, 1, "odd")
        good_embed = Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])
        f = enumerate_lagrangians(even)[0]
        full3 = Subspace.span(F3, 3, oracles.identity_rows(3))
        full4 = Subspace.span(F3, 4, oracles.identity_rows(4))
        with pytest.raises(OddAmbient):
            restrict_even_to_odd(odd, full3, Subspace.span(F3, 3, [[1, 0, 0]]))
        with pytest.raises(AmbientMismatch):
            restrict_even_to_odd(even, full3, f)
        with pytest.raises(DimMismatch):
            restrict_even_to_odd(even, full4, f)
        with pytest.raises(NotLagrangian):
            restrict_even_to_odd(even, good_embed,
                                 Subspace.span(F3, 4, [[1, 0, 0, 0],
                                                       [0, 1, 0, 0]]))


class TestFlip:
    def test_is_an_involutive_isometry(self):
        w = extend_by_scalar(standard_form(F5, 1, "odd"), 2)
        flip = flip_automorphism(w)
        assert isometry_check(w, w, flip)
        assert flip * flip == Matrix.diagonal(F5, [1] * 4)

    def test_rejects_coupled_last_vector(self):
        # a typed domain error that is still a ValueError, also for dim 0
        msg = "last basis vector is not orthogonal to the rest"
        for space in (GramSpace(F3, H), GramSpace(QQ, [])):
            with pytest.raises(OutOfRange, match=msg) as info:
                flip_automorphism(space)
            assert isinstance(info.value, OrtholagError)
            assert isinstance(info.value, ValueError)


class TestCorankLaw:
    def test_spec_style_examples(self):
        space = standard_form(F3, 1, "odd")
        e = Subspace.span(F3, 3, [[1, 0, 0]])
        f = Subspace.span(F3, 3, [[0, 1, 0]])
        assert complement_corank_law(space, e, f) == (0, 1)
        assert complement_corank_law(space, e, e) == (1, 2)

    def test_equal_lagrangians_dim5(self):
        space = standard_form(F3, 2, "odd")
        e = enumerate_lagrangians(space)[0]
        assert complement_corank_law(space, e, e) == (2, 3)

    def test_exhaustive_dim3_with_oracle(self):
        space = standard_form(F3, 1, "odd")
        gram = int_gram(space)
        ls = enumerate_lagrangians(space)
        for e, f in itertools.product(ls, repeat=2):
            rec = complement_corank_law(space, e, f)
            assert rec.h == rec.r + 1
            re, rf = int_rows(e), int_rows(f)
            assert rec.r == oracles.intersection_dim_mod_p(re, rf, 3)
            pe = oracles.orth_complement_mod_p(re, gram, 3)
            pf = oracles.orth_complement_mod_p(rf, gram, 3)
            assert rec.h == oracles.intersection_dim_mod_p(pe, pf, 3)

    def test_sampled_dim5_with_oracle(self):
        space = standard_form(F3, 2, "odd")
        gram = int_gram(space)
        ls = enumerate_lagrangians(space)
        rng = random.Random(7)
        for _ in range(60):
            e, f = rng.choice(ls), rng.choice(ls)
            rec = complement_corank_law(space, e, f)
            assert rec.h == rec.r + 1
            pe = oracles.orth_complement_mod_p(int_rows(e), gram, 3)
            pf = oracles.orth_complement_mod_p(int_rows(f), gram, 3)
            assert rec.h == oracles.intersection_dim_mod_p(pe, pf, 3)

    def test_not_lagrangian(self):
        space = standard_form(F3, 1, "odd")
        e = Subspace.span(F3, 3, [[1, 0, 0]])
        with pytest.raises(NotLagrangian):
            complement_corank_law(space, e, Subspace.span(F3, 3, [[0, 0, 1]]))
