"""Acceptance gate: the shipped guarantees, each checked within its budget.

Each criterion prints one PASS/FAIL line with its elapsed time.  Run either
through pytest (use -s to see the lines) or standalone:

    python tests/test_acceptance.py

Counts and tables asserted here are independent literals, and the enumeration
and Witt-index cross-checks use the reference implementations in oracles.py
rather than any package code path.
"""

import itertools
import sys
import time
from fractions import Fraction

from ortholag import (GF, QQ, GramSpace, NonSplitExtension, component_of,
                      enumerate_lagrangians,
                      extend_by_scalar, complement_corank_law,
                      find_similarity, flip_automorphism, isometry_check,
                      lift_odd_to_even, mumford_sym2_form,
                      restrict_even_to_odd, standard_form, witt_decompose,
                      witt_index)
from ortholag.linalg import Subspace
from ortholag.strata import (CurveParams, dim_max_lagrangians, h0_wedge2,
                             hirschowitz_exceptions, hn_bound, mod4_table,
                             moduli_dim, param_space_dim, sharp_bound,
                             stratum_dim)

import oracles


def _run(num, desc, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL: criterion {num} - {desc}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {desc} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def int_rows(sub):
    return tuple(tuple(x.value for x in row) for row in sub.basis.entries)


def int_gram(space):
    return [[x.value % space.field.p for x in row]
            for row in space.gram.entries]


# ---------------------------------------------------------------- criterion 1

GENERAL_TABLES = {
    (3, 1): ((4, "+", 0), (6, "-", 1)),
    (4, 2): ((10, "-", 1), (12, "+", 3)),
    (3, 2): ((6, "-", 0), (8, "+", 2)),
    (2, 2): ((4, "+", 1), (6, "-", 3)),
}


def _crit1():
    for (g, n), want in GENERAL_TABLES.items():
        rows = mod4_table(CurveParams(g=g, n=n))
        got = tuple((r.t, r.component, r.dim_max_lagrangians) for r in rows)
        assert got == want, f"(g={g}, n={n}): {got} != {want}"


def test_criterion_1():
    _run(1, "general-bundle tables for (3,1), (4,2), (3,2), (2,2)", 1.0,
         _crit1)


# ---------------------------------------------------------------- criterion 2

def _crit2():
    assert sharp_bound(CurveParams(2, 1)) == 5
    assert hn_bound(CurveParams(3, 2)) == 18
    for g in range(2, 51):
        for n in range(2, 51):
            p = CurveParams(g, n)
            assert sharp_bound(p) <= hn_bound(p), (g, n)


def test_criterion_2():
    _run(2, "sharp bound dominated by the rank bound for g, n up to 50", 1.0,
         _crit2)


# ---------------------------------------------------------------- criterion 3

def _crit3():
    want = set()
    for n in range(1, 21):
        want.add((2, n, n + 1 if n % 2 else n + 2))
        want.add((3, n, 2 * (n + 1)))
        if n % 2 and n >= 3:
            want.add((4, n, 3 * (n + 1)))
    got = hirschowitz_exceptions(10, 20)
    assert len(got) == len(set(got)) == 49
    assert set(got) == want


def test_criterion_3():
    _run(3, "exception scan over g <= 10, n <= 20 equals the known families",
         1.0, _crit3)


# ---------------------------------------------------------------- criterion 4

def _crit4():
    for n, count in ((2, 8), (3, 80)):
        space = standard_form(GF(3), n, "even")
        ls = enumerate_lagrangians(space)
        assert len(ls) == count
        # independent count: full scan of all n-dim subspaces of F_3^(2n)
        assert {int_rows(s) for s in ls} == oracles.lagrangian_bases(
            int_gram(space), 3)
        ref = ls[0]
        labels = {f: component_of(space, f, ref).same for f in ls}
        assert sum(labels.values()) == count // 2
        for f, g in itertools.product(ls, repeat=2):
            assert component_of(space, f, g).same == (labels[f] == labels[g])


def test_criterion_4():
    _run(4, "two equal parity classes over F_3 in dimensions 4 and 6", 30.0,
         _crit4)


# ---------------------------------------------------------------- criterion 5

def _crit5():
    for n, q, c in ((1, 3, -1), (1, 5, 1), (2, 3, -1)):
        field = GF(q)
        odd = standard_form(field, n, "odd")
        even = extend_by_scalar(odd, c)
        d = odd.dim
        embed = Subspace.span(field, d + 1,
                              [[1 if j == i else 0 for j in range(d + 1)]
                               for i in range(d)])
        odd_ls = enumerate_lagrangians(odd)
        even_ls = enumerate_lagrangians(even)
        product = 1
        for i in range(1, n + 1):
            product *= q ** i + 1
        assert len(odd_ls) == product
        assert len(even_ls) == 2 * product

        fibers = {}
        for f in even_ls:
            fibers.setdefault(restrict_even_to_odd(even, embed, f),
                              []).append(f)
        assert set(fibers) == set(odd_ls)
        assert all(len(fs) == 2 for fs in fibers.values())

        flip = flip_automorphism(even)
        ref = even_ls[0]
        same_count = 0
        for e, (f1, f2) in fibers.items():
            pair = lift_odd_to_even(odd, e, c)
            assert {f1, f2} == {pair.plus_lift, pair.minus_lift}
            assert not component_of(even, f1, f2).same
            assert f1.apply(flip) == f2 and f2.apply(flip) == f1
            same_count += component_of(even, f1, ref).same
            same_count += component_of(even, f2, ref).same
        # each component is hit once per fiber, so one component of the
        # even Grassmannian has exactly as many points as the odd one
        assert same_count == product


def test_criterion_5():
    _run(5, "odd/even correspondence is 2:1 with flip swapping components",
         60.0, _crit5)


# ---------------------------------------------------------------- criterion 6

def _crit6():
    space = standard_form(GF(3), 2, "odd")
    ls = enumerate_lagrangians(space)
    assert len(ls) == 40
    for e, f in itertools.product(ls, repeat=2):
        rec = complement_corank_law(space, e, f)
        assert rec.h == rec.r + 1, (int_rows(e), int_rows(f), rec)


def test_criterion_6():
    _run(6, "corank law h = r + 1 over all 1600 ordered pairs in dim 5", 60.0,
         _crit6)


# ---------------------------------------------------------------- criterion 7

def _crit7():
    cases = oracles.random_symmetric_grams(200, seed=0, qs=(3, 5), max_dim=6)
    assert len(cases) == 200
    for q, gram in cases:
        field = GF(q)
        space = GramSpace(field, gram)
        wd = witt_decompose(space)
        assert isometry_check(space, GramSpace(field, wd.block_gram),
                              wd.change_of_basis)
        assert wd.witt_index == oracles.max_isotropic_dim(gram, q), (q, gram)


def test_criterion_7():
    _run(7, "200 random Witt decompositions verified by exhaustive search",
         60.0, _crit7)


# ---------------------------------------------------------------- criterion 8

def _crit8():
    for g in range(2, 51):
        for n in range(1, 51):
            p = CurveParams(g, n)
            if p.N % 2 == 0:
                assert stratum_dim(p, p.N) == moduli_dim(p)
            for e in range((p.N + 1) // 2, (p.N + 3) // 2 + 1):
                t = 2 * e
                if 0 < t <= p.N + 3:
                    assert dim_max_lagrangians(p, t) == h0_wedge2(p, e)
            for e in range(0, 4):
                dims = param_space_dim(p, e)
                assert dims.total == (n * n * (g - 1) + 1) + (
                    dims.h1_bundle - 1) + dims.h1_wedge2


def test_criterion_8():
    _run(8, "stratum, family and parameter-space dimensions agree to g,n=50",
         1.0, _crit8)


# ---------------------------------------------------------------- criterion 9

def _crit9():
    for field in (GF(3), GF(5), QQ):
        s = mumford_sym2_form(field)
        assert s.dim == 3 and s.nondegenerate
        assert witt_index(s) == 1
    for q in (3, 5):
        field = GF(q)
        src = mumford_sym2_form(field)
        dst = standard_form(field, 1, "odd")
        res = find_similarity(src, dst)
        assert res is not None
        lam, x = res
        assert lam != field.zero
        assert x.T * src.gram * x == lam * dst.gram


def test_criterion_9():
    _run(9, "squared-discriminant form is split and similar to the "
            "standard conic", 10.0, _crit9)


# --------------------------------------------------------------- criterion 10

def _crit10():
    # x^2 - 2y^2 and 3x^2 - 5y^2 have no rational zero: -d1*d2 = 2, 15
    for d1, d2 in ((1, -2), (3, -5)):
        wd = witt_decompose(GramSpace(QQ, [[d1, 0], [0, d2]]))
        assert wd.witt_index == 0 and wd.anisotropic_part.dim == 2
    odd = standard_form(QQ, 1, "odd")
    e = Subspace.span(QQ, 3, [[1, 0, 0]])
    try:
        lift_odd_to_even(odd, e, -2)
    except NonSplitExtension:
        pass
    else:
        raise AssertionError("c = -2 must be a non-split extension")
    pair = lift_odd_to_even(odd, e, -10201)  # 10201 = 101^2
    r = Fraction(1, 101)
    assert int_rows(pair.plus_lift) == ((1, 0, 0, 0), (0, 0, 1, -r))
    assert int_rows(pair.minus_lift) == ((1, 0, 0, 0), (0, 0, 1, r))
    # 53^2 x^2 - 61^2 y^2 vanishes first at (61, 53), above height 50
    space = GramSpace(QQ, [[53 ** 2, 0], [0, -61 ** 2]])
    wd = witt_decompose(space)
    assert wd.witt_index == 1
    x, y = (v.value for v in wd.basis_rows[0])
    assert 53 ** 2 * x * x == 61 ** 2 * y * y and x != 0
    assert isometry_check(space, GramSpace(QQ, wd.block_gram),
                          wd.change_of_basis)


def test_criterion_10():
    _run(10, "binary forms and lifts over Q decided exactly, also above "
             "the height bound", 1.0, _crit10)


def main():
    tests = sorted(((int(name.rsplit("_", 1)[1]), fn)
                    for name, fn in globals().items()
                    if name.startswith("test_criterion_")),
                   key=lambda t: t[0])
    failed = 0
    for _, fn in tests:
        try:
            fn()
        except BaseException as exc:
            failed += 1
            print(f"  -> {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
