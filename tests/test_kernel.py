"""The raw elimination kernel behind the public linalg API, against oracles.py.

rref, kernel, Subspace.span and intersection are checked over F_p for small
and large p and over Q.  Every value inside a result must be canonical: an
int in [0, p) over F_p and a Fraction over Q.  Structural Subspace equality
depends on it, since an unreduced -x or an int among Fractions would make
equal subspaces compare or hash differently.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ortholag import (GF, QQ, GramSpace, Matrix, Subspace,
                      orthogonal_complement, witt_decompose)

import oracles

PRIMES = (3, 5, 7919, 1000003)
FIELDS = [GF(p) for p in PRIMES] + [QQ]


def assert_canonical(field, rows):
    for row in rows:
        for x in row:
            if field.p:
                assert type(x.value) is int and 0 <= x.value < field.p
            else:
                assert type(x.value) is Fraction


def values(rows):
    return tuple(tuple(x.value for x in r) for r in rows)


def oracle_rref(field, rows):
    if field.p:
        return oracles.rref_mod_p(rows, field.p)
    return oracles.rref_fractions(rows)


@st.composite
def row_lists(draw, field, ncols, max_rows=5):
    """Rows over field, unreduced, with a dependent row now and then."""
    if field.p:
        p = field.p
        entry = st.one_of(st.integers(-3, 3), st.integers(-2 * p, 2 * p))
    else:
        entry = st.fractions(-6, 6, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max_rows))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


@st.composite
def fields_and_rows(draw, max_rows=5):
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 6))
    return field, ncols, draw(row_lists(field, ncols, max_rows))


@settings(max_examples=150, deadline=None)
@given(fields_and_rows())
def test_rref_matches_oracle(case):
    field, _, rows = case
    red, pivots = Matrix(field, rows).rref()
    want_rows, want_pivots = oracle_rref(field, rows)
    assert pivots == want_pivots
    assert values(red.entries)[: len(want_rows)] == want_rows
    assert all(not any(r) for r in values(red.entries)[len(want_rows):])
    assert Matrix(field, rows).rank() == len(want_pivots)
    assert_canonical(field, red.entries)


@settings(max_examples=150, deadline=None)
@given(fields_and_rows())
def test_kernel_matches_oracle(case):
    field, ncols, rows = case
    k = Matrix(field, rows).kernel()
    assert_canonical(field, k.entries)
    got = values(k.entries)
    if field.p:
        assert got == oracles.nullspace_mod_p(rows, field.p, ncols=ncols)
        return
    # over Q: canonical, of the right dimension and inside the null space
    rank = len(oracles.rref_fractions(rows)[1])
    assert len(got) == ncols - rank
    if got:
        assert oracles.rref_fractions(got)[0] == got
    for v in got:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


@settings(max_examples=150, deadline=None)
@given(fields_and_rows())
def test_span_matches_oracle(case):
    field, ncols, rows = case
    s = Subspace.span(field, ncols, rows)
    assert values(s.basis.entries) == oracle_rref(field, rows)[0]
    assert_canonical(field, s.basis.entries)
    assert s == Subspace.span(field, ncols, s.basis.entries)


def _rank(field, rows):
    return len(oracle_rref(field, rows)[1]) if rows else 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersection_matches_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    ncols = data.draw(st.integers(1, 6))
    a_rows = data.draw(row_lists(field, ncols, 4))
    b_rows = data.draw(row_lists(field, ncols, 4))
    a = Subspace.span(field, ncols, a_rows)
    b = Subspace.span(field, ncols, b_rows)
    both = a.intersection(b)
    assert_canonical(field, both.basis.entries)
    got = values(both.basis.entries)
    # dimension law, from ranks computed by the oracle alone
    assert both.dim == (_rank(field, a_rows) + _rank(field, b_rows)
                        - _rank(field, a_rows + b_rows))
    if got:
        assert oracle_rref(field, got)[0] == got
    for v in got:
        for rows in (a_rows, b_rows):
            assert _rank(field, rows + [list(v)]) == _rank(field, rows)
    assert both == b.intersection(a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_forms_keep_values_canonical(data):
    """Witt decomposition and complements start from identity rows, where an
    int could slip in among Fractions; over F_p an unreduced negative could."""
    field = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 4))
    if field.p:
        p = field.p
        entry = st.integers(-p, p)
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                g[i][j] = g[j][i] = data.draw(entry)
    else:
        # diagonal entries that are squares up to sign: definite forms are
        # decided at once, indefinite ones split by the height search
        g = [[data.draw(st.sampled_from((-4, -1, 1, Fraction(1, 4))))
              if i == j else 0 for j in range(d)] for i in range(d)]
    space = GramSpace(field, g)
    if not space.nondegenerate:
        return
    wd = witt_decompose(space)
    for m in (wd.change_of_basis, wd.block_gram, wd.anisotropic_part.gram):
        assert_canonical(field, m.entries)
    assert_canonical(field, [wd.change_of_basis.inverse().entries[0]])
    line = Subspace.span(field, d, [wd.basis_rows[0]])
    perp = orthogonal_complement(space, line)
    assert_canonical(field, perp.basis.entries)
    assert perp.dim == d - 1
    assert_canonical(field, [perp.coordinates(r) for r in perp.basis.entries])
