"""Lagrangian subspaces of split orthogonal spaces.

Covers enumeration over small prime fields by the cells of a Witt basis,
each Lagrangian produced once, the two component structure of the even
orthogonal Grassmannian (read off from intersection parity against a
reference), the two Lagrangian lifts of an odd space's Lagrangian into a
rank-one extension, and the reverse restriction map.
"""

import itertools
from typing import NamedTuple

from .errors import (AmbientMismatch, CapExceeded, DegenerateForm,
                     DegenerateRestriction, DimMismatch, NonSplitExtension,
                     NotLagrangian, NotSplit, OddAmbient, OutOfRange,
                     UnsupportedContext)
from .fields import _inv
from .linalg import (Matrix, Subspace, _dot, _matmul, _raw, _rref, _scale,
                     _units, _vec_mat)
from .orthospace import (_binary_zero, _extension_scalar, _split_dim,
                         is_isotropic, orthogonal_complement, standard_form,
                         witt_decompose)

DEFAULT_ENUM_CAP = 8

SAME = "same"
OTHER = "other"


class ComponentLabel(NamedTuple):
    """Which component a Lagrangian lies in, relative to a reference."""

    reference: object
    label: str

    @property
    def same(self):
        return self.label == SAME


class LiftPair(NamedTuple):
    """The two Lagrangian lifts into a rank-one extension; flip swaps them."""

    plus_lift: object
    minus_lift: object


class CorankRecord(NamedTuple):
    r: int  # dim of the intersection of the two Lagrangians
    h: int  # dim of the intersection of their orthogonal complements


def is_lagrangian(space, s):
    """Maximal isotropic test: isotropic of dimension floor(dim/2)."""
    if not space.nondegenerate:
        raise DegenerateForm("Lagrangians are defined for nondegenerate forms")
    return s.dim == space.dim // 2 and is_isotropic(space, s)


def og_tangent_dim(n):
    """Tangent space dimension n(n+1)/2 of the orthogonal Grassmannian."""
    if n < 1:
        raise OutOfRange("n must be at least 1")
    return n * (n + 1) // 2


def _cells(gram, start, p):
    """Raw rows spanning each Lagrangian of Witt coordinates start.., once.

    gram is the raw block Gram matrix over F_p.  With (e, f) the hyperbolic
    pair at start and M a Lagrangian of the later coordinates U, the
    Lagrangians are e + M and, for each w in U vanishing on the RREF pivots
    of M, the span of m - B(w,m) e (m in M) and f + w - Q(w)/2 e.
    """
    d = len(gram)
    if d - start < 2:
        yield []
        return
    half = _inv(2, p)
    e = [1 if j == start else 0 for j in range(d)]
    for m_rows in _cells(gram, start + 2, p):
        yield [e] + m_rows
        pivots = _rref(m_rows, p)[1]
        free = [j for j in range(start + 2, d) if j not in pivots]
        for vals in itertools.product(range(p), repeat=len(free)):
            w = [0] * d
            for j, x in zip(free, vals):
                w[j] = x
            wg = _vec_mat(w, gram, p)
            rows = [m[:start] + [-_dot(wg, m, p) % p] + m[start + 1:]
                    for m in m_rows]
            w[start], w[start + 1] = -_dot(wg, w, p) * half % p, 1
            yield rows + [w]


def lagrangian_count(q, n, shape):
    """Number of Lagrangians of the split form of dimension 2n or 2n+1 over F_q.

    prod(q^i + 1) over i = 0..n-1 ("even") or i = 1..n ("odd"), which by
    the q-binomial theorem is the sum over k of [n, k]_q q^((n-k)(n-k-1)/2),
    respectively q^((n-k)(n-k+1)/2): one term per dimension k of L meet L0.
    """
    first = _split_dim(n, shape) % 2
    count = 1
    for i in range(first, first + n):
        count *= q ** i + 1
    return count


def _check_cap(dim, cap):
    """Refuse an enumeration in a dimension above the cap."""
    if dim > cap:
        raise CapExceeded(f"dimension {dim} exceeds the enumeration cap {cap}")


def _split_form(field, n, shape, cap):
    """standard_form(field, n, shape), refused first if its dimension is
    above the enumeration cap, since the form has dim^2 entries."""
    _check_cap(_split_dim(n, shape), cap)
    return standard_form(field, n, shape)


def _split_witt(space, cap):
    """The Witt decomposition of a space whose Lagrangians may be enumerated.

    Refuses, in this order, a field that is not prime, a dimension above the
    cap, a degenerate form and a form that is not split.
    """
    if not space.field.p:
        raise UnsupportedContext("enumeration is implemented over prime fields")
    _check_cap(space.dim, cap)
    if not space.nondegenerate:
        raise DegenerateForm("enumeration needs a nondegenerate form")
    wd = witt_decompose(space)
    if wd.witt_index != space.dim // 2:
        raise NotSplit("the form is not split, so it has no Lagrangians "
                       "of half dimension")
    return wd


def enumerate_lagrangians(space, cap=DEFAULT_ENUM_CAP):
    """All Lagrangians of a split space over F_p, in canonical order.

    In the Witt basis of witt_decompose the Lagrangians fall into the cells
    of the recursion in _cells, so each is produced exactly once and none is
    deduplicated; lagrangian_count gives their number.  Refuses dimensions
    above the cap because that count grows roughly like p^(dim^2/4).
    """
    wd = _split_witt(space, cap)
    field, p = space.field, space.field.p
    to_ambient = _raw(wd.change_of_basis.T)
    lagrangians = (Subspace.span(field, space.dim, _matmul(rows, to_ambient, p))
                   for rows in _cells(_raw(wd.block_gram), 0, p))
    return sorted(lagrangians, key=lambda s: s.key)


def component_of(space, f, reference):
    """Component of a Lagrangian in the even orthogonal Grassmannian.

    Two Lagrangians lie in the same component iff the dimension of their
    intersection is congruent to n modulo 2, where the space has dimension
    2n.  The returned label is relative to the supplied reference.
    """
    if space.dim % 2:
        raise OddAmbient("component structure exists only in even dimension")
    n = space.dim // 2
    for s in (f, reference):
        if not is_lagrangian(space, s):
            raise NotLagrangian(f"{s!r} is not Lagrangian here")
    parity = (f.intersection(reference).dim - n) % 2
    return ComponentLabel(reference=reference,
                          label=SAME if parity == 0 else OTHER)


def lift_odd_to_even(space, e, c):
    """The two Lagrangian lifts of e into the extension of the odd space by c.

    In W = V + <w> with Q(w) = c, a Lagrangian meeting V exactly in e is e
    plus an isotropic line of e-perp(W)/e.  That plane has the basis u, w
    (u the canonical row of e-perp(V) whose pivot is not a pivot of e) and
    the Gram matrix diag(Q(u), c), so _binary_zero decides it: its zero
    (x, y) gives the lines x u + y w and x u - y w, and no zero means the
    extension is non-split.  plus_lift is the lexicographically smaller lift.
    """
    field, d = space.field, space.dim
    if d % 2 == 0:
        raise DimMismatch("lifting starts from an odd dimensional space")
    if e.ambient_dim != d:
        raise AmbientMismatch("subspace ambient differs from space dimension")
    if not is_lagrangian(space, e):
        raise NotLagrangian("only Lagrangians lift")
    c = _extension_scalar(field, c)
    p = field.p
    perp = orthogonal_complement(space, e)
    e_pivots = set(e.pivots)
    u = next(row for row, piv in zip(_raw(perp.basis), perp.pivots)
             if piv not in e_pivots)
    xy = _binary_zero(_dot(_vec_mat(u, _raw(space.gram), p), u, p), c, p)
    if xy is None:
        raise NonSplitExtension(
            "the extension admits no isotropic line over the quotient; "
            "no Lagrangian lift exists")
    x, y = xy
    e_rows = [row + [_units(p)[0]] for row in _raw(e.basis)]
    lifts = sorted((Subspace._from_raw(field, d + 1, e_rows + [
        _scale(x, u, p) + [t % p if p else t]]) for t in (y, -y)),
        key=lambda s: s.key)
    return LiftPair(plus_lift=lifts[0], minus_lift=lifts[1])


def restrict_even_to_odd(space, v_embed, f):
    """Intersect a Lagrangian of an even space with a nondegenerate hyperplane.

    The result is returned in coordinates with respect to the canonical basis
    of v_embed, so it is a Lagrangian of space.restrict(v_embed).  Its
    dimension always drops by exactly one.
    """
    d = space.dim
    if d % 2:
        raise OddAmbient("restriction starts from an even dimensional space")
    if v_embed.ambient_dim != d:
        raise AmbientMismatch("hyperplane ambient differs from space dimension")
    if v_embed.dim != d - 1:
        raise DimMismatch("v_embed must have codimension 1")
    if not space.restrict(v_embed).nondegenerate:
        raise DegenerateRestriction("the form restricts degenerately")
    if not is_lagrangian(space, f):
        raise NotLagrangian("only Lagrangians restrict")
    inter = f.intersection(v_embed)
    rows = [v_embed.coordinates(r) for r in inter.basis.entries]
    e = Subspace.span(space.field, d - 1, rows)
    if e.dim != d // 2 - 1:
        raise AssertionError("internal error: restriction dimension")
    return e


def flip_automorphism(space):
    """diag(1, ..., 1, -1): the isometry negating the extension vector.

    Defined for spaces built by extend_by_scalar, where the last basis vector
    is orthogonal to all the others.  Applying it to a Lagrangian of the
    extension swaps the two lifts of its restriction.
    """
    d = space.dim
    if d < 1 or any(space.gram[i, d - 1] for i in range(d - 1)):
        raise OutOfRange("last basis vector is not orthogonal to the rest")
    return Matrix.diagonal(space.field, [1] * (d - 1) + [-1])


def complement_corank_law(space, e, e2):
    """Intersection dimensions of two Lagrangians and of their complements.

    For Lagrangians of an odd split space the complements always meet in
    dimension exactly one more than the Lagrangians themselves.
    """
    for s in (e, e2):
        if not is_lagrangian(space, s):
            raise NotLagrangian(f"{s!r} is not Lagrangian here")
    r = e.intersection(e2).dim
    h = orthogonal_complement(space, e).intersection(
        orthogonal_complement(space, e2)).dim
    return CorankRecord(r=r, h=h)
