"""Lagrangian subspaces of split orthogonal spaces.

Covers enumeration over small prime fields by the cells of a Witt basis,
each Lagrangian produced once, the two component structure of the even
orthogonal Grassmannian (read off from intersection parity against a
reference), the two Lagrangian lifts of an odd space's Lagrangian into a
rank-one extension, and the reverse restriction map.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (AmbientMismatch, CapExceeded, DegenerateForm,
                     DegenerateRestriction, DimMismatch, NonSplitExtension,
                     NotLagrangian, NotSplit, OddAmbient, OutOfRange,
                     UnsupportedContext)
from .fields import PrimeField
from .linalg import Matrix, Subspace, dot, vec_mat
from .orthospace import (GramSpace, extend_by_scalar, is_isotropic,
                         orthogonal_complement, witt_decompose)

DEFAULT_ENUM_CAP = 8

SAME = "same"
OTHER = "other"


@dataclass(frozen=True)
class ComponentLabel:
    """Which component a Lagrangian lies in, relative to a reference."""

    reference: object
    label: str

    @property
    def same(self):
        return self.label == SAME


@dataclass(frozen=True)
class LiftPair:
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


def _isotropic_reduction(space, s):
    """Quotient of s-perp by an isotropic s, with explicit representatives.

    Returns (quotient GramSpace, lift) where lift maps a subspace of the
    quotient to its preimage in the ambient space (always containing s).
    Representatives are the canonical basis rows of s-perp whose pivots are
    not pivots of s, so the construction is deterministic.
    """
    field = space.field
    perp = orthogonal_complement(space, s)
    s_pivots = set(s.pivots)
    rep_rows = [row for row, piv in zip(perp.basis.entries, perp.pivots)
                if piv not in s_pivots]
    reps = Matrix(field, rep_rows)
    quotient = GramSpace(field, reps * space.gram * reps.T)

    def lift(sub):
        amb = [vec_mat(r, reps) for r in sub.basis.entries]
        return Subspace.span(field, space.dim, amb + list(s.basis.entries))

    return quotient, lift


def _cells(field, gram, start):
    """Rows spanning each Lagrangian of Witt coordinates start.., once.

    With (e, f) the hyperbolic pair at start and M a Lagrangian of the later
    coordinates U, the Lagrangians are e + M and, for each w in U vanishing
    on the RREF pivots of M, the span of m - B(w,m) e (m in M) and
    f + w - Q(w)/2 e.
    """
    d = gram.nrows
    if d - start < 2:
        yield []
        return
    zero, one, two = field.zero, field.one, field.scalar(2)
    e = tuple(one if j == start else zero for j in range(d))
    for m_rows in _cells(field, gram, start + 2):
        yield [e] + m_rows
        pivots = Matrix(field, m_rows).rref()[1]
        free = [j for j in range(start + 2, d) if j not in pivots]
        for vals in itertools.product(field.elements(), repeat=len(free)):
            w = [zero] * d
            for j, x in zip(free, vals):
                w[j] = x
            wg = vec_mat(tuple(w), gram)
            rows = [m[:start] + (-dot(wg, m),) + m[start + 1:] for m in m_rows]
            w[start], w[start + 1] = -dot(wg, w) / two, one
            yield rows + [tuple(w)]


def enumerate_lagrangians(space, cap=DEFAULT_ENUM_CAP):
    """All Lagrangians of a split space over F_p, in canonical order.

    In the Witt basis of witt_decompose the Lagrangians fall into the cells
    of the recursion in _cells, so each is produced exactly once and none is
    deduplicated; there are prod(p^i + 1), i = 0..n-1 in dimension 2n and
    i = 1..n in dimension 2n+1.  Refuses dimensions above the cap because
    that count grows roughly like p^(dim^2/4).
    """
    if not isinstance(space.field, PrimeField):
        raise UnsupportedContext("enumeration is implemented over prime fields")
    if space.dim > cap:
        raise CapExceeded(
            f"dimension {space.dim} exceeds the enumeration cap {cap}")
    if not space.nondegenerate:
        raise DegenerateForm("enumeration needs a nondegenerate form")
    wd = witt_decompose(space)
    if wd.witt_index != space.dim // 2:
        raise NotSplit("the form is not split, so it has no Lagrangians "
                       "of half dimension")
    field, to_ambient = space.field, wd.change_of_basis.T
    lagrangians = (Subspace.span(field, space.dim,
                                 [vec_mat(r, to_ambient) for r in rows])
                   for rows in _cells(field, wd.block_gram, 0))
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

    In the extension W, any Lagrangian meeting the original space exactly in
    e contains e and is spanned over it by an isotropic line of the two
    dimensional quotient e-perp(W)/e.  A split quotient has exactly two such
    lines; an anisotropic one has none and the extension is reported as
    non-split.  plus_lift is the lexicographically smaller lift.
    """
    field, d = space.field, space.dim
    if d % 2 == 0:
        raise DimMismatch("lifting starts from an odd dimensional space")
    if e.ambient_dim != d:
        raise AmbientMismatch("subspace ambient differs from space dimension")
    if not is_lagrangian(space, e):
        raise NotLagrangian("only Lagrangians lift")
    w = extend_by_scalar(space, c)
    zero = field.zero
    e_w = Subspace.span(field, d + 1,
                        [tuple(r) + (zero,) for r in e.basis.entries])
    quotient, lift = _isotropic_reduction(w, e_w)
    wd = witt_decompose(quotient)
    if wd.witt_index == 0:
        raise NonSplitExtension(
            "the extension admits no isotropic line over the quotient; "
            "no Lagrangian lift exists")
    rows = wd.basis_rows
    lifts = sorted((lift(Subspace.span(field, 2, [rows[0]])),
                    lift(Subspace.span(field, 2, [rows[1]]))),
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
    field = space.field
    zero = field.zero
    if d < 1 or any(space.gram[i, d - 1] != zero for i in range(d - 1)):
        raise ValueError("last basis vector is not orthogonal to the rest")
    return Matrix.diagonal(field, [1] * (d - 1) + [-1])


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
