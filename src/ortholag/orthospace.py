"""Symmetric bilinear spaces over exact fields.

Provides orthogonal complements, isotropy tests, a constructive Witt
decomposition (hyperbolic planes split off one pair at a time), standard
split forms, rank-one extensions, isometry checking, and the polarized
discriminant form on binary quadratics.

Characteristic 2 never appears here: field contexts are Q or F_p with p odd,
so dividing bilinear values by 2 is always legal.
"""

import itertools
import math
from fractions import Fraction

from .errors import (AmbientMismatch, DegenerateForm, DimMismatch,
                     IsotropicSearchExhausted, MixedContexts, NotSymmetric,
                     OutOfRange, UnsupportedContext, ZeroScalar)
from .fields import _inv, _sqrt
from .linalg import (Matrix, Subspace, _combine, _dot, _identity, _kernel,
                     _matmul, _raw, _rref, _scale, _vec_mat, dot, vec_mat)

# safety valves for the rational isotropic vector search
DEFAULT_HEIGHT_BOUND = 50
SEARCH_BUDGET = 2_000_000


class GramSpace:
    """A finite dimensional space with a symmetric bilinear form.

    The form is given by its Gram matrix in the standard basis.  Degenerate
    forms are representable; operations that need nondegeneracy say so.
    """

    __slots__ = ("field", "dim", "gram", "nondegenerate")

    def __init__(self, field, gram):
        if not isinstance(gram, Matrix):
            gram = Matrix(field, gram)
        if gram.field != field:
            raise MixedContexts("gram matrix field differs from context")
        if gram.nrows != gram.ncols:
            raise DimMismatch("gram matrix must be square")
        if gram != gram.T:
            raise NotSymmetric("gram matrix must be symmetric")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", gram.nrows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "nondegenerate", gram.rank() == gram.nrows)

    def __setattr__(self, *a):
        raise AttributeError("GramSpace is immutable")

    def bilinear(self, u, v):
        u = tuple(self.field.scalar(x) for x in u)
        v = tuple(self.field.scalar(x) for x in v)
        return dot(vec_mat(u, self.gram), v)

    def qvalue(self, v):
        return self.bilinear(v, v)

    def gram_on(self, rows):
        """Gram matrix of the form restricted to the given row vectors."""
        return rows * self.gram * rows.T

    def restrict(self, subspace):
        """The form pulled back to a subspace, in its canonical basis coordinates."""
        if subspace.ambient_dim != self.dim:
            raise AmbientMismatch("subspace does not live in this space")
        if subspace.dim == 0:
            return GramSpace(self.field, Matrix(self.field, []))
        return GramSpace(self.field, self.gram_on(subspace.basis))

    def __eq__(self, other):
        if not isinstance(other, GramSpace):
            return NotImplemented
        return self.field == other.field and self.gram == other.gram

    def __hash__(self):
        return hash((self.field, self.gram))

    def __repr__(self):
        return f"GramSpace(dim={self.dim} over {self.field})"


def orthogonal_complement(space, s):
    """All vectors pairing to zero with a subspace, for a nondegenerate form."""
    if not space.nondegenerate:
        raise DegenerateForm("orthogonal complement needs a nondegenerate form")
    if s.ambient_dim != space.dim:
        raise AmbientMismatch("subspace ambient differs from space dimension")
    if s.field != space.field:
        raise MixedContexts("subspace and space over different fields")
    field, p = space.field, space.field.p
    ker = _kernel(_matmul(_raw(s.basis), _raw(space.gram), p), space.dim, p)
    return Subspace(field, space.dim, Matrix._from_raw(field, ker))


def is_isotropic(space, s):
    """True iff the form vanishes identically on the subspace."""
    if s.ambient_dim != space.dim:
        raise AmbientMismatch("subspace ambient differs from space dimension")
    if s.dim == 0:
        return True
    g = space.gram_on(s.basis)
    zero = space.field.zero
    return all(x == zero for row in g.entries for x in row)


def _gram_on(rows, g, p):
    """rows * g * rows.T on raw values."""
    return [[_dot(r, s, p) for s in rows] for r in _matmul(rows, g, p)]


def _diagonalize(gram, p):
    """Raw rows P with P*gram*P.T diagonal.  Returns (P, diagonal entries).

    gram must be nondegenerate, so there is always a pairing to borrow."""
    k = len(gram)
    rows = _identity(k, p)

    def bil(u, v):
        return _dot(_vec_mat(u, gram, p), v, p)

    for i in range(k):
        j = next((j for j in range(i, k) if bil(rows[j], rows[j])), None)
        if j is None:
            # all remaining vectors isotropic; borrow an off-diagonal pairing
            j, b = next((a, b) for a in range(i, k) for b in range(a + 1, k)
                        if bil(rows[a], rows[b]))
            rows[j] = _combine(rows[j], 1, rows[b], p)
        rows[i], rows[j] = rows[j], rows[i]
        inv = _inv(bil(rows[i], rows[i]), p)
        for l in range(i + 1, k):
            c = bil(rows[l], rows[i]) * inv
            rows[l] = _combine(rows[l], -c, rows[i], p)
    return rows, [bil(r, r) for r in rows]


def _binary_zero(d1, d2, p):
    """A raw zero of d1 x^2 + d2 y^2 (d1, d2 nonzero), or None if it has none.

    There is one iff -d1/d2 is a square: (1, smaller root) over F_p, and over
    Q (-den, -num) where -d1/d2 = (num/den)^2 in lowest terms (isqrt decides).
    """
    if p:
        r = _sqrt(-d1 * _inv(d2, p), p)
        return None if r is None else [1, r]
    t = -d1 / d2
    if t <= 0:
        return None
    num, den = math.isqrt(t.numerator), math.isqrt(t.denominator)
    if num * num != t.numerator or den * den != t.denominator:
        return None
    return [Fraction(-den), Fraction(-num)]


def _isotropic_in_diagonal(field, diag, height_bound):
    """A nonzero isotropic raw coefficient list for diag(d_1..d_k), or None.

    Every d_i must be nonzero: the form is nondegenerate.  None is only
    returned when anisotropy is certain: dimension at most one, a binary
    form without a zero (decided exactly by _binary_zero), or a definite
    form over Q.  Over Q an indefinite form of dimension k >= 3 is
    searched by increasing coordinate height h, and IsotropicSearchExhausted
    is raised when height_bound runs out.  The diagonal is scaled to
    integers, and height h costs (2h+1)^(k-1) integer prefix sums: each
    prefix (c_1..c_{k-1}) in itertools.product order solves its last
    coordinate from d_k c_k^2 = -(d_1 c_1^2 + ... + d_{k-1} c_{k-1}^2) with
    math.isqrt.  The answer is the first zero of height h in the product
    order of all k coordinates, and SEARCH_BUDGET still counts the
    candidates of height h that order would test up to it.
    """
    k, p = len(diag), field.p
    if k <= 1:
        return None
    if k == 2:
        return _binary_zero(diag[0], diag[1], p)

    if p:
        # a diagonal form in three variables always has a zero
        d1, d2, d3 = diag[:3]
        inv2 = _inv(d2, p)
        for x in range(p):
            root = _sqrt((-d3 - d1 * x * x) * inv2, p)
            if root is not None:
                return [x, root, 1] + [0] * (k - 3)
        raise AssertionError("three variable form over F_p with no zero")

    # rationals: definite forms are anisotropic, otherwise bounded search
    signs = {d > 0 for d in diag}
    if len(signs) == 1:
        return None
    m = math.lcm(*(d.denominator for d in diag))
    *head, last = (int(d * m) for d in diag)
    budget = SEARCH_BUDGET
    for h in range(1, height_bound + 1):
        for pre in itertools.product(range(-h, h + 1), repeat=k - 1):
            # a prefix on the shell tests all 2h+1 last coordinates, one
            # below it only -h and h; the first zero is at -r, h-r into them
            shell = h in pre or -h in pre
            t, rem = divmod(-sum(d * c * c for d, c in zip(head, pre)), last)
            r = math.isqrt(t) if not rem and 0 <= t <= h * h else None
            hit = r is not None and r * r == t and (shell or r == h)
            budget -= h - r + 1 if hit else 2 * h + 1 if shell else 2
            if budget < 0:
                raise IsotropicSearchExhausted(
                    f"no isotropic vector within the candidate budget "
                    f"({SEARCH_BUDGET} candidates)")
            if hit:
                return [Fraction(c) for c in pre] + [Fraction(-r)]
    raise IsotropicSearchExhausted(
        f"no isotropic vector up to coordinate height {height_bound}; "
        "anisotropy over Q is not certified")


class WittDecomposition:
    """Result of splitting a nondegenerate form into hyperbolic planes.

    change_of_basis has the new basis as columns; conjugating the original
    Gram matrix by it yields block_gram, which is witt_index copies of
    [[0,1],[1,0]] followed by the Gram matrix of the anisotropic part.
    """

    __slots__ = ("space", "change_of_basis", "witt_index", "hyperbolic_pairs",
                 "anisotropic_part", "block_gram")

    def __init__(self, space, change_of_basis, witt_index, anisotropic_part,
                 block_gram):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "change_of_basis", change_of_basis)
        object.__setattr__(self, "witt_index", witt_index)
        object.__setattr__(self, "hyperbolic_pairs",
                           tuple((2 * i, 2 * i + 1) for i in range(witt_index)))
        object.__setattr__(self, "anisotropic_part", anisotropic_part)
        object.__setattr__(self, "block_gram", block_gram)

    def __setattr__(self, *a):
        raise AttributeError("WittDecomposition is immutable")

    @property
    def basis_rows(self):
        """The new basis as ambient row vectors (e1, f1, e2, f2, ..., rest)."""
        return self.change_of_basis.T.entries

    def __repr__(self):
        return (f"WittDecomposition(index={self.witt_index}, "
                f"anisotropic_dim={self.anisotropic_part.dim})")


def witt_decompose(space, height_bound=DEFAULT_HEIGHT_BOUND):
    """Split off hyperbolic planes until the remainder is anisotropic.

    Each step finds an isotropic vector e, completes it to a hyperbolic pair
    by normalizing a partner f with pairing 1 and clearing its self-pairing,
    then restricts to the orthogonal complement of the pair and repeats.
    Over Q, height_bound bounds the isotropic vector search on remainders of
    dimension at least three; binary remainders are decided exactly.
    """
    if not space.nondegenerate:
        raise DegenerateForm("witt decomposition needs a nondegenerate form")
    field, d = space.field, space.dim
    p, g = field.p, _raw(space.gram)
    half = _inv(field.raw(2), p)
    pair_rows = []
    comp = _identity(d, p)
    while comp:
        prows, diag = _diagonalize(_gram_on(comp, g, p), p)
        y = _isotropic_in_diagonal(field, diag, height_bound)
        if y is None:
            break
        e = _vec_mat(_vec_mat(y, prows, p), comp, p)
        eg = _vec_mat(e, g, p)
        alphas = [_dot(eg, row, p) for row in comp]
        j = next(i for i, a in enumerate(alphas) if a)
        f1 = _scale(_inv(alphas[j], p), comp[j], p)
        f = _combine(f1, -_dot(_vec_mat(f1, g, p), f1, p) * half, e, p)
        pair_rows += [e, f]
        fg = _vec_mat(f, g, p)
        # coefficient rows orthogonal to both e and f within the complement
        coeffs = _kernel([alphas, [_dot(fg, row, p) for row in comp]],
                         len(comp), p)
        comp = _rref([_vec_mat(c, comp, p) for c in coeffs], p)[0]

    new_rows, h = pair_rows + comp, len(pair_rows)
    block = _gram_on(new_rows, g, p)
    # the certificate: the first h columns hold the hyperbolic pattern (a
    # bool compares equal to 1 or 0), and so, as block is exactly
    # symmetric, do the first h rows
    if any(row[j] != (j == i ^ 1) for i, row in enumerate(block)
           for j in range(h)):
        raise AssertionError("internal error: change of basis fails to block")
    aniso_gram = [row[h:] for row in block[h:]]
    if p and len(comp) > 1:
        # over F_p the remainder is at most a plane, and a plane is
        # anisotropic iff -det is a nonsquare
        a = aniso_gram
        if len(comp) > 2 or _sqrt(a[0][1] * a[1][0] - a[0][0] * a[1][1],
                                  p) is not None:
            raise AssertionError("internal error: anisotropic part has a zero")
    return WittDecomposition(
        space, Matrix._from_raw(field, list(zip(*new_rows))), h // 2,
        GramSpace(field, Matrix._from_raw(field, aniso_gram)),
        Matrix._from_raw(field, block))


def witt_index(space, height_bound=DEFAULT_HEIGHT_BOUND):
    """Number of hyperbolic planes in the Witt decomposition."""
    return witt_decompose(space, height_bound).witt_index


def _split_dim(n, shape):
    """The dimension 2n ("even") or 2n+1 ("odd") of a split form, n >= 1."""
    if shape not in ("even", "odd"):
        raise OutOfRange(f"shape must be 'even' or 'odd', got {shape!r}")
    if n < 1:
        raise OutOfRange("n must be at least 1")
    return 2 * n + (1 if shape == "odd" else 0)


def standard_form(field, n, shape):
    """The split form of dimension 2n ("even") or 2n+1 ("odd").

    The Gram matrix is n hyperbolic pair blocks [[0,1],[1,0]] down the
    diagonal; the odd shape appends a final basis vector of self-pairing 1.
    """
    d = _split_dim(n, shape)
    zero, one = field.zero, field.one
    rows = [[zero] * d for _ in range(d)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = one
        rows[2 * i + 1][2 * i] = one
    if shape == "odd":
        rows[d - 1][d - 1] = one
    return GramSpace(field, rows)


def _extension_scalar(field, c):
    """The raw value of an extension scalar c, which must be nonzero."""
    if not (c := field.raw(c)):
        raise ZeroScalar("extension scalar must be nonzero")
    return c


def extend_by_scalar(space, c):
    """Orthogonal direct sum with a line of self-pairing c (appended last)."""
    c = _extension_scalar(space.field, c)
    zero = space.field.zero
    rows = [list(r) + [zero] for r in space.gram.entries]
    return GramSpace(space.field, rows + [[zero] * space.dim + [c]])


def isometry_check(space, other, b):
    """True iff b is invertible and conjugates one Gram matrix to the other."""
    if space.field != other.field:
        raise MixedContexts("spaces over different fields")
    if space.dim != other.dim:
        raise DimMismatch("spaces of different dimensions")
    if b.nrows != space.dim or b.ncols != space.dim:
        raise DimMismatch("matrix shape differs from space dimension")
    if not b.is_invertible():
        return False
    return b.T * space.gram * b == other.gram


def mumford_sym2_form(field):
    """Polarization of b^2 - 4ac on binary quadratics a x^2 + b xy + c y^2.

    In the coefficient basis (a, b, c) the polarized Gram matrix is
    [[0,0,-2],[0,1,0],[-2,0,0]]; it is nondegenerate and split in odd
    characteristic and over Q.
    """
    return GramSpace(field, [[0, 0, -2], [0, 1, 0], [-2, 0, 0]])


def find_similarity(src, dst):
    """A similarity (lam, x): x.T * src.gram * x == lam * dst.gram.

    Both spaces must be nondegenerate of dimension 3 over the same prime
    field.  Such a form is isotropic, so its Witt decomposition is a
    hyperbolic plane plus a line <a> for src and <b> for dst, and x is built
    from a root of lam*b/a.  lam is the least in 1..p-1 that makes lam*b/a a
    square: F_p* has two square classes, so it is 1 when b/a is a square and
    otherwise the least nonsquare mod p.
    """
    if src.field != dst.field:
        raise MixedContexts("spaces over different fields")
    if not src.field.p:
        raise UnsupportedContext("similarity search needs a prime field")
    if src.dim != 3 or dst.dim != 3:
        raise DimMismatch("similarity search is implemented for dimension 3")
    if not (src.nondegenerate and dst.nondegenerate):
        raise DegenerateForm("similarity search needs nondegenerate forms")
    field, p = src.field, src.field.p
    ws, wd = witt_decompose(src), witt_decompose(dst)
    t = wd.block_gram[2, 2].value * _inv(ws.block_gram[2, 2].value, p) % p
    nonsquare = next(v for v in range(2, p) if _sqrt(v, p) is None)
    lam = field.scalar(1 if _sqrt(t, p) is not None else nonsquare)
    c = Matrix.diagonal(field, [lam, 1, _sqrt(lam.value * t, p)])
    x = ws.change_of_basis * c * wd.change_of_basis.inverse()
    if x.T * src.gram * x != lam * dst.gram:
        raise AssertionError("internal error: similarity construction")
    return lam, x
