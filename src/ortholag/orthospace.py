"""Symmetric bilinear spaces over exact fields.

Provides orthogonal complements, isotropy tests, a constructive Witt
decomposition (hyperbolic planes split off one pair at a time), standard
split forms, rank-one extensions, isometry checking, and the polarized
discriminant form on binary quadratics.

Characteristic 2 never appears here: field contexts are Q or F_p with p odd,
so dividing bilinear values by 2 is always legal.
"""

import itertools

from .errors import (AmbientMismatch, DegenerateForm, DimMismatch,
                     IsotropicSearchExhausted, MixedContexts, OutOfRange,
                     UnsupportedContext, ZeroScalar)
from .fields import PrimeField, is_square
from .linalg import Matrix, Subspace, dot, vec_mat

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
            raise ValueError("gram matrix must be symmetric")
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
    if s.dim == 0:
        return Subspace.full(space.field, space.dim)
    ker = (s.basis * space.gram).kernel()
    return Subspace.span(space.field, space.dim, ker.entries)


def is_isotropic(space, s):
    """True iff the form vanishes identically on the subspace."""
    if s.ambient_dim != space.dim:
        raise AmbientMismatch("subspace ambient differs from space dimension")
    if s.dim == 0:
        return True
    g = space.gram_on(s.basis)
    zero = space.field.zero
    return all(x == zero for row in g.entries for x in row)


def _diagonalize(field, gram):
    """Rows p with p*gram*p.T diagonal.  Returns (p, diagonal entries)."""
    k = gram.nrows
    rows = [list(r) for r in Matrix.identity(field, k).entries]

    def bil(u, v):
        return dot(vec_mat(tuple(u), gram), tuple(v))

    for i in range(k):
        j = next((j for j in range(i, k) if bil(rows[j], rows[j])), None)
        if j is None:
            # all remaining vectors isotropic; borrow an off-diagonal pairing
            pair = next(((a, b) for a in range(i, k) for b in range(a + 1, k)
                         if bil(rows[a], rows[b])), None)
            if pair is None:
                break  # remaining block is the radical
            a, b = pair
            rows[a] = [x + y for x, y in zip(rows[a], rows[b])]
            j = a
        rows[i], rows[j] = rows[j], rows[i]
        qi = bil(rows[i], rows[i])
        for l in range(i + 1, k):
            c = bil(rows[l], rows[i]) / qi
            rows[l] = [x - c * y for x, y in zip(rows[l], rows[i])]
    p = Matrix(field, rows)
    diag = tuple(bil(r, r) for r in rows)
    return p, diag


def _isotropic_in_diagonal(field, diag, height_bound):
    """A nonzero isotropic coefficient tuple for diag(d_1..d_k), or None.

    None is only returned when anisotropy is certain: dimension at most one,
    a nonsquare ratio in dimension two over F_p, or a definite form over Q.
    Over Q an indefinite form is searched by increasing coordinate height and
    IsotropicSearchExhausted is raised when the bound runs out.
    """
    k = len(diag)
    zero, one = field.zero, field.one
    for i, d in enumerate(diag):
        if d == zero:  # radical vector, trivially isotropic
            return tuple(one if j == i else zero for j in range(k))
    if k <= 1:
        return None

    if isinstance(field, PrimeField):
        if k == 2:
            # d1 + d2 y^2 = 0 has a solution iff -d1/d2 is a square
            ok, root = is_square(-diag[0] / diag[1])
            return (one, root) if ok else None
        # dimension >= 3: a diagonal form in three variables always has a zero
        d1, d2, d3 = diag[0], diag[1], diag[2]
        for xv in range(field.p):
            x = field.scalar(xv)
            val = (-d3 - d1 * x * x) / d2
            if val == zero:
                y = zero
            else:
                ok, root = is_square(val)
                if not ok:
                    continue
                y = root
            return (x, y, one) + (zero,) * (k - 3)
        raise AssertionError("three variable form over F_p with no zero")

    # rationals: definite forms are anisotropic, otherwise bounded search
    signs = {d.value > 0 for d in diag}
    if len(signs) == 1:
        return None
    budget = SEARCH_BUDGET
    for h in range(1, height_bound + 1):
        for cand in itertools.product(range(-h, h + 1), repeat=k):
            if max(abs(c) for c in cand) != h:
                continue
            budget -= 1
            if budget < 0:
                raise IsotropicSearchExhausted(
                    f"no isotropic vector within the candidate budget "
                    f"({SEARCH_BUDGET} candidates)")
            if sum(d.value * c * c for d, c in zip(diag, cand)) == 0:
                return tuple(field.scalar(c) for c in cand)
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
    """
    if not space.nondegenerate:
        raise DegenerateForm("witt decomposition needs a nondegenerate form")
    field, g, d = space.field, space.gram, space.dim
    two = field.scalar(2)
    pair_rows = []
    comp = Matrix.identity(field, d)
    while comp.nrows:
        restricted = comp * g * comp.T
        p, diag = _diagonalize(field, restricted)
        y = _isotropic_in_diagonal(field, diag, height_bound)
        if y is None:
            break
        e = vec_mat(vec_mat(y, p), comp)
        alphas = [dot(vec_mat(row, g), e) for row in comp.entries]
        j = next(i for i, a in enumerate(alphas) if a)
        f1 = tuple(x / alphas[j] for x in comp.row(j))
        corr = space.qvalue(f1) / two
        f = tuple(x - corr * ev for x, ev in zip(f1, e))
        pair_rows += [e, f]
        ge = [dot(vec_mat(row, g), e) for row in comp.entries]
        gf = [dot(vec_mat(row, g), f) for row in comp.entries]
        # coefficient rows orthogonal to both e and f within the complement
        coeffs = Matrix(field, [ge, gf]).kernel()
        comp_rows = [vec_mat(c, comp) for c in coeffs.entries]
        comp = (Matrix(field, comp_rows).rref()[0] if comp_rows
                else Matrix.zero(field, 0, d))

    witt_index = len(pair_rows) // 2
    aniso_gram = comp * g * comp.T if comp.nrows else Matrix(field, [])
    aniso = GramSpace(field, aniso_gram)
    new_rows = pair_rows + [tuple(r) for r in comp.entries]
    cob = Matrix(field, new_rows).T
    zero, one = field.zero, field.one
    n = len(new_rows)
    block = [[zero] * n for _ in range(n)]
    for i in range(witt_index):
        block[2 * i][2 * i + 1] = one
        block[2 * i + 1][2 * i] = one
    for i in range(comp.nrows):
        for j in range(comp.nrows):
            block[2 * witt_index + i][2 * witt_index + j] = aniso_gram[i, j]
    block = Matrix(field, block)
    if cob.T * g * cob != block:
        raise AssertionError("internal error: change of basis fails to block")
    if isinstance(field, PrimeField) and comp.nrows > 1:
        # over F_p the remainder is at most a plane, and a plane is
        # anisotropic iff -det is a nonsquare
        a = aniso_gram
        if comp.nrows > 2 or is_square(a[0, 1] * a[1, 0] - a[0, 0] * a[1, 1])[0]:
            raise AssertionError("internal error: anisotropic part has a zero")
    return WittDecomposition(space, cob, witt_index, aniso, block)


def witt_index(space, height_bound=DEFAULT_HEIGHT_BOUND):
    """Number of hyperbolic planes in the Witt decomposition."""
    return witt_decompose(space, height_bound).witt_index


def standard_form(field, n, shape):
    """The split form of dimension 2n ("even") or 2n+1 ("odd").

    The Gram matrix is n hyperbolic pair blocks [[0,1],[1,0]] down the
    diagonal; the odd shape appends a final basis vector of self-pairing 1.
    """
    if shape not in ("even", "odd"):
        raise OutOfRange(f"shape must be 'even' or 'odd', got {shape!r}")
    if n < 1:
        raise OutOfRange("n must be at least 1")
    d = 2 * n + (1 if shape == "odd" else 0)
    zero, one = field.zero, field.one
    rows = [[zero] * d for _ in range(d)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = one
        rows[2 * i + 1][2 * i] = one
    if shape == "odd":
        rows[d - 1][d - 1] = one
    return GramSpace(field, rows)


def extend_by_scalar(space, c):
    """Orthogonal direct sum with a line of self-pairing c (appended last)."""
    c = space.field.scalar(c)
    if not c:
        raise ZeroScalar("extension scalar must be nonzero")
    zero = space.field.zero
    d = space.dim
    rows = [list(r) + [zero] for r in space.gram.entries]
    rows.append([zero] * d + [c])
    return GramSpace(space.field, rows)


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
    """Search for (lam, b) with b.T * src.gram * b == lam * dst.gram.

    Both spaces must be nondegenerate of dimension 3 over the same prime
    field.  The search runs over candidate scale factors in ascending order;
    for split three dimensional forms it always succeeds.
    """
    if src.field != dst.field:
        raise MixedContexts("spaces over different fields")
    if not isinstance(src.field, PrimeField):
        raise UnsupportedContext("similarity search needs a prime field")
    if src.dim != 3 or dst.dim != 3:
        raise DimMismatch("similarity search is implemented for dimension 3")
    if not (src.nondegenerate and dst.nondegenerate):
        raise DegenerateForm("similarity search needs nondegenerate forms")
    field = src.field
    ws, wd = witt_decompose(src), witt_decompose(dst)
    if ws.witt_index != 1 or wd.witt_index != 1:
        return None
    a = ws.block_gram[2, 2]
    b_val = wd.block_gram[2, 2]
    bd_inv = wd.change_of_basis.inverse()
    for lv in range(1, field.p):
        lam = field.scalar(lv)
        ok, root = is_square(lam * b_val / a)
        if not ok:
            continue
        c = Matrix.diagonal(field, [lam, field.one, root])
        x = ws.change_of_basis * c * bd_inv
        if x.T * src.gram * x != lam * dst.gram:
            raise AssertionError("internal error: similarity construction")
        return lam, x
    return None
