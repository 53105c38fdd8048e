"""Dense exact matrices and canonically presented subspaces.

Matrices store Scalar entries as nested tuples, so they are immutable and
hashable.  A Subspace is the row space of a reduced row echelon basis with
zero rows dropped; two subspaces are equal iff those bases are identical,
which makes structural equality coincide with mathematical equality.

Elimination, kernels and the products inside them run in a private kernel
(_rref, _kernel, _dot, _vec_mat, _matmul) on lists of raw values: ints in
[0, p) over F_p, Fractions over Q, where p = field.p is 0.  The public
methods unbox x.value on entry and make Scalars only for the Matrix or
Subspace they return.  The Matrix operators and the public dot and vec_mat
still work on Scalars.
"""

from fractions import Fraction
from operator import mul

from .errors import AmbientMismatch, DimMismatch, MixedContexts
from .fields import Scalar, _inv


_ZERO, _ONE = Fraction(0), Fraction(1)


def _units(p):
    """The raw zero and one: ints over F_p, Fractions over Q."""
    return (0, 1) if p else (_ZERO, _ONE)


def _raw(m):
    """The entries of a Matrix as lists of raw values."""
    return [[x.value for x in r] for r in m.entries]


def _identity(n, p):
    zero, one = _units(p)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _combine(u, c, v, p):
    """The row u + c*v."""
    if p:
        return [(x + c * y) % p for x, y in zip(u, v)]
    return [x + c * y for x, y in zip(u, v)]


def _scale(c, v, p):
    if p:
        return [c * x % p for x in v]
    return [c * x for x in v]


def _dot(u, v, p):
    if p:
        return sum(map(mul, u, v)) % p
    return sum(map(mul, u, v), _ZERO)


def _vec_mat(v, rows, p):
    """Row vector times the matrix with the given (nonempty) rows."""
    return [_dot(v, col, p) for col in zip(*rows)]


def _matmul(a, b, p):
    cols = list(zip(*b))
    return [[_dot(r, c, p) for c in cols] for r in a]


def _rref(rows, p):
    """Reduced row echelon form of raw rows: (rows, pivot column tuple).

    Zero rows end up last and are kept; the input is left unchanged.
    """
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r] = _scale(_inv(rows[r][c], p), rows[r], p)
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = _combine(row, -row[c], lead, p)
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def _kernel(rows, ncols, p):
    """Canonical basis rows of the right null space of raw rows."""
    red, pivots = _rref(rows, p)
    zero, one = _units(p)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = -red[i][f] % p if p else -red[i][f]
        basis.append(v)
    return _rref(basis, p)[0]


class Matrix:
    """Immutable matrix over a single field context."""

    __slots__ = ("field", "entries")

    def __init__(self, field, rows):
        ents = tuple(tuple(field.scalar(x) for x in row) for row in rows)
        widths = {len(r) for r in ents}
        if len(widths) > 1:
            raise DimMismatch("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_raw(cls, field, rows):
        """Matrix of raw rows, boxed directly without coercion."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "entries", tuple(tuple(Scalar(field, v) for v in r)
                                               for r in rows))
        return m

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field, diag):
        diag = [field.scalar(d) for d in diag]
        z = field.zero
        n = len(diag)
        return cls(field, [[diag[i] if i == j else z for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def row(self, i):
        return self.entries[i]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        rows = "; ".join(" ".join(repr(x) for x in r) for r in self.entries)
        return f"Matrix[{rows}]"

    @property
    def T(self):
        return Matrix(self.field, list(zip(*self.entries)))

    def _check_field(self, other):
        if self.field != other.field:
            raise MixedContexts("matrices over different fields")

    def __add__(self, other):
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimMismatch("shape mismatch in addition")
        return Matrix(self.field, [[a + b for a, b in zip(r, s)]
                                   for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.ncols != other.nrows:
                raise DimMismatch("inner dimensions differ")
            cols = other.T.entries
            return Matrix(self.field,
                          [[dot(r, c) for c in cols] for r in self.entries])
        s = self.field.scalar(other)
        return Matrix(self.field, [[s * x for x in r] for r in self.entries])

    def __rmul__(self, other):
        return self * other

    def rref(self):
        """Reduced row echelon form.  Returns (Matrix, pivot column tuple)."""
        rows, pivots = _rref(_raw(self), self.field.p)
        return Matrix._from_raw(self.field, rows), pivots

    def rank(self):
        return len(_rref(_raw(self), self.field.p)[1])

    def kernel(self):
        """Canonical basis matrix of the right null space (rows are the basis)."""
        return Matrix._from_raw(self.field,
                                _kernel(_raw(self), self.ncols, self.field.p))

    def inverse(self):
        n, p = self.nrows, self.field.p
        if n != self.ncols:
            raise DimMismatch("inverse of a non-square matrix")
        aug = [r + i for r, i in zip(_raw(self), _identity(n, p))]
        rows, pivots = _rref(aug, p)
        if pivots[:n] != tuple(range(n)):
            raise DimMismatch("matrix is singular")
        return Matrix._from_raw(self.field, [r[n:] for r in rows])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows


def dot(u, v):
    """Inner product of two equal-length scalar tuples."""
    if len(u) != len(v):
        raise DimMismatch("dot of unequal lengths")
    acc = None
    for a, b in zip(u, v):
        acc = a * b if acc is None else acc + a * b
    return acc


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple(dot(v, col) for col in zip(*m.entries))


class Subspace:
    """A linear subspace of field^ambient_dim with a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, basis_matrix):
        # internal constructor; use Subspace.span for arbitrary spanning rows
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis_matrix)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, ambient_dim, rows):
        """Subspace spanned by the given rows, reduced to its canonical basis."""
        raw = field.raw
        rows = [[raw(x) for x in row] for row in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise AmbientMismatch("row length differs from ambient dimension")
        return cls._from_raw(field, ambient_dim, rows)

    @classmethod
    def _from_raw(cls, field, ambient_dim, rows):
        """Subspace spanned by raw rows of length ambient_dim."""
        rows, pivots = _rref(rows, field.p)
        return cls(field, ambient_dim,
                   Matrix._from_raw(field, rows[: len(pivots)]))

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @classmethod
    def zero_subspace(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.zero(field, 0, ambient_dim))

    @property
    def dim(self):
        return self.basis.nrows

    @property
    def pivots(self):
        """Pivot columns, read off the canonical basis without reducing it."""
        return tuple(next(j for j, x in enumerate(row) if x.value)
                     for row in self.basis.entries)

    def _check_ambient(self, other):
        if self.field != other.field:
            raise MixedContexts("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}")

    def sum(self, other):
        """Smallest subspace containing both."""
        self._check_ambient(other)
        return Subspace.span(self.field, self.ambient_dim,
                             list(self.basis.entries) + list(other.basis.entries))

    __add__ = sum

    def intersection(self, other):
        """Exact intersection via the kernel of the stacked transposed bases."""
        self._check_ambient(other)
        # the kernel of [A; B]^T holds the pairs (u, w) with u*A = -w*B,
        # so the vectors u*A span the intersection; the rows of A and of B
        # are independent, so it is zero when either basis is empty
        p = self.field.p
        a, b = _raw(self.basis), _raw(other.basis)
        coeffs = _kernel(list(zip(*(a + b))), len(a) + len(b), p)
        vecs = [_vec_mat(c[: len(a)], a, p) for c in coeffs]
        return Subspace._from_raw(self.field, self.ambient_dim, vecs)

    __and__ = intersection

    def contains_vector(self, v):
        v = tuple(self.field.scalar(x) for x in v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        probe = Subspace.span(self.field, self.ambient_dim,
                              list(self.basis.entries) + [v])
        return probe.dim == self.dim

    def contains(self, other):
        self._check_ambient(other)
        return self.sum(other).dim == self.dim

    def coordinates(self, v):
        """Coefficients of v in the canonical basis (v must lie in the subspace)."""
        field = self.field
        v = [field.raw(x) for x in v]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        if self.dim == 0:
            if any(v):
                raise AmbientMismatch("vector is not in the subspace")
            return ()
        coords = [v[j] for j in self.pivots]
        if _vec_mat(coords, _raw(self.basis), field.p) != v:
            raise AmbientMismatch("vector is not in the subspace")
        return tuple(Scalar(field, c) for c in coords)

    def apply(self, m):
        """Image under the linear map sending row vector v to v*m."""
        if m.nrows != self.ambient_dim:
            raise DimMismatch("map matrix does not act on this ambient space")
        return Subspace.span(self.field, m.ncols,
                             [vec_mat(r, m) for r in self.basis.entries])

    @property
    def key(self):
        """Deterministic sort key: dimension, then basis entries."""
        return (self.dim, tuple(tuple(x.value for x in r) for r in self.basis.entries))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.basis.entries == other.basis.entries)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis.entries))

    def __repr__(self):
        rows = "; ".join(" ".join(repr(x) for x in r) for r in self.basis.entries)
        return f"Subspace<{rows}> in dim {self.ambient_dim}"


def canonical_basis(field, ambient_dim, rows):
    """Reduce spanning rows to the canonical subspace presentation."""
    return Subspace.span(field, ambient_dim, rows)
