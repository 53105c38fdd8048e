"""Dense exact matrices and canonically presented subspaces.

Matrices store Scalar entries as nested tuples, so they are immutable and
hashable.  A Subspace is the row space of a reduced row echelon basis with
zero rows dropped; two subspaces are equal iff those bases are identical,
which makes structural equality coincide with mathematical equality.
"""

from .errors import AmbientMismatch, DimMismatch, MixedContexts


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
        return Matrix(self.field, list(zip(*self.entries))) if self.entries else self

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
        rows = [list(r) for r in self.entries]
        nrows, ncols = len(rows), self.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = rows[r][c]
            rows[r] = [x / inv for x in rows[r]]
            for i in range(nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Canonical basis matrix of the right null space (rows are the basis)."""
        R, pivots = self.rref()
        ncols = self.ncols
        free = [c for c in range(ncols) if c not in pivots]
        zero, one = self.field.zero, self.field.one
        rows = []
        for f in free:
            v = [zero] * ncols
            v[f] = one
            for i, p in enumerate(pivots):
                v[p] = -R[i, f]
            rows.append(v)
        if not rows:
            return Matrix(self.field, [])
        return Matrix(self.field, rows).rref()[0]

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise DimMismatch("inverse of a non-square matrix")
        aug = Matrix(self.field, [list(r) + list(i)
                                  for r, i in zip(self.entries, Matrix.identity(self.field, n).entries)])
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise DimMismatch("matrix is singular")
        return Matrix(self.field, [r[n:] for r in R.entries])

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
        rows = [tuple(field.scalar(x) for x in row) for row in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise AmbientMismatch("row length differs from ambient dimension")
        if not rows:
            return cls(field, ambient_dim, Matrix.zero(field, 0, ambient_dim))
        R, pivots = Matrix(field, rows).rref()
        kept = R.entries[: len(pivots)]
        return cls(field, ambient_dim, Matrix(field, kept) if kept
                   else Matrix.zero(field, 0, ambient_dim))

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
        return tuple(next(j for j, x in enumerate(row) if x)
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
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero_subspace(self.field, self.ambient_dim)
        # solve u*A = w*B: kernel of [A; -B]^T gives coefficient pairs (u, w)
        a, b = self.basis, other.basis
        rows = []
        for i in range(self.ambient_dim):
            rows.append([a[j, i] for j in range(a.nrows)]
                        + [-b[j, i] for j in range(b.nrows)])
        coeffs = Matrix(self.field, rows).kernel()
        vecs = [vec_mat(c[: a.nrows], a) for c in coeffs.entries]
        return Subspace.span(self.field, self.ambient_dim, vecs)

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
        v = tuple(self.field.scalar(x) for x in v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        if self.dim == 0:
            if any(v):
                raise AmbientMismatch("vector is not in the subspace")
            return ()
        coords = tuple(v[p] for p in self.pivots)
        if vec_mat(coords, self.basis) != v:
            raise AmbientMismatch("vector is not in the subspace")
        return coords

    def apply(self, m):
        """Image under the linear map sending row vector v to v*m."""
        if m.nrows != self.ambient_dim:
            raise DimMismatch("map matrix does not act on this ambient space")
        return Subspace.span(self.field, m.ncols,
                             [vec_mat(r, m) for r in self.basis.entries])

    @property
    def key(self):
        """Deterministic sort key: dimension, then basis entries."""
        return (self.dim, tuple(tuple(x.key for x in r) for r in self.basis.entries))

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
