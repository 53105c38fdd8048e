"""Independent reference implementations used to cross-check the library.

Everything here recomputes answers from first principles with plain integer
arithmetic (numpy for the bulk scans) and shares no code with the package
under test.  Tests compare library output against these, so a bug would have
to appear twice, in two unrelated implementations, to slip through.
"""

import itertools
import random
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------- F_p linear algebra

def identity_rows(n):
    """The rows of the n x n identity matrix, as plain ints."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p: (canonical rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank_mod_p(rows, p):
    return len(rref_mod_p(rows, p)[0])


def nullspace_mod_p(rows, p, ncols=None):
    """Canonical basis of {v : M v = 0} over F_p."""
    if ncols is None:
        ncols = len(rows[0])
    red, pivots = rref_mod_p(rows, p) if rows else ((), ())
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f]) % p
        basis.append(tuple(v))
    return rref_mod_p(basis, p)[0] if basis else ()


def span_contains_mod_p(basis_rows, v, p):
    if not basis_rows:
        return all(x % p == 0 for x in v)
    stacked = list(basis_rows) + [list(v)]
    return rank_mod_p(stacked, p) == rank_mod_p(list(basis_rows), p)


def intersection_dim_mod_p(a_rows, b_rows, p):
    """dim(A) + dim(B) - dim(A+B), all ranks computed from scratch."""
    da = rank_mod_p(list(a_rows), p) if a_rows else 0
    db = rank_mod_p(list(b_rows), p) if b_rows else 0
    both = list(a_rows) + list(b_rows)
    ds = rank_mod_p(both, p) if both else 0
    return da + db - ds


def orth_complement_mod_p(basis_rows, gram, p):
    """Canonical basis of the perp of a subspace, as the nullspace of B.G."""
    n = len(gram)
    if not basis_rows:
        return rref_mod_p(np.identity(n, dtype=int).tolist(), p)[0]
    bg = (np.array(basis_rows, dtype=np.int64) @
          np.array(gram, dtype=np.int64)) % p
    return nullspace_mod_p(bg.tolist(), p, ncols=n)


# ---------------------------------------------------------------- rational RREF

def rref_fractions(rows):
    """Reduced row echelon form over Q with exact Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


# ---------------------------------------------------------------- subspace scans

def all_subspace_bases(p, n, d):
    """Every d-dim subspace of F_p^n exactly once, as its RREF basis.

    Generated directly in echelon shape: pick pivot columns, then range over
    the entries that RREF leaves free (right of the own pivot, not in any
    pivot column).
    """
    if d == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), d):
        free_pos = [(i, c) for i in range(d)
                    for c in range(pivots[i] + 1, n) if c not in pivots]
        for fill in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, c), v in zip(free_pos, fill):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(n, d, p):
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (d - i) - 1
    return num // den


def is_totally_isotropic(basis_rows, gram, p):
    if not basis_rows:
        return True
    b = np.array(basis_rows, dtype=np.int64)
    g = np.array(gram, dtype=np.int64)
    return not ((b @ g @ b.T) % p).any()


def lagrangian_bases(gram, p):
    """All floor(n/2)-dim totally isotropic subspaces by full subspace scan."""
    n = len(gram)
    return {b for b in all_subspace_bases(p, n, n // 2)
            if is_totally_isotropic(b, gram, p)}


def projective_points(p, n):
    """One representative per line of F_p^n: first nonzero coordinate is 1."""
    pts = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    return pts


def isotropic_projective_points(gram, p):
    pts = np.array(projective_points(p, len(gram)), dtype=np.int64)
    g = np.array(gram, dtype=np.int64)
    iso = ((pts @ g) * pts).sum(axis=1) % p == 0
    return [tuple(int(x) for x in row) for row in pts[iso]]


def max_isotropic_dim(gram, p):
    """Witt index by exhaustive search over flags of isotropic points.

    Depth-first over projective isotropic points in increasing order, keeping
    only points orthogonal to everything chosen so far (which keeps the span
    totally isotropic in odd characteristic) and linearly independent of it.
    Exact, and fast because the depth is at most floor(n/2).
    """
    n = len(gram)
    cap = n // 2
    if cap == 0:
        return 0
    pts = isotropic_projective_points(gram, p)
    if not pts:
        return 0
    arr = np.array(pts, dtype=np.int64)
    g = np.array(gram, dtype=np.int64)
    orth = (arr @ g @ arr.T) % p == 0
    npts = len(pts)
    later_orth = [0] * npts
    for i in range(npts):
        mask = 0
        for j in np.nonzero(orth[i])[0]:
            if j > i:
                mask |= 1 << int(j)
        later_orth[i] = mask
    best = 0

    def reduce_row(echelon, v):
        """Reduce v against unit-pivot echelon rows; None if dependent."""
        v = list(v)
        for lead, row in echelon:
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                inv = pow(x, -1, p)
                return c, [(inv * a) % p for a in v]
        return None

    def extend(echelon, cand_mask):
        nonlocal best
        depth = len(echelon)
        if depth > best:
            best = depth
        m = cand_mask
        while m and best < cap:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            red = reduce_row(echelon, pts[j])
            if red is not None:
                extend(echelon + [red], cand_mask & later_orth[j])

    extend([], (1 << npts) - 1)
    return best


# ---------------------------------------------------------------- rational height search

class SearchRefused(Exception):
    """The reference height search gave up; the message says why."""


def first_rational_zero(diag, height_bound, budget):
    """First zero of sum d_i x_i^2 in the plain height scan, as Fractions.

    Heights h = 1..height_bound in turn; at each, every integer tuple of
    height exactly h in itertools.product order, each one charged to the
    candidate budget and tested with a Fraction sum.  Raises SearchRefused
    with the message the package gives when the budget or the height runs
    out.
    """
    left = budget
    for h in range(1, height_bound + 1):
        for cand in itertools.product(range(-h, h + 1), repeat=len(diag)):
            if max(abs(c) for c in cand) != h:
                continue
            left -= 1
            if left < 0:
                raise SearchRefused(
                    f"no isotropic vector within the candidate budget "
                    f"({budget} candidates)")
            if sum(Fraction(d) * c * c for d, c in zip(diag, cand)) == 0:
                return [Fraction(c) for c in cand]
    raise SearchRefused(
        f"no isotropic vector up to coordinate height {height_bound}; "
        "anisotropy over Q is not certified")


# ---------------------------------------------------------------- random inputs

def random_symmetric_grams(count, seed, qs=(3, 5), max_dim=6, nondegenerate=True):
    """Seeded stream of (p, gram) pairs with symmetric integer entries."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice(qs)
        d = rng.randint(1, max_dim)
        m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        sym = [[(m[i][j] + m[j][i]) % p for j in range(d)] for i in range(d)]
        if nondegenerate and rank_mod_p(sym, p) != d:
            continue
        out.append((p, sym))
    return out


def random_subspace_rows(rng, p, n, max_rows=None):
    k = rng.randint(0, max_rows if max_rows is not None else n)
    return [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
