"""Independent per-operation checkers for the benchmark.

Nothing here imports ortholag.  Every check is recomputed from the inputs
with plain ints mod p or stdlib Fractions, or from the closed forms of the
paper (Lagrangian counts, stratum dimensions, discriminants, h = r + 1 and
the intersection parity).  Results of the program reach these functions
already converted to nested lists of ints or Fractions, so a check never
runs the program's own code path.

Each checker returns None when the answer is right and a short reason when
it is wrong.
"""

import json
from fractions import Fraction


# --- exact linear algebra over F_p (p an odd prime) or Q (p None) ----------

def _inv(x, p):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def _norm(x, p):
    return x % p if p else Fraction(x)


def rref(rows, p=None):
    """Reduced row echelon form of rows; returns (nonzero rows, pivots, det).

    det is the determinant when rows is square, else meaningless.
    """
    m = [[_norm(x, p) for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, det, r = [], 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        lead = m[r][c]
        det = _norm(det * lead, p)
        inv = _inv(lead, p)
        m[r] = [_norm(x * inv, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [_norm(x - f * y, p) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    if len(pivots) < len(m):
        det = 0
    return m[:r], pivots, det


def rank(rows, p=None):
    return len(rref(rows, p)[1]) if rows else 0


def det(rows, p=None):
    return rref(rows, p)[2] if rows else 1


def transpose(a):
    return [list(c) for c in zip(*a)]


def matmul(a, b, p=None):
    bt = transpose(b)
    return [[_norm(sum(x * y for x, y in zip(r, c)), p) for c in bt] for r in a]


def pair(u, g, v, p=None):
    """Bilinear value u G v^T."""
    return _norm(sum(u[i] * g[i][j] * v[j]
                     for i in range(len(u)) for j in range(len(v))), p)


def is_square_mod(a, p):
    return a % p != 0 and pow(a, (p - 1) // 2, p) == 1


def meet_dim(a, b, p):
    """dim(A ∩ B) for row spaces A, B of the same ambient space."""
    return rank(a, p) + rank(b, p) - rank(a + b, p)


def lagrangian_count(q, dim):
    """Number of Lagrangians of the split form of dimension dim over F_q."""
    n, out = dim // 2, 1
    for i in (range(1, n + 1) if dim % 2 else range(n)):
        out *= q ** i + 1
    return out


def fp_witt_index(gram, p):
    """Witt index over F_p from the dimension and the discriminant alone."""
    d = len(gram)
    m = d // 2
    if d % 2:
        return m
    return m if is_square_mod((-1) ** m * det(gram, p), p) else m - 1


# --- checkers, one per operation kind ---------------------------------------

def _isotropic(rows, g, p):
    return all(pair(u, g, v, p) == 0 for i, u in enumerate(rows)
               for v in rows[i:])


def _canonical(rows, p):
    return rows == rref(rows, p)[0] and all(any(r) for r in rows)


def check_lagrangian_list(gram, p, bases):
    """All Lagrangians of gram, distinct, canonical and in canonical order."""
    d = len(gram)
    want = lagrangian_count(p, d)
    if len(bases) != want:
        return f"count {len(bases)} != closed form {want}"
    prev = None
    for rows in bases:
        if len(rows) != d // 2 or any(len(r) != d for r in rows):
            return "a basis has the wrong shape"
        if not _canonical(rows, p):
            return "a basis is not in reduced row echelon form"
        if not _isotropic(rows, gram, p):
            return "a subspace is not isotropic"
        key = tuple(map(tuple, rows))
        if prev is not None and key <= prev:
            return "not distinct or not in canonical order"
        prev = key
    return None


def check_witt(gram, p, cob, index, aniso, expected_index):
    """Block isometry, Witt index and anisotropic remainder of a decomposition.

    cob has the new basis as columns; aniso is the remainder's Gram matrix.
    """
    d = len(gram)
    if index != expected_index:
        return f"witt index {index} != {expected_index}"
    if len(cob) != d or det(cob, p) == 0:
        return "change of basis is not invertible"
    block = matmul(matmul(transpose(cob), gram, p), cob, p)
    rem = d - 2 * index
    if len(aniso) != rem:
        return "remainder has the wrong dimension"
    for i in range(d):
        for j in range(d):
            if i < 2 * index or j < 2 * index:
                want = 1 if i // 2 == j // 2 and i != j and i < 2 * index \
                    and j < 2 * index else 0
            else:
                want = _norm(aniso[i - 2 * index][j - 2 * index], p)
            if block[i][j] != want:
                return "change of basis does not produce the block form"
    if p and rem > 2:
        return "remainder over F_p has dimension above 2"
    if p and rem == 2 and is_square_mod(-det(aniso, p), p):
        return "remainder plane is isotropic: -det is a square"
    if rem and det(aniso, p) == 0:
        return "remainder is degenerate"
    return None


def check_component(n, p, f, ref, label):
    dim = meet_dim(f, ref, p)
    want = "same" if (dim - n) % 2 == 0 else "other"
    return None if label == want else f"label {label} != {want}"


def check_corank(p, e, e2, r, h):
    d = len(e[0])
    want_r = meet_dim(e, e2, p)
    want_h = d - rank(e + e2, p)  # (E + E2)^perp for a nondegenerate form
    if r != want_r:
        return f"r {r} != {want_r}"
    if h != want_h or h != r + 1:
        return f"h {h} breaks h = r + 1 (r {r}, independent h {want_h})"
    return None


def restrict_to_hyperplane(f, p):
    """f ∩ {last coordinate 0}, in the first d-1 coordinates, canonical."""
    last = [r[-1] % p for r in f]
    i0 = next((i for i, x in enumerate(last) if x), None)
    if i0 is None:
        rows = [r[:-1] for r in f]
    else:
        inv = pow(last[i0], -1, p)
        rows = [[(x - last[i] * inv * y) % p for x, y in zip(f[i], f[i0])][:-1]
                for i in range(len(f)) if i != i0]
    return rref(rows, p)[0] if rows else []


def check_lifts(gram_w, p, e, plus, minus):
    """The two Lagrangians of W containing e, canonical and ordered.

    Exactly two Lagrangians of the split extension W contain a Lagrangian e
    of the odd space, so passing this check pins the answer down.
    """
    for lift in (plus, minus):
        if len(lift) != len(e) + 1 or not _canonical(lift, p) \
                or not _isotropic(lift, gram_w, p):
            return "a lift is not a canonical Lagrangian of the extension"
        if rank(lift + [r + [0] for r in e], p) != len(lift):
            return "a lift does not contain the restriction"
    if not tuple(map(tuple, plus)) < tuple(map(tuple, minus)):
        return "lifts are not distinct and ordered"
    return None


def check_fiber(gram_w, p, f, e, plus, minus, flipped):
    """Restriction, lifts and flip for one even Lagrangian f of W."""
    if e != restrict_to_hyperplane(f, p):
        return "restriction differs from f ∩ hyperplane"
    bad = check_lifts(gram_w, p, e, plus, minus)
    if bad:
        return bad
    if f not in (plus, minus):
        return "f is not in the fiber of its restriction"
    other = minus if f == plus else plus
    negated = rref([r[:-1] + [-r[-1]] for r in f], p)[0]
    if flipped != negated or flipped != other:
        return "the flip does not swap the fiber"
    return None


# --- closed forms of the strata calculators ----------------------------------

def _strata_row(g, n, t):
    N = (n + 1) * (g - 1)
    moduli = n * (2 * n + 1) * (g - 1)
    sdim = (n * (3 * n + 1) * (g - 1) + n * t) // 2 if t <= N else moduli
    flags = (["formula"] if t <= N else []) + (["dense"] if t >= N else [])
    flags.append("unique" if t < N else "finite" if t == N else "infinite")
    return {"g": g, "n": n, "t": t, "e": t // 2,
            "component": "+" if t % 4 == 0 else "-", "stratum_dim": sdim,
            "dim_max_lagrangians": 0 if t <= N else n * (t - N) // 2,
            "flags": flags}


def general_ts(g, n):
    N = (n + 1) * (g - 1)
    base = N if N % 2 == 0 else N + 1
    return (base, base + 2)


def _hirschowitz(g, n):
    return -(-(n * (n + 1) * (g - 1)) // (2 * n + 1))


def strata_expected(argv):
    """Exact stdout of an `ortholag strata ...` call, from the closed forms."""
    cmd, as_json = argv[1], "--json" in argv
    opt = {argv[i][2:]: int(argv[i + 1]) for i in range(2, len(argv) - 1)
           if argv[i].startswith("--") and argv[i] != "--json"}
    if cmd == "table":
        rows = [_strata_row(opt["g"], opt["n"], t)
                for t in general_ts(opt["g"], opt["n"])]
        if as_json:
            return json.dumps(rows) + "\n"
        return "".join(f"({r['t']}, {r['component']}, "
                       f"{r['dim_max_lagrangians']})\n" for r in rows)
    if cmd == "stratum":
        r = _strata_row(opt["g"], opt["n"], opt["t"])
        if as_json:
            return json.dumps(r) + "\n"
        return (f"t={r['t']} e={r['e']} component={r['component']} "
                f"stratum_dim={r['stratum_dim']} "
                f"dim_max_lagrangians={r['dim_max_lagrangians']} "
                f"flags={','.join(r['flags'])}\n")
    if cmd == "bounds":
        g, n = opt["g"], opt["n"]
        N = (n + 1) * (g - 1)
        hn = Fraction(n * (n + 1) * g, n - 1) if n >= 2 else None
        vals = {"N": N, "moduli_dim": n * (2 * n + 1) * (g - 1),
                "sharp_bound": N + 3, "hn_bound": hn,
                "hirschowitz_bound": _hirschowitz(g, n)}
        if as_json:
            if hn is not None:
                vals["hn_bound"] = (hn.numerator if hn.denominator == 1
                                    else f"{hn.numerator}/{hn.denominator}")
            return json.dumps(vals) + "\n"
        return "".join(f"{k}={'undefined' if v is None else v}\n"
                       for k, v in vals.items())
    found = [(g, n, t) for g in range(2, opt["gmax"] + 1)
             for n in range(1, opt["nmax"] + 1) for t in general_ts(g, n)
             if _hirschowitz(g, n) >= t // 2]
    if as_json:
        return json.dumps([list(x) for x in found]) + "\n"
    return "".join(f"({g}, {n}, {t})\n" for g, n, t in found)


def check_pass_lines(out, n_lines, details=()):
    """A verify suite: n_lines lines, all PASS, carrying the expected details."""
    lines = out.splitlines()
    if len(lines) != n_lines or not all(x.startswith("PASS: ") for x in lines):
        return f"expected {n_lines} PASS lines, got {lines!r}"
    missing = [d for d in details if not any(d in x for x in lines)]
    return f"missing details {missing}" if missing else None
