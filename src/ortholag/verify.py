"""Verification sweeps over small parameter ranges.

Each suite returns a list of Check records; the CLI prints one PASS/FAIL
line per check.  Suites are deterministic: enumeration orders are canonical
and the random sweep takes an explicit seed.  The numeric suites import the
numeric layers when they run, so `tables` and `exceptions` load only strata.
"""

import itertools
import random
from typing import NamedTuple

from .errors import OutOfRange
from .strata import CurveParams, hirschowitz_exceptions, mod4_table, moduli_dim


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def intersection_parity_masks(lagrangians, n):
    """Bitmask per Lagrangian of which others meet it in dimension = n mod 2."""
    masks = []
    for a in lagrangians:
        m = 0
        for j, b in enumerate(lagrangians):
            if (a.intersection(b).dim - n) % 2 == 0:
                m |= 1 << j
        masks.append(m)
    return masks


def parity_suite(n=2, q=3, cap=8):
    """Component labels partition the even Lagrangians into two equal classes."""
    from .fields import GF
    from .lagrange import _split_form, component_of, enumerate_lagrangians
    space = _split_form(GF(q), n, "even", cap)
    lag = enumerate_lagrangians(space, cap=cap)
    ref = lag[0]
    labels = [component_of(space, f, ref).same for f in lag]
    same_ct = sum(labels)
    checks = [Check("two component classes of equal size",
                    same_ct * 2 == len(lag),
                    f"{same_ct} + {len(lag) - same_ct} of {len(lag)}")]
    masks = intersection_parity_masks(lag, n)
    group = {True: 0, False: 0}
    for i, s in enumerate(labels):
        group[s] |= 1 << i
    ok = all(masks[i] == group[labels[i]] for i in range(len(lag)))
    checks.append(Check(
        "intersection parity is exactly the class partition "
        "(reflexive, symmetric, transitive)", ok, f"{len(lag)} Lagrangians"))
    return checks


def _odd_family(n, q, c, cap):
    """The split space of dimension 2n+1 over F_q, its extension by c, and
    the Lagrangians of each: (odd, w, odds, evens).  The odd space's
    refusals come before the extension's."""
    from .fields import GF
    from .lagrange import _split_form, enumerate_lagrangians
    from .orthospace import extend_by_scalar
    odd = _split_form(GF(q), n, "odd", cap)
    odds = enumerate_lagrangians(odd, cap=cap)
    w = extend_by_scalar(odd, c)
    return odd, w, odds, enumerate_lagrangians(w, cap=cap)


def bijection_suite(n=1, q=3, c=-1, cap=8):
    """Odd Lagrangians are in bijection with one even component."""
    from .lagrange import component_of, lagrangian_count
    _, w, odds, evens = _odd_family(n, q, c, cap)
    ref = evens[0]
    same_ct = sum(1 for f in evens if component_of(w, f, ref).same)
    expected = lagrangian_count(q, n, "odd")
    return [
        Check("odd count matches the product formula",
              len(odds) == expected, f"{len(odds)} vs {expected}"),
        Check("each even component matches the odd count",
              same_ct == len(odds) and len(evens) - same_ct == len(odds),
              f"{same_ct} + {len(evens) - same_ct} vs {len(odds)}"),
    ]


def two_to_one_suite(n=1, q=3, c=-1, cap=8):
    """Restriction to the hyperplane is 2:1 and lifts recover the fibers."""
    from .lagrange import (component_of, flip_automorphism, lift_odd_to_even,
                           restrict_even_to_odd)
    from .linalg import Subspace
    odd, w, odds, evens = _odd_family(n, q, c, cap)
    # the odd space is the span of the first dim - 1 basis vectors of w
    v_embed = Subspace.span(w.field, w.dim, [[int(i == j) for j in range(w.dim)]
                                             for i in range(w.dim - 1)])
    flip = flip_automorphism(w)
    fibers = {}
    for f in evens:
        fibers.setdefault(restrict_even_to_odd(w, v_embed, f), []).append(f)
    surj = set(fibers) == set(odds)
    two = all(len(v) == 2 for v in fibers.values())
    flip_ok = all(v[0].apply(flip) == v[1] and v[1].apply(flip) == v[0]
                  for v in fibers.values() if len(v) == 2)
    opposite = all(not component_of(w, v[0], v[1]).same
                   for v in fibers.values() if len(v) == 2)
    lifts_ok = True
    for e, v in fibers.items():
        pair = lift_odd_to_even(odd, e, c)
        if {pair.plus_lift, pair.minus_lift} != set(v):
            lifts_ok = False
    return [
        Check("restriction lands on every odd Lagrangian", surj,
              f"{len(fibers)} fibers, {len(odds)} odd Lagrangians"),
        Check("every fiber has exactly two elements", two,
              f"{len(evens)} even Lagrangians"),
        Check("the flip automorphism swaps each fiber", flip_ok, ""),
        Check("fiber elements lie in opposite components", opposite, ""),
        Check("computed lifts reproduce each fiber", lifts_ok, ""),
    ]


def corank_suite(n=2, q=3, cap=8):
    """Complements of odd Lagrangians always meet in dimension r + 1."""
    from .fields import GF
    from .lagrange import (_split_form, complement_corank_law,
                           enumerate_lagrangians)
    odd = _split_form(GF(q), n, "odd", cap)
    lag = enumerate_lagrangians(odd, cap=cap)
    bad = 0
    for a in lag:
        for b in lag:
            rec = complement_corank_law(odd, a, b)
            if rec.h != rec.r + 1:
                bad += 1
    return [Check("h = r + 1 over all ordered pairs", bad == 0,
                  f"{len(lag) ** 2} pairs, {bad} violations")]


def _no_isotropic_vector(space):
    p = space.field.p
    zero = space.field.zero
    for cand in itertools.product(range(p), repeat=space.dim):
        if not any(cand):
            continue
        v = tuple(space.field.scalar(x) for x in cand)
        if space.qvalue(v) == zero:
            return False
    return True


# the random Gram matrices of witt_suite: their fields and largest dimension
WITT_FIELDS = (3, 5)
WITT_MAX_DIM = 6


def witt_suite(samples=200, seed=0):
    """Random and exhaustive Witt decomposition checks over F_3 and F_5."""
    from .fields import GF
    from .linalg import Matrix
    from .orthospace import GramSpace, isometry_check, witt_decompose
    if samples < 0:
        raise OutOfRange(f"samples must be at least 0, got {samples}")
    rng = random.Random(seed)
    count = bad = 0
    while count < samples:
        q = rng.choice(WITT_FIELDS)
        d = rng.randint(1, WITT_MAX_DIM)
        field = GF(q)
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randrange(q)
        space = GramSpace(field, rows)
        if not space.nondegenerate:
            continue
        count += 1
        wd = witt_decompose(space)
        m = d // 2
        ok = isometry_check(space, GramSpace(field, wd.block_gram),
                            wd.change_of_basis)
        ok = ok and (wd.witt_index == m if d % 2 else wd.witt_index in (m - 1, m))
        ok = ok and _no_isotropic_vector(wd.anisotropic_part)
        if not ok:
            bad += 1
    checks = [Check("random Gram matrices: block isometry, index range, "
                    "anisotropic remainder", bad == 0,
                    f"{count} samples, {bad} failures")]

    for q in WITT_FIELDS:
        field = GF(q)
        bad_odd = 0
        total = 0
        for d in (1, 3, 5):
            for diag in itertools.product(range(1, q), repeat=d):
                total += 1
                space = GramSpace(field, Matrix.diagonal(field, diag))
                if witt_decompose(space).witt_index != d // 2:
                    bad_odd += 1
        checks.append(Check(
            f"odd dimensional diagonal forms over F_{q} all have maximal index",
            bad_odd == 0, f"{total} forms"))
    field = GF(3)
    bad_even = 0
    total = 0
    for d in (2, 4, 6):
        for diag in itertools.product(range(1, 3), repeat=d):
            total += 1
            idx = witt_decompose(
                GramSpace(field, Matrix.diagonal(field, diag))).witt_index
            if idx not in (d // 2 - 1, d // 2):
                bad_even += 1
    checks.append(Check(
        "even dimensional diagonal forms over F_3 have index m or m-1",
        bad_even == 0, f"{total} forms"))
    return checks


# one frozen table per N mod 4 residue: (t, component, dim_max_lagrangians)
EXPECTED_TABLES = {
    (3, 1): ((4, "+", 0), (6, "-", 1)),
    (4, 2): ((10, "-", 1), (12, "+", 3)),
    (3, 2): ((6, "-", 0), (8, "+", 2)),
    (2, 2): ((4, "+", 1), (6, "-", 3)),
}


def tables_suite():
    """General-bundle tables for one representative of each N mod 4 class."""
    checks = []
    for (g, n), want in sorted(EXPECTED_TABLES.items()):
        p = CurveParams(g, n)
        rows = mod4_table(p)
        got = tuple((r.t, r.component, r.dim_max_lagrangians) for r in rows)
        dense = all(r.stratum_dim == moduli_dim(p) for r in rows)
        checks.append(Check(
            f"g={g} n={n} (N mod 4 = {p.N % 4}) table rows", got == want,
            f"got {got}, want {want}"))
        checks.append(Check(
            f"g={g} n={n} general rows are dense strata", dense, ""))
    return checks


def exception_families(g_max, n_max):
    """The four known families where the subbundle bound is not strict.

    g=2 with t=n+1 (n odd) or t=n+2 (n even); g=3 with t=2(n+1); and g=4,
    n odd, t=3(n+1), which starts at n=3: for n=1 the bound is 2 while
    t/2 = 3, so the comparison is already strict there.
    """
    out = set()
    for n in range(1, n_max + 1):
        if g_max >= 2:
            out.add((2, n, n + 1 if n % 2 else n + 2))
        if g_max >= 3:
            out.add((3, n, 2 * (n + 1)))
        if g_max >= 4 and n % 2 and n >= 3:
            out.add((4, n, 3 * (n + 1)))
    return out


def exceptions_suite(g_max=10, n_max=20):
    """Direct bound comparison reproduces exactly the four known families."""
    got = set(hirschowitz_exceptions(g_max, n_max))
    want = exception_families(g_max, n_max)
    extra = sorted(got - want)
    missing = sorted(want - got)
    detail = f"{len(got)} found"
    if extra:
        detail += f"; extra {extra}"
    if missing:
        detail += f"; missing {missing}"
    return [Check("exception scan equals the known families",
                  got == want, detail)]


SUITES = {
    "parity": parity_suite,
    "bijection": bijection_suite,
    "two_to_one": two_to_one_suite,
    "corank": corank_suite,
    "witt": witt_suite,
    "tables": tables_suite,
    "exceptions": exceptions_suite,
}


def suite_options(name):
    """The keywords suite name takes, read from its signature (through any
    functools.wraps wrapper)."""
    fn = SUITES[name]
    code = getattr(fn, "__wrapped__", fn).__code__
    return code.co_varnames[:code.co_argcount]
