"""The benchmark's workloads: inputs from the seed, the timed call, the check.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Operation i fills
slot i mod len(cycle) of a fixed cycle, and the seed draws only the random
parts of that slot (matrices, pairs, parameters) from Random("name:seed:i").
The mix of work is therefore the same for every seed, runs are made of
whole cycles, and the spread between seeds comes from the inputs alone.

Calls go through the ortholag namespace at call time, so that the traced
run sees them.  The program sees only generated inputs.  Results are turned
into plain ints and Fractions before checks.py judges them.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import checks
import ortholag as ol
import ortholag.cli  # noqa: F401  (binds ol.cli)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def python_child(args):
    """Run the interpreter on args from the checkout root.

    Returns (wall seconds, exit code, stdout).
    """
    start = time.perf_counter()
    done = subprocess.run([sys.executable] + list(args), cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - start, done.returncode, done.stdout


def ints(m):
    """Entries of a Matrix (or a Subspace's basis) as nested lists of values."""
    return [[x.value for x in r] for r in m.entries]


def basis(s):
    return ints(s.basis)


# --- input generation: plain ints and Fractions, no ortholag ----------------

def std_gram(d):
    """Gram matrix of standard_form: hyperbolic pairs, then 1 if d is odd."""
    g = [[0] * d for _ in range(d)]
    for i in range(d // 2):
        g[2 * i][2 * i + 1] = g[2 * i + 1][2 * i] = 1
    if d % 2:
        g[d - 1][d - 1] = 1
    return g


def conj(g, b, p=None):
    """b^T g b."""
    return checks.matmul(checks.matmul(checks.transpose(b), g, p), b, p)


def random_invertible(rng, d, p=None):
    """Over F_p, or over Q with entries in [-2, 2]."""
    while True:
        b = [[rng.randrange(p) if p else rng.randint(-2, 2) for _ in range(d)]
             for _ in range(d)]
        if checks.det(b, p):
            return b


def unitriangular(rng, d):
    return [[1 if i == j else rng.randint(-1, 1) if j > i else 0
             for j in range(d)] for i in range(d)]


def signed_permutation(rng, d):
    perm = rng.sample(range(d), d)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(d)]
            for i in range(d)]


def random_fp_form(rng, p, d, aniso):
    """Random nondegenerate symmetric matrix over F_p of a prescribed class.

    For even d, aniso selects Witt index d/2 - 1 (anisotropic plane left
    over) against d/2; the discriminant decides which, so rejection
    sampling on it draws uniformly from the class.
    """
    while True:
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                g[i][j] = g[j][i] = rng.randrange(p)
        if checks.det(g, p) == 0:
            continue
        if d % 2 or (checks.fp_witt_index(g, p) < d // 2) == aniso:
            return g


def random_lagrangian(rng, g, p):
    """A random Lagrangian of gram g over F_p, by rejection, canonical rows."""
    d, rows = len(g), []
    while len(rows) < d // 2:
        v = [rng.randrange(p) for _ in range(d)]
        if (checks.pair(v, g, v, p) == 0
                and all(checks.pair(v, g, r, p) == 0 for r in rows)
                and checks.rank(rows + [v], p) == len(rows) + 1):
            rows.append(v)
    return checks.rref(rows, p)[0]


def split_scalar(rng, p):
    """c with -c a nonzero square, so that the odd form extended by c splits."""
    return -rng.randrange(1, p) ** 2 % p


class _Box:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def interpreter_probe():
    """Seconds taken by a fixed slice of work like the program's own:
    small objects, int arithmetic mod a prime, and Fractions."""
    start = time.perf_counter()
    acc, f = 0, Fraction(1)
    for i in range(1500):
        acc = _Box((acc * 31 + i) % 1000003).v
    for i in range(1, 40):
        f = f * Fraction(i, i + 1) + 1
    return time.perf_counter() - start


class Workload:
    """One workload: a cycle of slots, set-up, and per-operation hooks."""

    name = ""
    why = ""
    cycle = ()
    max_cycles = None  # stop after this many cycles whatever the time
    deadline = None    # seconds per operation, None for no deadline
    trace_cycles = 1   # whole cycles run by each pass of a traced run
    # probe() on the calibration host (Intel Xeon, 2 vCPUs, Python 3.11.7)
    # at full speed; run.py scales timings by it
    probe_ref_s = 0.0006

    def __init__(self, seed, inproc=False):
        self.seed = seed
        self.inproc = inproc

    def setup(self):
        """Work done before the timed loop; the result is kept on self."""

    def probe(self):
        """Time a fixed amount of work, to follow the host's speed."""
        return interpreter_probe()

    def rng(self, i):
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def slot(self, i):
        return self.cycle[i % len(self.cycle)]

    def make(self, i):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError


class Enumerate(Workload):
    name = "enumerate"
    why = ("closed loop, 1 client: enumerate_lagrangians on split forms of dim "
           "3-5 over F_3..F_13, half conjugated; the lagrange layer's "
           "generate-then-dedupe does the work, so enumeration by cells shows")
    # (q, dim, conjugated): 15 standard and 17 conjugated slots.  Dimension
    # 6 is left out: over F_3 alone it takes 4.6 s, half a run.  With these
    # 32 slots p50 falls in the middle of the four F_11 dimension-3 slots
    # and p90 inside the two F_11 dimension-4 ones, not at the edge of a
    # gap between unlike operations.
    cycle = tuple(
        [(q, 3, c) for q, k in ((3, 3), (5, 2), (7, 2), (11, 2), (13, 1))
         for c in (False, True) * k]
        + [(q, 4, c) for q in (3, 5, 7, 11) for c in (False, True)]
        + [(13, 4, True), (3, 5, False), (3, 5, True), (5, 5, True)])

    def make(self, i):
        q, d, conjugated = self.slot(i)
        g = std_gram(d)
        if conjugated:
            g = conj(g, random_invertible(self.rng(i), d, q), q)
        return {"q": q, "d": d, "gram": g, "standard": not conjugated}

    def call(self, inp):
        field, d = ol.GF(inp["q"]), inp["d"]
        if inp["standard"]:
            space = ol.standard_form(field, d // 2, "odd" if d % 2 else "even")
        else:
            space = ol.GramSpace(field, inp["gram"])
        return ol.enumerate_lagrangians(space)

    def check(self, inp, out):
        return checks.check_lagrangian_list(inp["gram"], inp["q"],
                                            [basis(s) for s in out])


# primes for Witt inputs whose remainder is an anisotropic plane: the p^2
# self-check makes these cost about 0.03 ms * p^2, so they stop at 113
_ANISO_PRIMES = (3, 7, 13, 23, 31, 43, 61, 79, 97, 113)
_OTHER_PRIMES = (5, 11, 17, 29, 41, 59, 83, 127, 167, 211, 263, 307, 353, 401,
                 449)


class Witt(Workload):
    name = "witt"
    why = ("closed loop, 1 client: witt_decompose on all-distinct random forms "
           "over F_p (p 3-449, dim 1-6) and Q; orthospace and its isotropic "
           "search do the work, so exact isotropy tests show; no cache helps")
    deadline = 10.0
    trace_cycles = 2
    # (kind, p, dim, anisotropic plane left over); p is None over Q.  36
    # slots put p90 in the middle of the p = 61 anisotropic slots.
    cycle = tuple(
        [("fp", p, (2, 4, 6)[k % 3], True) for k, p in enumerate(_ANISO_PRIMES)]
        + [("fp", p, k % 6 + 1, False) for k, p in enumerate(_OTHER_PRIMES)]
        + [("q-split", None, d, False) for d in (2, 2, 3, 3, 4, 5)]
        + [("q-definite", None, d, True) for d in (1, 2, 3, 4, 5)])

    def make(self, i):
        rng, (kind, p, d, aniso) = self.rng(i), self.slot(i)
        if kind == "fp":
            g = random_fp_form(rng, p, d, aniso)
            return {"p": p, "gram": g, "index": checks.fp_witt_index(g, p)}
        if kind == "q-split":
            # signed permutations keep an isotropic vector of height 2 in
            # reach; general basis changes in dimension 3 and up can make the
            # height search give up or hang, and are in witt-refusals
            b = random_invertible(rng, d) if d == 2 else signed_permutation(rng, d)
            scale = rng.choice((1, -1, 2, -2, 3, -3))
            g = [[scale * x for x in r] for r in conj(std_gram(d), b)]
            return {"p": None, "gram": g, "index": d // 2}
        sign = rng.choice((1, -1))
        diag = [[Fraction(sign * rng.randint(1, 9), rng.randint(1, 4))
                 if i == j else 0 for j in range(d)] for i in range(d)]
        return {"p": None, "gram": conj(diag, unitriangular(rng, d)),
                "index": 0}

    def call(self, inp):
        field = ol.GF(inp["p"]) if inp["p"] else ol.QQ
        return ol.witt_decompose(ol.GramSpace(field, inp["gram"]))

    def check(self, inp, out):
        return checks.check_witt(inp["gram"], inp["p"], ints(out.change_of_basis),
                                 out.witt_index, ints(out.anisotropic_part.gram),
                                 inp["index"])


class WittRefusals(Witt):
    """Split forms over Q under general small integer basis changes.

    witt_decompose refuses most of these with IsotropicSearchExhausted or
    runs past the deadline: the open defect that exact isotropy decisions
    over Q (Hasse-Minkowski) are meant to remove.  The set is fixed and small,
    run once, and every failure is listed by its input index.  It is not
    in BENCHMARK.json, whose workloads must not fail.
    """

    name = "witt-refusals"
    cycle = tuple(("q-hard", None, d, False) for d in (3, 4, 5)
                  for _ in range(4))
    max_cycles = 1
    trace_cycles = 1

    def make(self, i):
        d = self.slot(i)[2]
        b = random_invertible(self.rng(i), d)
        return {"p": None, "gram": conj(std_gram(d), b), "index": d // 2}


class Incidence(Workload):
    name = "incidence"
    why = ("closed loop, 1 client: component, corank law and restrict/lift/flip "
           "over Lagrangian families enumerated in set-up; linalg and scalar "
           "boxing do the work on a small repeated working set")
    trace_cycles = 25
    # component on even families, corank on odd ones, fibers on extensions
    cycle = (("component", 3), ("corank", 3), ("fiber", 3),
             ("component", 5), ("corank", 5), ("fiber", 5)) * 2

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        fam = {}
        # per field: the odd space of dimension 5 for the corank law, and W,
        # the extension of the dimension-3 one by c, for components and
        # fibers.  Extending dimension 5 instead would put 4.6 s (F_3) or
        # 61 s (F_5) of enumeration into every set-up.
        for q in (3, 5):
            field = ol.GF(q)
            c = split_scalar(rng, q)
            base = ol.standard_form(field, 1, "odd")
            w = ol.extend_by_scalar(base, c)
            odd = ol.standard_form(field, 2, "odd")
            ident = [[int(i == j) for j in range(w.dim)] for i in range(w.dim)]
            fam[q] = {
                "c": c, "base": base, "w": w, "odd": odd,
                "odds": ol.enumerate_lagrangians(odd),
                "evens": ol.enumerate_lagrangians(w),
                "v_embed": ol.Subspace.span(field, w.dim, ident[:-1]),
                "flip": ol.flip_automorphism(w),
                "gram_w": ints(w.gram),
            }
        self.fam = fam

    def make(self, i):
        rng, (kind, q) = self.rng(i), self.slot(i)
        lag = self.fam[q]["odds" if kind == "corank" else "evens"]
        return {"kind": kind, "q": q, "a": rng.randrange(len(lag)),
                "b": rng.randrange(len(lag))}

    def call(self, inp):
        fam, kind = self.fam[inp["q"]], inp["kind"]
        if kind == "component":
            return ol.component_of(fam["w"], fam["evens"][inp["a"]],
                                   fam["evens"][inp["b"]])
        if kind == "corank":
            return ol.complement_corank_law(fam["odd"], fam["odds"][inp["a"]],
                                            fam["odds"][inp["b"]])
        f = fam["evens"][inp["a"]]
        e = ol.restrict_even_to_odd(fam["w"], fam["v_embed"], f)
        pair = ol.lift_odd_to_even(fam["base"], e, fam["c"])
        return e, pair, f.apply(fam["flip"])

    def check(self, inp, out):
        fam, q, kind = self.fam[inp["q"]], inp["q"], inp["kind"]
        if kind == "component":
            return checks.check_component(
                fam["w"].dim // 2, q, basis(fam["evens"][inp["a"]]),
                basis(fam["evens"][inp["b"]]), out.label)
        if kind == "corank":
            return checks.check_corank(q, basis(fam["odds"][inp["a"]]),
                                       basis(fam["odds"][inp["b"]]),
                                       out.r, out.h)
        e, pair, flipped = out
        return checks.check_fiber(fam["gram_w"], q,
                                  basis(fam["evens"][inp["a"]]), basis(e),
                                  basis(pair.plus_lift), basis(pair.minus_lift),
                                  basis(flipped))


# verify suites run with their defaults: (suite, PASS lines, details)
_SUITES = {
    "tables": (8, ()),
    "exceptions": (1, ()),
    "parity": (2, (f"4 + 4 of {checks.lagrangian_count(3, 4)}",)),
    "bijection": (2, ("4 vs 4", "4 + 4 vs 4")),
    "two_to_one": (5, ("4 fibers, 4 odd Lagrangians", "8 even Lagrangians")),
}


class Cli(Workload):
    name = "cli"
    why = ("closed loop, 1 client: python -m ortholag as one subprocess at a "
           "time over strata, og and verify commands; interpreter start, "
           "import, argparse, jsonio and strata are measured only here")
    trace_cycles = 5
    # the calls run in child processes, whose speed an in-process probe does
    # not follow; a bare interpreter start does
    probe_ref_s = 0.040
    cycle = (("table",), ("stratum",), ("bounds",), ("exceptions",),
             ("count",), ("table",), ("stratum",), ("bounds",), ("json",),
             ("lift",), ("component",), ("count",), ("stratum",), ("lift",),
             ("component",)) + tuple(("verify", s) for s in _SUITES)

    @staticmethod
    def probe():
        return python_child(["-c", "pass"])[0]

    def make(self, i):
        rng, kind = self.rng(i), self.slot(i)[0]
        js = ["--json"] if rng.random() < 0.5 else []
        g, n = rng.randint(2, 12), rng.randint(1, 10)
        if kind == "table":
            return {"argv": ["strata", "table", "--g", str(g), "--n", str(n)] + js}
        if kind == "stratum":
            t = 2 * rng.randint(1, ((n + 1) * (g - 1) + 3) // 2)
            return {"argv": ["strata", "stratum", "--g", str(g), "--n", str(n),
                             "--t", str(t)] + js}
        if kind == "bounds":
            return {"argv": ["strata", "bounds", "--g", str(g), "--n", str(n)] + js}
        if kind == "exceptions":
            return {"argv": ["strata", "exceptions", "--gmax",
                             str(rng.randint(2, 10)), "--nmax",
                             str(rng.randint(1, 20))] + js}
        if kind == "verify":
            return {"argv": ["verify", self.slot(i)[1]]}
        q = rng.choice((3, 5, 7))
        if kind == "count":
            shape = rng.choice(("even", "odd"))
            n = 2 if q == 3 and shape == "even" else 1
            return {"argv": ["og", "enumerate", "--q", str(q), "--n", str(n),
                             "--shape", shape, "--count-only"],
                    "q": q, "d": 2 * n + (shape == "odd")}
        if kind == "json":
            q, shape = rng.choice((3, 5)), rng.choice(("even", "odd"))
            return {"argv": ["og", "enumerate", "--q", str(q), "--n", "1",
                             "--shape", shape, "--json"],
                    "q": q, "gram": std_gram(2 + (shape == "odd"))}
        if kind == "lift":
            c = split_scalar(rng, q)
            e = random_lagrangian(rng, std_gram(3), q)
            gram_w = [r + [0] for r in std_gram(3)] + [[0, 0, 0, c]]
            return {"argv": ["og", "lift", "--q", str(q), "--n", "1",
                             "--c", str(c), "--e", json.dumps(e)],
                    "q": q, "e": e, "gram_w": gram_w}
        n = rng.choice((1, 2))
        f = random_lagrangian(rng, std_gram(2 * n), q)
        ref = random_lagrangian(rng, std_gram(2 * n), q)
        label = "same" if (checks.meet_dim(f, ref, q) - n) % 2 == 0 else "other"
        return {"argv": ["og", "component", "--q", str(q), "--n", str(n),
                         "--e", json.dumps(f), "--ref", json.dumps(ref)],
                "expect": label + "\n"}

    def call(self, inp):
        if self.inproc:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ol.cli.main(inp["argv"])
            return code, buf.getvalue()
        return python_child(["-m", "ortholag"] + inp["argv"])[1:]

    def check(self, inp, out):
        code, text = out
        argv = inp["argv"]
        if code != 0:
            return f"exit code {code}"
        if argv[0] == "strata":
            want = checks.strata_expected(argv)
            return None if text == want else f"stdout {text!r} != {want!r}"
        if argv[0] == "verify":
            n_lines, details = _SUITES[argv[1]]
            return checks.check_pass_lines(text, n_lines, details)
        if "--count-only" in argv:
            want = f"{checks.lagrangian_count(inp['q'], inp['d'])}\n"
            return None if text == want else f"count {text!r} != {want!r}"
        if "expect" in inp:
            return None if text == inp["expect"] else f"label {text!r}"
        obj = json.loads(text)
        if text != json.dumps(obj) + "\n":
            return "stdout is not one compact JSON line"
        if argv[1] == "lift":
            plus, minus = obj["plus"]["basis"], obj["minus"]["basis"]
            return checks.check_lifts(inp["gram_w"], inp["q"], inp["e"],
                                      plus, minus)
        return checks.check_lagrangian_list(inp["gram"], inp["q"],
                                            [s["basis"] for s in obj])


WORKLOADS = {w.name: w for w in (Enumerate, Witt, Incidence, Cli, WittRefusals)}


_TIMED_IMPORT = ("import time; t = time.perf_counter(); import ortholag.cli; "
                 "print(time.perf_counter() - t)")


def fresh_import_s():
    """Import time of ortholag.cli in a fresh interpreter, at reference speed
    (scaled by a bare interpreter start, the cli workload's probe)."""
    _, _, out = python_child(["-c", _TIMED_IMPORT])
    return float(out) * Cli.probe_ref_s / Cli.probe()
