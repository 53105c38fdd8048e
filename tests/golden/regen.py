"""The golden corpora: what `ortholag` prints and answers, case by case.

cli.json: each case is one command line.  It records, for each case in
CASES, its argv, exit code, stdout and stderr as `cli.main` produces them in
process, with COLUMNS=80 (argparse wraps help to the terminal width) and the
repository root as the working directory (the file cases name paths under
tests/golden/inputs).

witt.json: each case is one form, named by its "case" and given by its
field and Gram matrix, with rationals written as in ortholag.jsonio.  It
records the change of basis, block Gram matrix and Witt index of
witt_decompose, or the type and message of its refusal.  The forms are one
cycle of the benchmark's witt workload at seed 0 and its witt-refusals
inputs at seed 1 (both from perfbench/workloads.py), six rational forms
whose isotropy is known, and conjugated split forms over Q of dimension 3
to 8.  Similarity cases give a "src" and a "dst" form over F_p in place of
the Gram matrix and record the (lambda, x) of find_similarity.

tests/test_golden.py replays every CLI case and every Witt case except the
slow split forms of dimension 5 and up, which only --check replays.

    python tests/golden/regen.py           # rewrite both corpora from this tree
    python tests/golden/regen.py --check   # exit 1 naming each stale case

A change that alters a recorded output on purpose regenerates the corpus and
lists each changed case, with its reason, in CHANGES.md.
"""

import contextlib
import io
import json
import os
import random
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CORPUS = os.path.join(HERE, "cli.json")
WITT_CORPUS = os.path.join(HERE, "witt.json")
INPUTS = "tests/golden/inputs"

SPLIT4 = "[[1,0,0,0],[0,0,1,0]]"
OTHER4 = "[[0,1,0,0],[0,0,1,0]]"


def _help_cases():
    parsers = ([], ["strata"], ["og"], ["verify"]) + tuple(
        ["strata", c] for c in ("table", "stratum", "bounds", "exceptions")
    ) + tuple(["og", c] for c in ("enumerate", "lift", "component", "verify"))
    return [p + ["-h"] for p in parsers]


def _strata_cases():
    cases = []
    for g, n in ((3, 1), (4, 2), (3, 2), (2, 2), (2, 1), (5, 3), (12, 10)):
        for js in ([], ["--json"]):
            cases.append(["strata", "table", "--g", str(g), "--n", str(n)] + js)
            cases.append(["strata", "bounds", "--g", str(g), "--n", str(n)] + js)
    cases += [["strata", "bounds", "--g", "2", "--n", "4", "--json"]]
    for g, n, t in ((3, 2, 8), (2, 1, 2), (3, 1, 4), (4, 2, 12), (5, 3, 2),
                    (6, 4, 30), (2, 3, 100)):
        for js in ([], ["--json"]):
            cases.append(["strata", "stratum", "--g", str(g), "--n", str(n),
                          "--t", str(t)] + js)
    cases += [
        ["strata", "exceptions"],
        ["strata", "exceptions", "--json"],
        ["strata", "exceptions", "--gmax", "4", "--nmax", "3"],
        ["strata", "exceptions", "--gmax", "4", "--nmax", "3", "--json"],
        ["strata", "exceptions", "--gmax", "2", "--nmax", "1"],
        # domain errors
        ["strata", "stratum", "--g", "3", "--n", "2", "--t", "7"],
        ["strata", "stratum", "--g", "1", "--n", "2", "--t", "2"],
        ["strata", "stratum", "--g", "3", "--n", "2", "--t", "0"],
        ["strata", "stratum", "--g", "3", "--n", "2", "--t", "-2"],
        ["strata", "table", "--g", "1", "--n", "1"],
        ["strata", "table", "--g", "3", "--n", "0"],
        ["strata", "bounds", "--g", "0", "--n", "2", "--json"],
        ["strata", "exceptions", "--gmax", "1"],
        ["strata", "exceptions", "--nmax", "0", "--json"],
    ]
    return cases


def _enumerate_cases():
    enum = ["og", "enumerate"]
    cases = [
        enum + ["--q", "3", "--n", "1", "--shape", "odd"],
        enum + ["--q", "3", "--n", "1", "--shape", "odd", "--json"],
        enum + ["--q", "3", "--n", "1"],
        enum + ["--q", "5", "--n", "1", "--shape", "odd", "--json"],
        enum + ["--q", "5", "--n", "1", "--shape", "even"],
        enum + ["--q", "3", "--n", "2"],
        enum + ["--q", "3", "--n", "2", "--json"],
        enum + ["--q", "7", "--n", "1", "--shape", "odd"],
        enum + ["--q", "3", "--gram", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"],
        enum + ["--q", "3", "--gram", "[[0,1],[1,0]]", "--json"],
        enum + ["--q", "5", "--gram", "[[2,1,0],[1,3,1],[0,1,4]]"],
        enum + ["--q", "3", "--gram", '{"field": {"type": "Fp", "p": 5}, '
                '"gram": [[0,1],[1,0]]}'],
        enum + ["--q", "3", "--gram-file", f"{INPUTS}/gram_object.json"],
        enum + ["--q", "5", "--gram-file", f"{INPUTS}/gram_rows.json"],
    ]
    for q, n, shape in ((3, 1, "odd"), (3, 2, "even"), (5, 2, "odd"),
                        (7, 1, "even"), (101, 3, "even")):
        cases.append(enum + ["--q", str(q), "--n", str(n), "--shape", shape,
                             "--count-only"])
    cases += [
        enum + ["--q", "1009", "--n", "4", "--shape", "odd", "--cap", "9",
                "--count-only"],
        enum + ["--q", "3", "--gram-file", f"{INPUTS}/gram_object.json",
                "--count-only"],
    ]
    for gram in ("[]", "[[1]]", "[[2]]"):
        cases.append(enum + ["--q", "3", "--gram", gram])
        cases.append(enum + ["--q", "3", "--gram", gram, "--count-only"])
    refusals = [
        ["--q", "4"],
        ["--q", "3"],
        ["--q", "4", "--n", "1"],
        ["--q", "2", "--n", "1"],
        ["--q", "1", "--n", "1"],
        ["--q", "3", "--n", "0", "--cap", "1"],
        ["--q", "3", "--n", "5"],
        ["--q", "3", "--n", "2", "--cap", "3"],
        ["--q", "3", "--gram", '{"field": {"type": "Q"}, "gram": '
         '[[1,0,0],[0,1,0],[0,0,1]]}', "--cap", "2"],
        ["--q", "3", "--gram", "[[1,0,0],[0,0,0],[0,0,1]]", "--cap", "2"],
        ["--q", "3", "--gram", "[[1,0],[0,0]]"],
        ["--q", "3", "--gram", "[[1,0],[0,1]]"],
        ["--q", "5", "--gram", "[[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]"],
    ]
    for args in refusals:
        cases.append(enum + args)
        cases.append(enum + args + ["--count-only"])
    malformed = [
        ["--q", "3", "--gram", "[[1,2],[0,1]]"],
        ["--q", "3", "--gram", '{"gram": [[0,1],[1,0]]}'],
        ["--q", "3", "--gram", '[["a"]]'],
        ["--q", "3", "--gram", "7"],
        ["--q", "3", "--gram", '{"field": 5, "gram": [[1]]}'],
        ["--q", "3", "--gram", '{"field": {"type": "R"}, "gram": [[1]]}'],
        # p must be an int that is not a bool
        ["--q", "3", "--gram", '{"field": {"type": "Fp", "p": "5"}, '
         '"gram": [[0,1],[1,0]]}'],
        ["--q", "3", "--gram", '{"field": {"type": "Fp", "p": true}, '
         '"gram": [[0,1],[1,0]]}'],
        ["--q", "3", "--gram", '{"field": {"type": "Fp", "p": 5.0}, '
         '"gram": [[0,1],[1,0]]}'],
        ["--q", "3", "--gram", "[[1,0],[0"],
        ["--q", "3", "--gram", "[[true,0],[0,1]]"],
        ["--q", "3", "--gram", "[[1.5,0],[0,1]]"],
        ["--q", "3", "--gram", '[["1/3",0],[0,1]]'],
        ["--q", "3", "--gram", "[[1,0,0],[0,1]]"],
        ["--q", "3", "--gram", "[1,2]"],
        ["--q", "3", "--gram-file", f"{INPUTS}/no-such-file.json"],
        ["--q", "3", "--gram-file", f"{INPUTS}/malformed.json"],
    ]
    cases += [enum + args for args in malformed]
    return cases


def _lift_cases():
    lift = ["og", "lift"]
    cases = [
        lift + ["--q", "5", "--n", "1", "--c", "1", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "[[0,1,0]]"],
        lift + ["--q", "3", "--n", "1", "--c", "-1", "--e", "[[1,0,0]]"],
        lift + ["--q", "3", "--n", "1", "--c", "2", "--e", "[[0,1,0]]"],
        lift + ["--q", "7", "--n", "1", "--c", "3", "--e", "[[1,0,0]]"],
        lift + ["--q", "3", "--n", "2", "--c", "-1",
                "--e", "[[1,0,0,0,0],[0,0,1,0,0]]"],
        lift + ["--q", "5", "--n", "2", "--c", "4",
                "--e", '{"ambient": 5, "basis": [[0,1,0,0,0],[0,0,0,1,0]]}'],
        lift + ["--q", "5", "--n", "1", "--c", "8/2", "--e-file",
                f"{INPUTS}/e_object.json"],
        lift + ["--q", "5", "--n", "1", "--c", "1/2", "--e-file",
                f"{INPUTS}/e_rows.json"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "[[2,0,0]]"],
        # domain errors and malformed input
        lift + ["--q", "3", "--n", "1", "--c", "1", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "1/0", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "1/5", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "0", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "5", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "1", "--e", "[[1,0"],
        lift + ["--q", "5", "--n", "1", "--c", "abc", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "1.5", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", '{"basis": [[0,1,0]]}'],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e", '{"ambient": 3, "basis": 5}'],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e", '{"ambient": 4, "basis": [[1,0,0,0]]}'],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e", '{"ambient": true, "basis": [[1,0,0]]}'],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e", '{"ambient": "3", "basis": [[1,0,0]]}'],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "[[0,0,1]]"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "[]"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "[[1,0]]"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", "3"],
        lift + ["--q", "5", "--n", "1", "--c", "-1", "--e", '"x"'],
        lift + ["--q", "5", "--n", "1", "--c", "-1"],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e-file", f"{INPUTS}/no-such-file.json"],
        lift + ["--q", "5", "--n", "1", "--c", "-1",
                "--e-file", f"{INPUTS}/malformed.json"],
        lift + ["--q", "4", "--n", "1", "--c", "1", "--e", "[[1,0,0]]"],
        lift + ["--q", "5", "--n", "0", "--c", "1", "--e", "[]"],
    ]
    return cases


def _component_cases():
    comp = ["og", "component"]
    cases = [
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4, "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4, "--ref", OTHER4],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4, "--ref", OTHER4, "--json"],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4, "--ref", SPLIT4, "--json"],
        comp + ["--q", "5", "--n", "1", "--e", "[[1,0]]", "--ref", "[[0,1]]"],
        comp + ["--q", "5", "--n", "1", "--e", "[[1,0]]", "--ref-file",
                f"{INPUTS}/ref_object.json"],
        comp + ["--q", "5", "--n", "1", "--e-file", f"{INPUTS}/ref_object.json",
                "--ref", '{"ambient": 2, "basis": [[1,0]]}', "--json"],
        comp + ["--q", "7", "--n", "2", "--e", "[[1,0,0,0],[0,0,1,0]]",
                "--ref", "[[1,0,0,0],[0,0,0,1]]"],
        # domain errors and malformed input
        comp + ["--q", "3", "--n", "2", "--e", "[[1,0,0,0]]", "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4, "--ref", "[[1,1,0,0]]"],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", "[[1,0,0]]", "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", '{"ambient": true, "basis": []}',
                "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", '{"ambient": -1, "basis": []}',
                "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", '{"ambient": 4.0, "basis": []}',
                "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", '{"ambient": null, "basis": []}',
                "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4,
                "--ref", '{"ambient": false, "basis": []}'],
        comp + ["--q", "3", "--n", "2", "--e", '{"ambient": 4, "basis": [1]}',
                "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "2", "--e", '[["x",0,0,0]]', "--ref", SPLIT4],
        comp + ["--q", "3", "--n", "0", "--e", "[]", "--ref", "[]"],
        comp + ["--q", "9", "--n", "1", "--e", "[[1,0]]", "--ref", "[[0,1]]"],
        comp + ["--q", "3", "--n", "2", "--e", SPLIT4,
                "--ref-file", f"{INPUTS}/no-such-file.json"],
    ]
    return cases


def _verify_cases():
    cases = []
    for prefix in (["verify"], ["og", "verify"]):
        cases += [
            prefix + ["tables"],
            prefix + ["exceptions"],
            prefix + ["parity", "--n", "1", "--q", "3"],
            prefix + ["corank", "--n", "1"],
        ]
    cases += [
        ["verify", "exceptions", "--gmax", "6", "--nmax", "6"],
        ["verify", "exceptions", "--gmax", "2", "--nmax", "1"],
        ["verify", "exceptions", "--gmax", "1"],
        ["verify", "exceptions", "--nmax", "0"],
        ["verify", "parity"],
        ["verify", "parity", "--n", "1", "--q", "5"],
        ["verify", "parity", "--n", "1", "--q", "3", "--cap", "1"],
        ["verify", "parity", "--n", "1", "--q", "4"],
        ["verify", "parity", "--n", "0"],
        ["verify", "corank", "--n", "1", "--q", "5"],
        ["verify", "corank", "--n", "1", "--cap", "2"],
        ["verify", "witt", "--samples", "5"],
        ["verify", "witt", "--samples", "-1"],
        ["verify", "witt", "--samples", "-7", "--seed", "2"],
        ["verify", "bijection"],
        ["verify", "bijection", "--q", "5", "--c", "1"],
        ["verify", "bijection", "--q", "5", "--c", "-4"],
        ["verify", "bijection", "--q", "5", "--c", "1/4"],
        ["verify", "two_to_one"],
        ["verify", "two_to_one", "--q", "5", "--c", "1"],
        ["og", "verify", "two_to_one", "--q", "7", "--c", "-1"],
        # refusals, in the order each suite meets them
        ["verify", "bijection", "--c", "1"],
        ["verify", "two_to_one", "--c", "1"],
        ["verify", "bijection", "--c", "0"],
        ["verify", "two_to_one", "--c", "3"],
        ["verify", "bijection", "--c", "1/3"],
        ["verify", "two_to_one", "--c", "1/3"],
        ["verify", "bijection", "--c", "1/0"],
        ["verify", "two_to_one", "--c", "x"],
        ["verify", "bijection", "--cap", "3"],
        ["verify", "two_to_one", "--cap", "3"],
        ["verify", "bijection", "--cap", "2", "--c", "0"],
        ["verify", "two_to_one", "--cap", "2", "--c", "0"],
        ["verify", "bijection", "--n", "4"],
        ["verify", "two_to_one", "--n", "4"],
        ["verify", "bijection", "--n", "0"],
        ["verify", "two_to_one", "--n", "0"],
        ["verify", "bijection", "--q", "9"],
        ["verify", "two_to_one", "--q", "2"],
        # options the suite does not take
        ["verify", "witt", "--n", "5"],
        ["verify", "witt", "--samples", "3", "--cap", "2"],
        ["verify", "tables", "--cap", "3"],
        ["verify", "tables", "--c", "abc"],
        ["verify", "tables", "--gmax", "3"],
        ["verify", "exceptions", "--q", "3"],
        ["verify", "exceptions", "--seed", "1", "--nmax", "2"],
        ["verify", "parity", "--c", "1"],
        ["verify", "parity", "--n", "1", "--samples", "4"],
        ["verify", "corank", "--n", "1", "--c", "-1"],
        ["verify", "bijection", "--seed", "0"],
        ["verify", "two_to_one", "--nmax", "3"],
        ["og", "verify", "witt", "--gmax", "2"],
        ["og", "verify", "tables", "--n", "2", "--q", "3"],
    ]
    return cases


def _parser_path_cases():
    """Which command's parser reads the argv: help before and after the
    group and command names, a misspelt command, options before the suite,
    an option value that names another command, and "--" separators."""
    return [
        ["-h", "og"],
        ["og", "-h", "lift"],
        ["strata", "table", "--g", "3", "-h"],
        ["strata", "-h", "table", "--g", "3"],
        ["verify", "parity", "-h"],
        ["strata", "tabel"],
        ["strata", "tabel", "--g", "3", "--n", "1"],
        ["og", "enumerat", "--q", "3", "--n", "1"],
        ["verify", "--n", "1", "parity"],
        ["og", "verify", "--q", "5", "--n", "1", "corank"],
        ["og", "enumerate", "--shape", "lift", "--q", "3", "--n", "1"],
        ["og", "lift", "--q", "5", "--n", "1", "--c", "1", "--e", "[[1,0,0]]",
         "--shape", "odd"],
        ["strata", "stratum", "--g", "3", "--n", "2", "--t", "8", "table"],
        ["verify", "--n", "1", "--", "parity"],
        ["og", "verify", "--", "tables"],
        ["--", "strata", "table", "--g", "3", "--n", "1"],
        ["strata", "--", "table", "--g", "3", "--n", "1"],
        ["strata", "table", "--g", "3", "--n", "1", "--"],
    ]


def _limit_cases():
    """Work refused on its predicted size: more Lagrangians than
    enumerate_lagrangians returns (the count alone is still printed), and
    more pairs of them than the parity and corank suites compare."""
    enum = ["og", "enumerate"]
    return [
        enum + ["--q", "101", "--n", "3"],
        enum + ["--q", "7", "--n", "4", "--json"],
        enum + ["--q", "7", "--n", "4", "--count-only"],
        ["verify", "corank", "--q", "3", "--n", "3"],
        ["verify", "corank", "--q", "7", "--n", "2"],
        ["verify", "parity", "--q", "3", "--n", "4"],
        ["og", "verify", "parity", "--q", "101", "--n", "3"],
    ]


def _usage_cases():
    return [
        [],
        ["strata"],
        ["og"],
        ["verify"],
        ["nonsense"],
        ["strata", "table", "--g", "3"],
        ["strata", "table", "--g", "x", "--n", "1"],
        ["strata", "table", "--g", "3", "--n", "1", "--bogus"],
        ["strata", "stratum", "--g", "3", "--n", "2"],
        ["strata", "exceptions", "--gmax", "1.5"],
        ["og", "enumerate", "--n", "2"],
        ["og", "enumerate", "--q", "3", "--n", "1", "--shape", "mixed"],
        ["og", "enumerate", "--q", "3", "--n", "1", "--cap", "x"],
        ["og", "lift", "--q", "5", "--n", "1", "--e", "[[1,0,0]]"],
        ["og", "component", "--q", "3"],
        ["og", "verify"],
        ["verify", "nonsense"],
        ["verify", "parity", "--n", "x"],
        ["verify", "witt", "--samples"],
        ["verify", "tables", "extra"],
    ]


CASES = (_help_cases() + _strata_cases() + _enumerate_cases() + _lift_cases()
         + _component_cases() + _verify_cases() + _usage_cases()
         + _parser_path_cases() + _limit_cases())


def case_id(argv):
    """The case's command line as a shell would take it."""
    return shlex.join(["ortholag"] + argv)


@contextlib.contextmanager
def fixed_terminal():
    """COLUMNS=80 and the repository root as the working directory."""
    old_cwd, old_cols = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(old_cwd)
        if old_cols is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_cols


def run(argv):
    """The record of `ortholag argv`, run in process through cli.main."""
    from ortholag.cli import main
    out, err = io.StringIO(), io.StringIO()
    with fixed_terminal(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record_id(record):
    """A record's case name: its command line, or its "case" for a Witt case."""
    return case_id(record["argv"]) if "argv" in record else record["case"]


# rational diagonal forms whose isotropy is known: the first four have no
# zero over Q, the last two have one (the smallest zero of the fifth has
# y = 31,400; the sixth is isotropic by Meyer's theorem)
PROVABLE = {
    "x^2+y^2-3z^2": (1, 1, -3),
    "3x^2+5y^2-7z^2": (3, 5, -7),
    "x^2+y^2+z^2-7w^2": (1, 1, 1, -7),
    "x^2+y^2-10007z^2": (1, 1, -10007),
    "x^2+y^2-1000000009z^2": (1, 1, -1000000009),
    "x1^2+...+x4^2-1000003x5^2": (1, 1, 1, 1, -1000003),
}
PROBE_DIMS, PROBE_FORMS = range(3, 9), 20
SIMILARITY_PRIMES, SIMILARITY_PAIRS = (3, 5, 7, 11, 13, 17), 60
_WITT_INPUTS = ("case", "field", "gram", "src", "dst")


def _field(p):
    return {"type": "Fp", "p": p} if p else {"type": "Q"}


def _rows(rows):
    """Rows of ints and Fractions, or a Matrix's rows of Scalars, as JSON."""
    from ortholag.jsonio import rational_to_json
    return [[rational_to_json(getattr(x, "value", x)) for x in r] for r in rows]


def witt_cases():
    """The input of each Witt case: its "case", "field" and "gram", or "src"
    and "dst" for a similarity pair."""
    bench = os.path.join(ROOT, "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads
    cases = []

    def form(case, p, gram):
        cases.append({"case": case, "field": _field(p), "gram": _rows(gram)})

    for name, seed in (("witt", 0), ("witt-refusals", 1)):
        w = workloads.WORKLOADS[name](seed)
        for i in range(len(w.cycle)):
            inp = w.make(i)
            form(f"{name} seed {seed} #{i}", inp["p"], inp["gram"])
    for name, diag in PROVABLE.items():
        form(name, None, [[d if i == j else 0 for j in range(len(diag))]
                          for i, d in enumerate(diag)])
    # the standard split form conjugated by integer matrices, entries in [-2, 2]
    rng = random.Random(5)
    for d in PROBE_DIMS:
        for k in range(PROBE_FORMS):
            b = workloads.random_invertible(rng, d)
            form(f"probe dim {d} #{k}", None,
                 workloads.conj(workloads.std_gram(d), b))
    for p in SIMILARITY_PRIMES:
        for k in range(SIMILARITY_PAIRS):
            rng = random.Random(f"similarity:{p}:{k}")
            src, dst = (workloads.random_fp_form(rng, p, 3, False)
                        for _ in range(2))
            cases.append({"case": f"similarity F_{p} #{k}", "field": _field(p),
                          "src": _rows(src), "dst": _rows(dst)})
    return cases


def witt_run(case):
    """The record of a Witt case (or of a record's input): the input, then
    the answer, or the refusal's type and message."""
    from ortholag.errors import OrtholagError
    from ortholag.jsonio import gramspace_from_json, scalar_to_json
    from ortholag.orthospace import find_similarity, witt_decompose
    inp = {k: case[k] for k in _WITT_INPUTS if k in case}

    def space(rows):
        return gramspace_from_json({"field": inp["field"], "gram": rows})

    try:
        if "gram" in inp:
            wd = witt_decompose(space(inp["gram"]))
            out = {"change_of_basis": _rows(wd.change_of_basis.entries),
                   "block_gram": _rows(wd.block_gram.entries),
                   "witt_index": wd.witt_index}
        else:
            lam, x = find_similarity(space(inp["src"]), space(inp["dst"]))
            out = {"lambda": scalar_to_json(lam), "x": _rows(x.entries)}
    except OrtholagError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return {**inp, **out}


def load(path=CORPUS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump(records, path=CORPUS):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


def stale(records, path=CORPUS):
    """The ids of the cases whose record differs from the corpus, or that the
    corpus lacks or no longer has a case for."""
    try:
        old = {record_id(r): r for r in load(path)}
    except FileNotFoundError:
        old = {}
    new = {record_id(r): r for r in records}
    return [k for k in list(new) + [k for k in old if k not in new]
            if old.get(k) != new.get(k)]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: regen.py [--check]", file=sys.stderr)
        return 2
    corpora = ((CORPUS, [run(a) for a in CASES]),
               (WITT_CORPUS, [witt_run(c) for c in witt_cases()]))
    for path, records in corpora:
        ids = [record_id(r) for r in records]
        if len(set(ids)) != len(ids):
            print(f"duplicate cases in {os.path.basename(path)}", file=sys.stderr)
            return 2
    bad = 0
    for path, records in corpora:
        name = os.path.relpath(path, ROOT)
        if args == ["--check"]:
            keys = stale(records, path)
            for k in keys:
                print(f"stale: {k}")
            print(f"{name}: {len(records)} cases, {len(keys)} stale")
            bad += len(keys)
        else:
            dump(records, path)
            print(f"wrote {len(records)} cases to {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    # check this tree's code, not an installed copy
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
