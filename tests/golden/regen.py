"""The CLI golden corpus: what `ortholag` prints and returns, case by case.

Each case is one command line.  cli.json records, for each case in CASES,
its argv, exit code, stdout and stderr as `cli.main` produces them in
process, with COLUMNS=80 (argparse wraps help to the terminal width) and the
repository root as the working directory (the file cases name paths under
tests/golden/inputs).  tests/test_golden.py replays every case against it.

    python tests/golden/regen.py           # rewrite cli.json from this tree
    python tests/golden/regen.py --check   # exit 1 naming each stale case

A change that alters a recorded output on purpose regenerates cli.json and
lists each changed case, with its reason, in CHANGES.md.
"""

import contextlib
import io
import json
import os
import shlex
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CORPUS = os.path.join(HERE, "cli.json")
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
         + _component_cases() + _verify_cases() + _usage_cases())


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


def load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def dump(records):
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


def stale(records):
    """The ids of the cases whose record differs from the corpus, or that the
    corpus lacks or no longer has a case for."""
    try:
        old = {case_id(r["argv"]): r for r in load()}
    except FileNotFoundError:
        old = {}
    new = {case_id(r["argv"]): r for r in records}
    return [k for k in list(new) + [k for k in old if k not in new]
            if old.get(k) != new.get(k)]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--check"]):
        print("usage: regen.py [--check]", file=sys.stderr)
        return 2
    ids = [case_id(a) for a in CASES]
    if len(set(ids)) != len(ids):
        print("duplicate cases in CASES", file=sys.stderr)
        return 2
    records = [run(a) for a in CASES]
    if args == ["--check"]:
        bad = stale(records)
        for k in bad:
            print(f"stale: {k}")
        print(f"{len(records)} cases, {len(bad)} stale")
        return 1 if bad else 0
    dump(records)
    print(f"wrote {len(records)} cases to {os.path.relpath(CORPUS, ROOT)}")
    return 0


if __name__ == "__main__":
    # check this tree's code, not an installed copy
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
