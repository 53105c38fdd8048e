"""Planted faults: each one must make at least one of its tests fail.

Each fault names a file under src/ortholag, an exact text in it, the text
that replaces it, and the tests to run.  The script copies src/, tests/ and
pyproject.toml into a fresh temporary directory per fault, applies the one
fault there, and runs its tests with that copy's src/ first on the path.
Before any fault, the tests of all faults run once on an unmodified copy and
must pass, so a caught fault means the fault, not a broken tree.

    python tests/faults.py    # exit 0 if every fault is caught, 1 if not

It runs pytest once per fault, so it is not part of the test suite.  A
change that adds an algorithm adds its faults here.  Each fault must change
a result: a replacement that is equivalent to the original (for example
`2 * e <= p.N` -> `<` in h0_wedge2, which is 0 at 2e = N either way) would
survive every test.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file, exact old text, new text, tests); each old text occurs exactly once
FAULTS = [
    ("strata.py", "n * (3 * n + 1) // 2 * (g - 1) + n * e",
     "n * (3 * n + 1) / 2 * (g - 1) + n * e", ["tests/test_strata.py"]),
    ("strata.py", "param_space_dim(p, t // 2).total - h0_wedge2(p, t // 2)",
     "param_space_dim(p, t // 2).total + h0_wedge2(p, t // 2)",
     ["tests/test_strata.py"]),
    ("strata.py", "range(2, min(g_max, 4) + 1)", "range(2, min(g_max, 3) + 1)",
     ["tests/test_strata.py"]),
    ("jsonio.py", "if isinstance(p, bool) or not isinstance(p, int):",
     "if not isinstance(p, int):", ["tests/test_jsonio.py"]),
    # swapped numerator and denominator of the binary zero over Q
    ("orthospace.py", "return [Fraction(-den), Fraction(-num)]",
     "return [Fraction(-num), Fraction(-den)]",
     ["tests/test_orthospace.py", "tests/test_lagrange.py"]),
    # the same sign for both lifts
    ("lagrange.py", "for t in (y, -y)", "for t in (y, y)",
     ["tests/test_lagrange.py"]),
    # a scaled row left unreduced mod p
    ("linalg.py", "return [c * x % p for x in v]", "return [c * x for x in v]",
     ["tests/test_linalg.py", "tests/test_kernel.py"]),
    # the height search charging 1, not 2, for a prefix below the shell
    ("orthospace.py", "2 * h + 1 if shell else 2", "2 * h + 1 if shell else 1",
     ["tests/test_orthospace.py"]),
    # a zero inverted over Q without the typed refusal
    ("fields.py", '    if x == 0:\n        raise DivisionByZero("division by zero in Q")\n',
     "", ["tests/test_fields.py"]),
    # 2 taken as the least nonsquare, which it is not when 2 is a square
    # mod p (p = 7, 17)
    ("orthospace.py", "next(v for v in range(2, p) if _sqrt(v, p) is None)",
     "2", ["tests/test_orthospace.py", "tests/test_golden.py"]),
    # every field equal to every other: F_3 == F_5 == Q
    ("fields.py", "return isinstance(other, Field) and other.p == self.p",
     "return isinstance(other, Field)", ["tests/test_fields.py"]),
    # the Witt certificate asking for the identity, not hyperbolic pairs
    ("orthospace.py", "(j == i ^ 1)", "(j == i)",
     ["tests/test_orthospace.py"]),
    # a Fraction with denominator divisible by p reaching pow unrefused
    ("fields.py", "        if value.denominator % p == 0:\n"
     '            raise DivisionByZero(f"denominator divisible by {p}")\n',
     "", ["tests/test_fields.py"]),
    # a subspace over another field reaching the kernel of a space's form
    ("orthospace.py", "    if s.field != space.field:\n"
     '        raise MixedContexts("subspace and space over different fields")\n',
     "", ["tests/test_orthospace.py"]),
    # GF(2) accepted, though the forms divide by 2
    ("fields.py", "    if p == 2:\n"
     '        raise UnsupportedContext("characteristic 2 is not supported")\n',
     "", ["tests/test_fields.py"]),
]


def _copy():
    """A fresh temporary copy of the tree's src/, tests/ and pyproject.toml."""
    tmp = tempfile.mkdtemp(prefix="ortholag-fault-")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
    return tmp


def _tests_pass(root, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", "addopts="] + tests, cwd=root, env=env, capture_output=True)
    return proc.returncode == 0


def _apply(root, fname, old, new):
    path = os.path.join(root, "src", "ortholag", fname)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"{fname}: {old!r} occurs {text.count(old)} times, "
                         "not once; update the fault")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def main():
    tests = sorted({t for *_, ts in FAULTS for t in ts})
    root = _copy()
    try:
        if not _tests_pass(root, tests):
            print("the unmodified tree fails the fault tests", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(root)
    survived = 0
    for fname, old, new, ts in FAULTS:
        root = _copy()
        try:
            _apply(root, fname, old, new)
            caught = not _tests_pass(root, ts)
        finally:
            shutil.rmtree(root)
        survived += not caught
        print(f"{'caught' if caught else 'SURVIVED'}: {fname}: "
              f"{old!r} -> {new!r}")
    print(f"{len(FAULTS)} faults, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
