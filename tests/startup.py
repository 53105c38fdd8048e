"""What each CLI command costs to start, beyond a bare interpreter.

For one argv per command (each leaf of the parser, each verify suite), it
runs `python -m ortholag argv` as a child from the repository root,
alternating with `python -c pass`, and prints the median wall time of the
command above the median of the bare interpreter.  Under it, it lists the
modules the command loads that a bare interpreter does not, in load order
and nested as `python -X importtime` nests them, each with its cumulative
import time in µs.  A start-up regression then reads as a command that
loads more modules, or whose own modules take longer to compile and run.

    python tests/startup.py          # 9 runs of each command
    python tests/startup.py 21       # more runs, steadier medians

It starts about 2 x runs x 16 interpreters one at a time, so it is not part
of the test suite.  PYTHONDONTWRITEBYTECODE in the environment is passed on,
so with it set, every src/ortholag module a command loads is compiled anew.
"""

import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

ARGVS = (
    ["strata", "table", "--g", "3", "--n", "2"],
    ["strata", "stratum", "--g", "3", "--n", "2", "--t", "8", "--json"],
    ["strata", "bounds", "--g", "3", "--n", "2", "--json"],
    ["strata", "exceptions", "--gmax", "6", "--nmax", "6"],
    ["og", "enumerate", "--q", "3", "--n", "2", "--count-only"],
    ["og", "enumerate", "--q", "3", "--n", "1", "--json"],
    ["og", "lift", "--q", "5", "--n", "1", "--c", "1", "--e", "[[1,0,0]]"],
    ["og", "component", "--q", "3", "--n", "1", "--e", "[[1,0]]",
     "--ref", "[[0,1]]"],
    ["verify", "tables"],
    ["verify", "exceptions"],
    ["verify", "parity"],
    ["verify", "bijection"],
    ["verify", "two_to_one"],
    ["verify", "corank", "--n", "1"],
    ["verify", "witt", "--samples", "5"],
    ["og", "verify", "tables"],
)


def _wall(args):
    start = time.perf_counter()
    subprocess.run([sys.executable] + args, cwd=ROOT, env=ENV,
                   capture_output=True, check=False)
    return time.perf_counter() - start


def imports(args):
    """(nesting depth, module, cumulative µs) for each module the child
    loads, in load order, read from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime"] + args,
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          check=False)
    out = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        out.append((depth, name.strip(), int(cumulative)))
    # importtime prints a module when its import ends; put parents first
    ordered, pending = [], []
    for depth, name, us in out:
        kids = [p for p in pending if p[0] > depth]
        pending = [p for p in pending if p[0] <= depth]
        pending.append((depth, name, us, kids))

    def flatten(items):
        for depth, name, us, kids in items:
            ordered.append((depth, name, us))
            flatten(kids)
    flatten(pending)
    return ordered


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    runs = int(args[0]) if args else 9
    bare_mods = {name for _, name, _ in imports(["-c", "pass"])}
    for cmd in ARGVS:
        child = ["-m", "ortholag"] + cmd
        bare, full = [], []
        for _ in range(runs):
            bare.append(_wall(["-c", "pass"]))
            full.append(_wall(child))
        extra = statistics.median(full) - statistics.median(bare)
        print(f"{' '.join(cmd)}: +{extra * 1e3:.1f} ms over "
              f"{statistics.median(bare) * 1e3:.1f} ms bare")
        for depth, name, us in imports(child):
            if name not in bare_mods:
                print(f"  {'  ' * depth}{name} {us}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
