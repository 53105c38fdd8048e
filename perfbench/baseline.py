#!/usr/bin/env python3
"""One-off comparison with the Baseline section of ROADMAP.md.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

Times each Baseline micro-operation untraced (median of several calls) and
once under the tracer, where the number is the traced layer's time per call,
and prints a markdown table next to the ROADMAP figures.  Gaps are reported
as they are; nothing here is tuned to match.
"""

import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import ortholag as ol  # noqa: E402
from run import machine_notes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import random_fp_form  # noqa: E402


def _rref_input(rng):
    return ol.linalg.Matrix(ol.GF(5), [[rng.randrange(5) for _ in range(6)]
                                       for _ in range(6)])


def _witt_input(rng):
    return ol.GramSpace(ol.GF(5), random_fp_form(rng, 5, 6, rng.random() < 0.5))


def _enum(q, n, shape):
    space = ol.standard_form(ol.GF(q), n, shape)
    return lambda rng: space


# label, ROADMAP figure in ms, make input, call, traced stat, repetitions
CASES = (
    ("rref of a 6x6 matrix over F_5", 0.86, _rref_input,
     lambda m: m.rref(), "linalg.rref", 200),
    ("witt_decompose, random dim-6 form over F_5", 18, _witt_input,
     lambda s: ol.witt_decompose(s), "orthospace.witt", 40),
    ("enumerate_lagrangians, F_5 dim 5 (156)", 900, _enum(5, 2, "odd"),
     lambda s: ol.enumerate_lagrangians(s), "lagrange.enumerate", 3),
    ("enumerate_lagrangians, F_3 dim 6 (80)", 4000, _enum(3, 3, "even"),
     lambda s: ol.enumerate_lagrangians(s), "lagrange.enumerate", 3),
)


def measure(make, call, stat, reps):
    rng = random.Random(0)
    inputs = [make(rng) for _ in range(reps)]
    times = []
    for x in inputs:
        start = time.perf_counter()
        call(x)
        times.append(time.perf_counter() - start)
    tracer = Tracer()
    tracer.install()
    try:
        for x in inputs:
            call(x)
    finally:
        tracer.uninstall()
    s = tracer.stats[stat]
    return 1000 * statistics.median(times), 1000 * s.total / s.calls


def cli_enumerate_q31():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ortholag", "og", "enumerate",
                    "--q", "31", "--n", "2", "--count-only"], check=True,
                   capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
    return 1000 * (time.perf_counter() - start)


def main():
    notes = machine_notes(0)
    print(f"Machine: Python {notes['python']}, nproc {notes['nproc']}, "
          f"{notes['cpu']}.  ROADMAP figures: Python 3.10.12, one run each.\n")
    print("| operation | ROADMAP | untraced median | traced, per call "
          "| untraced / ROADMAP |")
    print("|---|---|---|---|---|")
    for label, ref, make, call, stat, reps in CASES:
        plain, traced = measure(make, call, stat, reps)
        print(f"| {label} | {ref:g} ms | {plain:.3g} ms | {traced:.3g} ms "
              f"| {plain / ref:.2f} |")
    ms = cli_enumerate_q31()
    print(f"| `og enumerate --q 31 --n 2` (subprocess) | 4900 ms | {ms:.4g} ms "
          f"| not traced | {ms / 4900:.2f} |")
    print("| enumerate_lagrangians, F_3 dim 7 (1120) | 64000 ms | not run: "
          "longer than a benchmark run | | |")


if __name__ == "__main__":
    main()
