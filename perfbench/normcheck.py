#!/usr/bin/env python3
"""Check that scaling timings to reference speed follows the program's work.

    python3 perfbench/normcheck.py --workload witt --seeds 901 902 903

run.py scales every timing by a probe timed in the benchmark's process.  If
the probe soaked up changes of the program, a real gain could hide in the
divisor.  So for each seed this runs the end-to-end benchmark three times,
each in a child process:

  plain   as it is;
  double  every call into the program made twice, a known doubling of
          the program's work;
  heap    500k extra live objects in the benchmark's process, a change of
          process state that leaves the program's work as it is.

It prints the median over seeds of variant / plain for the scaled figures
and for the raw ones.  Sound scaling gives about 0.5 on ops_per_s for double
and about 1 for heap.  The raw figures move the same way, with the host's
drift on top.  heap is skipped on cli, whose calls run in child processes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = ("plain", "double", "heap")
FIGURES = ("ops_per_s", "raw_ops_per_s", "latency_ms_p50",
           "raw_latency_ms_p50", "host_speed")


def _twice(call):
    def both(self, inp):
        call(self, inp)
        return call(self, inp)
    return both


def child(variant, argv):
    """Run run.py's main() on argv with the variant applied."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import run
    import workloads
    if variant == "double":
        for w in workloads.WORKLOADS.values():
            if "call" in vars(w):
                w.call = _twice(vars(w)["call"])
    live = [[i] for i in range(500_000)] if variant == "heap" else None
    sys.argv = [run.__file__] + argv
    code = run.main()
    del live
    return code


def main():
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        return child(sys.argv[2], sys.argv[3:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    from run import record_stem

    variants = VARIANTS[:2] if args.workload == "cli" else VARIANTS
    figures = {v: [] for v in variants}
    for seed in args.seeds:
        for v in variants:
            run_args = ["--workload", args.workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", "0"]
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--child", v] + run_args,
                           check=True, stdout=subprocess.DEVNULL)
            with open(record_stem(args.workload, seed, 0) + ".json") as fh:
                rec = json.load(fh)
            if rec["wrong"]:
                print(f"error: wrong answers under {v}, seed {seed}",
                      file=sys.stderr)
                return 1
            figures[v].append({k: rec["metrics"][k]["value"] for k in FIGURES})
    print(f"{args.workload}, seeds {args.seeds}: median of variant / plain")
    for v in variants[1:]:
        ratios = {k: statistics.median(f[k] / p[k] for f, p in
                                       zip(figures[v], figures["plain"]))
                  for k in FIGURES}
        print(f"  {v:6s} " + "  ".join(f"{k} {r:.3f}"
                                        for k, r in ratios.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
