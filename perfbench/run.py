#!/usr/bin/env python3
"""The ortholag benchmark.

    python3 perfbench/run.py --workload witt --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) from the root of a checkout, against
the package in its src/ directory, and prints every metric by name and
unit, then one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 (end to end): set-up is timed SETUP_REPS times and reported as
its median plus the median import time of five fresh interpreters.  The
timed loop then runs whole cycles of operations until --seconds of calls
have been spent and at least MIN_OPS operations were made.  Only the calls
into the program are timed; making inputs and checking results are not.
Every result is checked.

Timings are reported at reference speed.  The host is shared, and its speed
drifts by 25-35% over tens of seconds, which no run length averages out.  So
a fixed probe, the workload's probe(), is timed after every operation, and
each operation's time is scaled by probe_ref_s / (median of the ten probes
around it).  probe_ref_s is the probe's time on the calibration host at full
speed, where scaled and measured times agree.  Both are printed, and the
record keeps both, with host_speed = probe_ref_s / median probe.
normcheck.py checks that the scaled figures follow the program's own work,
and STEADINESS.md records how steady they are.

--trace 1 (per layer): runs trace_cycles whole cycles twice over the same
inputs, untraced and then traced (spans.py), and reports the per-layer
metrics and the tracing overhead.  The operation count is fixed, so the
counts repeat exactly between runs with the same seed.

--workload all runs every workload of BENCHMARK.json in child processes
and prints one table; with --trace 1 it runs each traced run twice and
reports whether the counts repeat.  --write-spec rewrites BENCHMARK.json.
A record of each run, with the machine notes and every failed input, goes
to perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

RUN_SECONDS = 20
MIN_OPS = 100     # p90 then has at least ten samples above it
SETUP_REPS = 5    # set-ups timed per run; setup_s is their median
DRIVER_WORKLOADS = ("enumerate", "witt", "incidence", "cli")

# name, unit, better, bound (share of the parent's median).  Each bound is
# three times the worst quartile spread over ten seeds in three sets of runs
# (STEADINESS.md), rounded up; spreads of about 0.077 keep the timings at the
# ceiling of 0.25.  setup_s, the least steady, keeps the largest.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.06),
)
# failed_frac is reported with the others but left out of BENCHMARK.json:
# it is 0 on every workload there, and a metric listed there must not be 0

PER_LAYER = (
    [("fields.scalar_calls", "count", "lower"),
     ("fields.scalar_calls_per_op", "count/op", "lower"),
     ("fields.scalar_s", "s", "lower"),
     ("fields.is_square_calls", "count", "lower")]
    + [(f"linalg.{k}_{m}", u, "lower")
       for k in ("rref", "kernel", "span", "intersection", "matmul")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("linalg.rref_cells", "count", "lower"),
       ("linalg.self_s", "s", "lower"),
       ("orthospace.witt_calls", "count", "lower"),
       ("orthospace.witt_s", "s", "lower"),
       ("orthospace.witt_errors", "count", "lower"),
       ("orthospace.deadline_aborts", "count", "lower"),
       ("orthospace.complement_calls", "count", "lower"),
       ("orthospace.complement_s", "s", "lower"),
       ("orthospace.gramspace_builds", "count", "lower"),
       ("orthospace.self_s", "s", "lower"),
       ("lagrange.enumerate_calls", "count", "lower"),
       ("lagrange.enumerate_s", "s", "lower"),
       ("lagrange.outputs", "count", "higher"),
       ("lagrange.enum_yield", "ratio", "higher")]
    + [(f"lagrange.{k}_calls", "count", "lower")
       for k in ("component", "corank", "lift", "restrict")]
    + [("lagrange.self_s", "s", "lower"),
       ("strata.calls", "count", "lower"),
       ("strata.self_s", "s", "lower"),
       ("verify.suite_s", "s", "lower"),
       ("jsonio.calls", "count", "lower"),
       ("jsonio.self_s", "s", "lower"),
       ("cli.main_s", "s", "lower"),
       ("cli.import_s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.ops_per_s_untraced", "1/s", "higher"),
       ("trace.ops_per_s_traced", "1/s", "higher"),
       ("trace.overhead_ops_per_s", "1/s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")])


class Deadline(BaseException):
    """Raised by SIGALRM when an operation runs past the workload's deadline."""


def _alarm(signum, frame):
    raise Deadline()


def machine_notes(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def _finite(x):
    """JSON has no infinity: a percentile that lands on a failure is null."""
    return x if math.isfinite(x) else None


def at_reference_speed(times, probes, ref_s):
    """Scale times[i] by ref_s over the median of probes[i-4:i+6].

    probes[i] was taken just before operation i and probes[i+1] just after.
    """
    return [t * ref_s / statistics.median(probes[max(0, i - 4):i + 6])
            for i, t in enumerate(times)]


def nearest_rank(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def run_ops(w, inputs, seconds=0.0, tracer=None):
    """Closed loop over operations.  Returns the loop's record.

    inputs holds operations made in advance; later ones are made on demand.
    The loop stops at a cycle boundary once seconds of calls are spent and
    MIN_OPS operations are done, or when inputs run out if seconds is 0.
    """
    length = len(w.cycle)
    lat, failures, probes = [], [], [w.probe()]
    busy, passed, wrong, aborts, i = 0.0, 0, 0, 0, 0
    while True:
        if seconds:
            if (busy >= seconds and i >= MIN_OPS and i % length == 0) \
                    or (w.max_cycles and i >= w.max_cycles * length):
                break
        elif i >= len(inputs):
            break
        inp = inputs[i] if i < len(inputs) else w.make(i)
        if tracer:
            tracer.op = i
        err = None
        start = time.perf_counter()
        try:
            if w.deadline:
                signal.setitimer(signal.ITIMER_REAL, w.deadline)
            out = w.call(inp)
        except Deadline:
            err = f"deadline of {w.deadline} s passed"
            aborts += 1
        except Exception as exc:  # every refusal is a counted failure
            err = f"{type(exc).__name__}: {exc}"
        finally:
            if w.deadline:
                signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - start
        probes.append(w.probe())
        busy += dt
        if err is None:
            try:
                err = w.check(inp, out)
            except Exception as exc:  # a malformed answer is a wrong answer
                err = f"checker rejected the output: {type(exc).__name__}: {exc}"
            if err is not None:
                wrong += 1
                err = "wrong answer: " + err
        lat.append(dt)
        if err is None:
            passed += 1
        else:
            failures.append({"index": i, "reason": err[:300],
                             "input": repr(inp)[:400]})
        i += 1
    adjusted = at_reference_speed(lat, probes, w.probe_ref_s)
    failed = {f["index"] for f in failures}
    return {"ops": i, "passed": passed, "wrong": wrong, "aborts": aborts,
            "busy": busy, "busy_adjusted": sum(adjusted),
            "latencies": lat, "adjusted": adjusted, "failed": failed,
            "speed": w.probe_ref_s / statistics.median(probes),
            "failures": failures}


def _percentile_ms(loop, key, share):
    """A failed or aborted operation counts as over any limit."""
    return 1000 * nearest_rank([math.inf if i in loop["failed"] else t
                                for i, t in enumerate(loop[key])], share)


def end_to_end(wcls, seed, seconds, import_s):
    from workloads import Workload, fresh_import_s, interpreter_probe
    # a fresh process pays the import: time it in five of them
    import_adjusted = statistics.median(fresh_import_s() for _ in range(5))
    # the rest of set-up runs in this process, scaled by the in-process probe
    ref_s = Workload.probe_ref_s
    raw, adjusted, w = [], [], None
    probes = [interpreter_probe() for _ in range(3)]
    for _ in range(SETUP_REPS):
        w = wcls(seed)
        start = time.perf_counter()
        w.setup()
        inputs = [w.make(i) for i in range(len(w.cycle))]
        raw.append(time.perf_counter() - start)
        after = [interpreter_probe() for _ in range(3)]
        adjusted.append(raw[-1] * ref_s / statistics.median(probes + after))
        probes = after
    setup_raw = import_s + statistics.median(raw)
    loop = run_ops(w, inputs, seconds)
    who = resource.RUSAGE_CHILDREN if wcls.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (import_adjusted + statistics.median(adjusted), "s"),
        "ops_per_s": (loop["passed"] / loop["busy_adjusted"], "1/s"),
        "latency_ms_p50": (_percentile_ms(loop, "adjusted", 0.5), "ms"),
        "latency_ms_p90": (_percentile_ms(loop, "adjusted", 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "failed_frac": (len(loop["failures"]) / loop["ops"], "ratio"),
        "raw_setup_s": (setup_raw, "s"),
        "raw_ops_per_s": (loop["passed"] / loop["busy"], "1/s"),
        "raw_latency_ms_p50": (_percentile_ms(loop, "latencies", 0.5), "ms"),
        "raw_latency_ms_p90": (_percentile_ms(loop, "latencies", 0.9), "ms"),
        "host_speed": (loop["speed"], "ratio"),
    }
    return loop, metrics


def _median_child_s(args, reps=5):
    from workloads import python_child
    return statistics.median(python_child(args)[0] for _ in range(reps))


def per_layer(wcls, seed):
    from spans import Tracer
    w = wcls(seed, inproc=True)
    w.setup()
    inputs = [w.make(i) for i in range(wcls.trace_cycles * len(w.cycle))]
    plain = run_ops(w, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        w = wcls(seed, inproc=True)
        w.setup()
        before = tracer.stat("fields.scalar").calls
        traced = run_ops(w, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    ops = traced["ops"]
    metrics = tracer.metrics(ops, tracer.stat("fields.scalar").calls - before)
    metrics["orthospace.deadline_aborts"] = (traced["aborts"], "count")
    metrics["cli.import_s"] = (
        _median_child_s(["-c", "import ortholag.cli"])
        - _median_child_s(["-c", "pass"]) if wcls.name == "cli" else 0.0, "s")
    untraced_rate = plain["passed"] / plain["busy_adjusted"]
    traced_rate = traced["passed"] / traced["busy_adjusted"]
    metrics.update({
        "trace.spans": (len(tracer.spans), "count"),
        "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead_ops_per_s": (untraced_rate - traced_rate, "1/s"),
        "trace.overhead_frac": (1 - traced_rate / untraced_rate, "ratio"),
    })
    traced["wrong"] += plain["wrong"]
    return traced, metrics, tracer


def spec():
    from workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why}
                      for n in DRIVER_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def record_stem(workload, seed, trace):
    return os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")


def run_all(args):
    """Every BENCHMARK.json workload in a child process, as one table."""
    rows, same = [], True
    for name in DRIVER_WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        runs = []
        for _ in range(2 if args.trace else 1):
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            with open(record_stem(name, args.seed, args.trace) + ".json") as fh:
                runs.append(json.load(fh))
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "ratio", "count/op")
                       and not k.startswith("trace.overhead")} for r in runs]
            repeat = counts[0] == counts[1]
            same = same and repeat
            print(f"{name}: counts repeat exactly in two traced runs: {repeat}")
        rows.append((name, runs[0]))
    print("# machine: " + json.dumps(machine_notes(args.seed)))
    for name, r in rows:
        print(f"== {name}: attempted={r['attempted']} failed={r['failed']} "
              f"wrong answers={r['wrong']}")
        for k, v in r["metrics"].items():
            print(f"  {k:32s} {v['value']:>14.6g} {v['unit']}")
    ok = not any(r["wrong"] for _, r in rows) and same
    print(json.dumps({"correct": ok, "workloads": {n: r["metrics"]
                                                   for n, r in rows}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ortholag", "__init__.py")):
        print(f"error: no ortholag package under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import ortholag.cli  # noqa: F401  (the import that setup_s counts)
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wcls = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    notes = machine_notes(args.seed)
    print("# machine: " + json.dumps(notes))
    if args.trace:
        loop, metrics, tracer = per_layer(wcls, args.seed)
        names = [n for n, _, _ in PER_LAYER]
    else:
        loop, metrics = end_to_end(wcls, args.seed, args.seconds, import_s)
        names = [n for n, _, _, _ in END_TO_END]
        tracer = None
    for k, (v, unit) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {unit}")
    print(f"{args.workload} attempted = {loop['ops']}, failed = "
          f"{len(loop['failures'])}, wrong answers = {loop['wrong']}")
    for f in loop["failures"]:
        print(f"{args.workload} failed input #{f['index']}: {f['reason']}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = record_stem(args.workload, args.seed, args.trace)
    with open(stem + ".json", "w") as fh:
        json.dump({"machine": notes, "workload": args.workload,
                   "seconds": args.seconds, "attempted": loop["ops"],
                   "failed": len(loop["failures"]), "wrong": loop["wrong"],
                   "metrics": {k: {"value": _finite(v), "unit": u}
                               for k, (v, u) in metrics.items()},
                   "failures": loop["failures"],
                   "latencies_ms": [1000 * x for x in loop["latencies"]],
                   "adjusted_ms": [1000 * x for x in loop["adjusted"]]},
                  fh, indent=1)
    if tracer:
        tracer.dump(stem + ".spans.jsonl.gz")

    print(json.dumps({
        "correct": loop["wrong"] == 0,
        "attempted": loop["ops"],
        "failed": len(loop["failures"]),
        "metrics": {k: {"value": _finite(metrics[k][0]), "unit": metrics[k][1]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
