"""Command line interface.

Three command groups: `strata` for the closed-form dimension calculators,
`og` for finite orthogonal Grassmannian computations, and `verify` for the
built-in verification sweeps (also reachable as `og verify`).  Exit codes:
0 on success, 1 on domain errors or failed verification, 2 on usage errors,
which include a verify option that the suite's signature does not take.

Importing this module loads no layer but `errors`, and building the parser
loads none.  Each command imports what it runs when it runs: `strata` the
closed-form layer (and `jsonio` for `--json`), `og` the numeric layers, and
`verify` the suites, whose `tables` and `exceptions` need only `strata`.
`og enumerate --count-only` prints the closed-form count after the same
refusals as the enumeration, without enumerating.
"""

import argparse
import sys

from .errors import (AmbientMismatch, MalformedInput, NotLagrangian,
                     OrtholagError)

# verify.SUITES in sorted order, named here so that building the parser
# imports no suite
SUITE_NAMES = ("bijection", "corank", "exceptions", "parity", "tables",
               "two_to_one", "witt")

# each verify option and the suite keyword it fills; all but --c are ints
VERIFY_OPTS = {"--n": "n", "--q": "q", "--c": "c", "--cap": "cap",
               "--samples": "samples", "--seed": "seed", "--gmax": "g_max",
               "--nmax": "n_max"}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ortholag",
        description="Exact computations with split orthogonal spaces, "
                    "Lagrangian subspaces and stratum dimension formulas.")
    groups = ap.add_subparsers(dest="group", required=True)

    st = groups.add_parser("strata", help="closed-form dimension calculators")
    st_cmds = st.add_subparsers(dest="cmd", required=True)

    p = st_cmds.add_parser("table", help="general-bundle rows for fixed (g, n)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = st_cmds.add_parser("stratum", help="one stratum row at (g, n, t)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = st_cmds.add_parser("bounds", help="all bounds at (g, n)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = st_cmds.add_parser("exceptions",
                           help="where the subbundle bound is not strict")
    p.add_argument("--gmax", type=int, default=10)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--json", action="store_true")

    og = groups.add_parser("og", help="orthogonal Grassmannians over F_q")
    og_cmds = og.add_subparsers(dest="cmd", required=True)

    p = og_cmds.add_parser("enumerate", help="all Lagrangians of a split form")
    p.add_argument("--shape", choices=("even", "odd"), default="even")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gram", help="inline JSON Gram matrix overriding --shape/--n")
    p.add_argument("--gram-file", help="file with the JSON Gram matrix")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--cap", type=int)
    p.add_argument("--json", action="store_true")

    p = og_cmds.add_parser("lift",
                           help="both Lagrangian lifts into the extension by c")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--e", help="inline JSON basis of the odd Lagrangian")
    p.add_argument("--e-file", help="file with the JSON basis")

    p = og_cmds.add_parser("component",
                           help="component label relative to a reference")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", help="inline JSON basis of the Lagrangian")
    p.add_argument("--e-file")
    p.add_argument("--ref", help="inline JSON basis of the reference")
    p.add_argument("--ref-file")
    p.add_argument("--json", action="store_true")

    for parent in (og_cmds, groups):
        p = parent.add_parser("verify", help="run a verification sweep")
        p.add_argument("suite", choices=SUITE_NAMES)
        for flag, key in VERIFY_OPTS.items():
            p.add_argument(flag, dest=key, metavar=flag[2:].upper(),
                           type=None if key == "c" else int)
        p.set_defaults(usage_error=p.error)

    return ap


def _json_payload(inline, path, what, rows_key, **shape):
    """The JSON object passed inline or in a file.  A bare list of rows is
    read as the object {rows_key: rows} filled in with shape."""
    import json
    if inline is None and path is not None:
        try:
            with open(path) as fh:
                inline = fh.read()
        except OSError as exc:
            raise MalformedInput(f"cannot read {what} from {path}: "
                                 f"{exc.strerror}") from exc
    if inline is None:
        raise OrtholagError(f"missing {what}: pass it inline or via a file")
    try:
        obj = json.loads(inline)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    return obj if isinstance(obj, dict) else {**shape, rows_key: obj}


def _print_json(obj):
    import json
    print(json.dumps(obj))


def _cmd_strata(args):
    from .strata import (CurveParams, hirschowitz_bound, hirschowitz_exceptions,
                         hn_bound, moduli_dim, mod4_table, sharp_bound,
                         stratum_row)
    p = CurveParams(args.g, args.n) if args.cmd != "exceptions" else None
    if args.cmd == "table":
        rows = mod4_table(p)
        if args.json:
            from .jsonio import stratum_row_to_json
            _print_json([stratum_row_to_json(r) for r in rows])
        else:
            for r in rows:
                print(f"({r.t}, {r.component}, {r.dim_max_lagrangians})")
    elif args.cmd == "stratum":
        row = stratum_row(p, args.t)
        if args.json:
            from .jsonio import stratum_row_to_json
            _print_json(stratum_row_to_json(row))
        else:
            print(f"t={row.t} e={row.e} component={row.component} "
                  f"stratum_dim={row.stratum_dim} "
                  f"dim_max_lagrangians={row.dim_max_lagrangians} "
                  f"flags={','.join(row.flags)}")
    elif args.cmd == "bounds":
        hn = hn_bound(p) if p.n >= 2 else None
        bounds = {"N": p.N, "moduli_dim": moduli_dim(p),
                  "sharp_bound": sharp_bound(p), "hn_bound": hn,
                  "hirschowitz_bound": hirschowitz_bound(p)}
        if args.json:
            from .jsonio import rational_to_json
            _print_json({**bounds, "hn_bound": None if hn is None
                         else rational_to_json(hn)})
        else:
            for key, val in bounds.items():
                print(f"{key}={'undefined' if val is None else val}")
    else:
        found = hirschowitz_exceptions(args.gmax, args.nmax)
        if args.json:
            _print_json([list(x) for x in found])
        else:
            for g, n, t in found:
                print(f"({g}, {n}, {t})")
    return 0


def _cmd_og(args):
    from .fields import GF
    from .jsonio import (gramspace_from_json, liftpair_to_json,
                         scalar_from_json, subspace_from_json, subspace_to_json)
    from .lagrange import (DEFAULT_ENUM_CAP, _check_cap, _split_witt,
                           component_of, enumerate_lagrangians,
                           lagrangian_count, lift_odd_to_even)
    from .orthospace import _split_dim, standard_form
    field = GF(args.q)
    if args.cmd == "enumerate":
        cap = DEFAULT_ENUM_CAP if args.cap is None else args.cap
        if args.gram is not None or args.gram_file is not None:
            space = gramspace_from_json(_json_payload(
                args.gram, args.gram_file, "Gram matrix", "gram",
                field={"type": "Fp", "p": args.q}))
        else:
            if args.n is None:
                raise OrtholagError("enumerate needs --n or --gram")
            _check_cap(_split_dim(args.n, args.shape), cap)
            space = standard_form(field, args.n, args.shape)
        if args.count_only:
            _split_witt(space, cap)
            n = space.dim // 2
            # in dimensions 0 and 1 the zero subspace is the one Lagrangian
            print(lagrangian_count(space.field.p, n,
                                   "odd" if space.dim % 2 else "even")
                  if n else 1)
            return 0
        lag = enumerate_lagrangians(space, cap=cap)
        if args.json:
            _print_json([subspace_to_json(s) for s in lag])
        else:
            for s in lag:
                _print_json(subspace_to_json(s))
    elif args.cmd == "lift":
        d = _split_dim(args.n, "odd")
        e = subspace_from_json(field, _json_payload(
            args.e, args.e_file, "--e", "basis", ambient=d))
        c = scalar_from_json(field, args.c)
        # lift_odd_to_even's first refusals, made before the d^2 form is built
        if e.ambient_dim != d:
            raise AmbientMismatch(
                "subspace ambient differs from space dimension")
        if e.dim != args.n:
            raise NotLagrangian("only Lagrangians lift")
        pair = lift_odd_to_even(standard_form(field, args.n, "odd"), e, c)
        _print_json(liftpair_to_json(pair))
    else:
        d = _split_dim(args.n, "even")
        f = subspace_from_json(field, _json_payload(
            args.e, args.e_file, "--e", "basis", ambient=d))
        ref = subspace_from_json(field, _json_payload(
            args.ref, args.ref_file, "--ref", "basis", ambient=d))
        # component_of's first refusal; past it, f is as large as the form
        if f.dim != args.n:
            raise NotLagrangian(f"{f!r} is not Lagrangian here")
        label = component_of(standard_form(field, args.n, "even"), f, ref)
        if args.json:
            _print_json({"label": label.label})
        else:
            print(label.label)
    return 0


def _cmd_verify(args):
    from .verify import SUITES, suite_options
    kwargs = {key: getattr(args, key) for key in VERIFY_OPTS.values()
              if getattr(args, key) is not None}
    takes = suite_options(args.suite)
    for flag, key in VERIFY_OPTS.items():
        if key in kwargs and key not in takes:
            args.usage_error(f"the {args.suite} suite does not take {flag}")
    if "c" in kwargs:
        from .jsonio import _fraction
        kwargs["c"] = _fraction(kwargs["c"])
    checks = SUITES[args.suite](**kwargs)
    for c in checks:
        line = f"{'PASS' if c.ok else 'FAIL'}: {c.name}"
        if c.detail:
            line += f" ({c.detail})"
        print(line)
    return 0 if all(c.ok for c in checks) else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.group == "strata":
            return _cmd_strata(args)
        if args.group == "og":
            if args.cmd == "verify":
                return _cmd_verify(args)
            return _cmd_og(args)
        return _cmd_verify(args)
    except OrtholagError as exc:
        # anything else is not a domain error and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
