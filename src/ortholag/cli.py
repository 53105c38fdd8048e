"""Command line interface.

Three command groups: `strata` for the closed-form dimension calculators,
`og` for finite orthogonal Grassmannian computations, and `verify` for the
built-in verification sweeps (also reachable as `og verify`).  Exit codes:
0 on success, 1 on domain errors or failed verification, 2 on usage errors.

Importing this module loads no layer but `errors`, and building the parser
loads none.  Each command imports what it runs when it runs: `strata` the
closed-form layer (and `jsonio` for `--json`), `og` the numeric layers, and
`verify` the suites, whose `tables` and `exceptions` need only `strata`.
`og enumerate --count-only` prints the closed-form count after the same
refusals as the enumeration, without enumerating.
"""

import argparse
import sys

from .errors import MalformedInput, OrtholagError

# the options each verify suite takes; its keys are the names in verify.SUITES
SUITE_OPTS = {
    "parity": ("n", "q", "cap"),
    "bijection": ("n", "q", "c", "cap"),
    "two_to_one": ("n", "q", "c", "cap"),
    "corank": ("n", "q", "cap"),
    "witt": ("samples", "seed"),
    "tables": (),
    "exceptions": ("g_max", "n_max"),
}


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
        p.add_argument("suite", choices=sorted(SUITE_OPTS))
        p.add_argument("--n", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--c")
        p.add_argument("--cap", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--gmax", type=int)
        p.add_argument("--nmax", type=int)

    return ap


def _payload(inline, path, what):
    if inline is not None:
        return inline
    if path is not None:
        try:
            with open(path) as fh:
                return fh.read()
        except OSError as exc:
            raise MalformedInput(f"cannot read {what} from {path}: "
                                 f"{exc.strerror}") from exc
    raise OrtholagError(f"missing {what}: pass it inline or via a file")


def _json_arg(text):
    import json
    try:
        return json.loads(text)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _print_json(obj):
    import json
    print(json.dumps(obj))


def _subspace_arg(field, text, ambient):
    from .jsonio import subspace_from_json
    obj = _json_arg(text)
    if isinstance(obj, dict):
        return subspace_from_json(field, obj)
    return subspace_from_json(field, {"ambient": ambient, "basis": obj})


def _scalar_arg(field, text):
    from .jsonio import _fraction
    return field.scalar(_fraction(text))


def _fraction_json(f):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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
        if args.json:
            _print_json({
                "N": p.N, "moduli_dim": moduli_dim(p),
                "sharp_bound": sharp_bound(p),
                "hn_bound": _fraction_json(hn) if hn is not None else None,
                "hirschowitz_bound": hirschowitz_bound(p)})
        else:
            print(f"N={p.N}")
            print(f"moduli_dim={moduli_dim(p)}")
            print(f"sharp_bound={sharp_bound(p)}")
            print(f"hn_bound={hn if hn is not None else 'undefined'}")
            print(f"hirschowitz_bound={hirschowitz_bound(p)}")
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
    from .jsonio import gramspace_from_json, liftpair_to_json, subspace_to_json
    from .lagrange import (DEFAULT_ENUM_CAP, _split_witt, component_of,
                           enumerate_lagrangians, lagrangian_count,
                           lift_odd_to_even)
    from .orthospace import standard_form
    field = GF(args.q)
    if args.cmd == "enumerate":
        if args.gram is not None or args.gram_file is not None:
            text = _payload(args.gram, args.gram_file, "Gram matrix")
            obj = _json_arg(text)
            if isinstance(obj, dict):
                space = gramspace_from_json(obj)
            else:
                space = gramspace_from_json({"field": {"type": "Fp", "p": args.q},
                                             "gram": obj})
        else:
            if args.n is None:
                raise OrtholagError("enumerate needs --n or --gram")
            space = standard_form(field, args.n, args.shape)
        cap = DEFAULT_ENUM_CAP if args.cap is None else args.cap
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
        space = standard_form(field, args.n, "odd")
        e = _subspace_arg(field, _payload(args.e, args.e_file, "--e"), space.dim)
        pair = lift_odd_to_even(space, e, _scalar_arg(field, args.c))
        _print_json(liftpair_to_json(pair))
    else:
        space = standard_form(field, args.n, "even")
        f = _subspace_arg(field, _payload(args.e, args.e_file, "--e"), space.dim)
        ref = _subspace_arg(field, _payload(args.ref, args.ref_file, "--ref"),
                            space.dim)
        label = component_of(space, f, ref)
        if args.json:
            _print_json({"label": label.label})
        else:
            print(label.label)
    return 0


def _cmd_verify(args):
    from .verify import SUITES
    kwargs = {}
    values = {"n": args.n, "q": args.q, "cap": args.cap,
              "samples": args.samples, "seed": args.seed,
              "g_max": args.gmax, "n_max": args.nmax, "c": args.c}
    if args.c is not None:
        from .jsonio import _fraction
        values["c"] = _fraction(args.c)
    for key in SUITE_OPTS[args.suite]:
        if values.get(key) is not None:
            kwargs[key] = values[key]
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
