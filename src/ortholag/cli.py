"""Command line interface.

Three command groups: `strata` for the closed-form dimension calculators,
`og` for finite orthogonal Grassmannian computations, and `verify` for the
built-in verification sweeps (also reachable as `og verify`).  Exit codes:
0 on success, 1 on domain errors or failed verification, 2 on usage errors,
which include a verify option that the suite's signature does not take.

Importing this module loads no layer but `errors`.  A parse makes only the
parsers on its argv's path through COMMANDS; every other command costs only
its name and help.  Each command imports what it runs when it runs:
`strata` the closed-form layer, `jsonio` for `--json`, and `fractions` only
for `bounds`; `og` the numeric layers, and `jsonio` only to read or write
JSON, so `og enumerate --count-only --n` skips it; `verify` the suites, where
`tables` and `exceptions` load only `strata` and the others never load it.
`og enumerate --count-only` prints the closed-form count after the same
refusals as the enumeration, except its limit on the number of Lagrangians,
without enumerating.
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

INT = {"type": int, "required": True}
JSON = ("--json", {"action": "store_true"})
VERIFY = [("suite", {"choices": SUITE_NAMES})] + [
    (flag, {"dest": key, "metavar": flag[2:].upper(),
            "type": None if key == "c" else int})
    for flag, key in VERIFY_OPTS.items()]

# The command tree: a group maps each name to (help, node), and a command is
# its list of (name or flag, add_argument keywords).
COMMANDS = {
    "strata": ("closed-form dimension calculators", {
        "table": ("general-bundle rows for fixed (g, n)",
                  [("--g", INT), ("--n", INT), JSON]),
        "stratum": ("one stratum row at (g, n, t)",
                    [("--g", INT), ("--n", INT), ("--t", INT), JSON]),
        "bounds": ("all bounds at (g, n)", [("--g", INT), ("--n", INT), JSON]),
        "exceptions": ("where the subbundle bound is not strict",
                       [("--gmax", {"type": int, "default": 10}),
                        ("--nmax", {"type": int, "default": 20}), JSON]),
    }),
    "og": ("orthogonal Grassmannians over F_q", {
        "enumerate": ("all Lagrangians of a split form", [
            ("--shape", {"choices": ("even", "odd"), "default": "even"}),
            ("--n", {"type": int}), ("--q", INT),
            ("--gram", {"help": "inline JSON Gram matrix overriding "
                                "--shape/--n"}),
            ("--gram-file", {"help": "file with the JSON Gram matrix"}),
            ("--count-only", {"action": "store_true"}),
            ("--cap", {"type": int}), JSON]),
        "lift": ("both Lagrangian lifts into the extension by c", [
            ("--q", INT), ("--n", INT), ("--c", {"required": True}),
            ("--e", {"help": "inline JSON basis of the odd Lagrangian"}),
            ("--e-file", {"help": "file with the JSON basis"})]),
        "component": ("component label relative to a reference", [
            ("--q", INT), ("--n", INT),
            ("--e", {"help": "inline JSON basis of the Lagrangian"}),
            ("--e-file", {}),
            ("--ref", {"help": "inline JSON basis of the reference"}),
            ("--ref-file", {}), JSON]),
        "verify": ("run a verification sweep", VERIFY),
    }),
    "verify": ("run a verification sweep", VERIFY),
}


def _parser(node, dest, **kwargs):
    """The parser of one node of COMMANDS.  A group's commands are _Lazy, so
    a parse makes only the parsers on its argv's path; the others cost only
    their name and help, which is all that the group's help and choice
    errors show."""
    p = argparse.ArgumentParser(**kwargs)
    if isinstance(node, dict):
        cmds = p.add_subparsers(dest=dest, required=True, parser_class=_Lazy)
        for name, (help_, child) in node.items():
            cmds.add_parser(name, help=help_, node=child)
    else:
        for flag, opts in node:
            p.add_argument(flag, **opts)
        # verify refuses, after the parse, an option its suite does not take
        p.set_defaults(usage_error=p.error)
    return p


class _Lazy:
    """Stands in for a command's parser until argparse hands it the argv."""

    def __init__(self, node, **kwargs):
        self.node, self.kwargs = node, kwargs

    def parse_known_args(self, args, namespace):
        return _parser(self.node, "cmd", **self.kwargs).parse_known_args(
            args, namespace)


def _build_parser():
    return _parser(COMMANDS, "group", prog="ortholag", description=(
        "Exact computations with split orthogonal spaces, Lagrangian "
        "subspaces and stratum dimension formulas."))


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
    from .lagrange import (DEFAULT_ENUM_CAP, _space_count, _split_form,
                           _split_witt, component_of, enumerate_lagrangians,
                           lift_odd_to_even)
    from .orthospace import _split_dim, standard_form
    field = GF(args.q)
    if args.cmd == "enumerate":
        cap = DEFAULT_ENUM_CAP if args.cap is None else args.cap
        if args.gram is not None or args.gram_file is not None:
            from .jsonio import gramspace_from_json
            space = gramspace_from_json(_json_payload(
                args.gram, args.gram_file, "Gram matrix", "gram",
                field={"type": "Fp", "p": args.q}))
        else:
            if args.n is None:
                raise OrtholagError("enumerate needs --n or --gram")
            space = _split_form(field, args.n, args.shape, cap)
        if args.count_only:
            _split_witt(space, cap)
            print(_space_count(space))
            return 0
        lag = enumerate_lagrangians(space, cap=cap)
        from .jsonio import subspace_to_json
        if args.json:
            _print_json([subspace_to_json(s) for s in lag])
        else:
            for s in lag:
                _print_json(subspace_to_json(s))
        return 0
    from .jsonio import (liftpair_to_json, scalar_from_json,
                         subspace_from_json)
    if args.cmd == "lift":
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
