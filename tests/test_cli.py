"""End-to-end CLI behaviour, run in process through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

from ortholag.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStrataCommands:
    def test_table_text(self, capsys):
        code, out, err = run(capsys, "strata", "table", "--g", "3", "--n", "1")
        assert code == 0 and err == ""
        assert out == "(4, +, 0)\n(6, -, 1)\n"

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "strata", "table", "--g", "4", "--n", "2",
                           "--json")
        rows = json.loads(out)
        assert [[r["t"], r["component"], r["dim_max_lagrangians"]]
                for r in rows] == [[10, "-", 1], [12, "+", 3]]

    def test_stratum_text(self, capsys):
        code, out, _ = run(capsys, "strata", "stratum", "--g", "3", "--n", "2",
                           "--t", "8")
        assert code == 0
        assert out == ("t=8 e=4 component=+ stratum_dim=20 "
                       "dim_max_lagrangians=2 flags=dense,infinite\n")

    def test_stratum_json(self, capsys):
        code, out, _ = run(capsys, "strata", "stratum", "--g", "2", "--n", "1",
                           "--t", "2", "--json")
        assert json.loads(out) == {
            "g": 2, "n": 1, "t": 2, "e": 1, "component": "-",
            "stratum_dim": 3, "dim_max_lagrangians": 0,
            "flags": ["formula", "dense", "finite"]}

    def test_bounds_text(self, capsys):
        code, out, _ = run(capsys, "strata", "bounds", "--g", "3", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["N=6", "moduli_dim=20", "sharp_bound=9",
                                    "hn_bound=18", "hirschowitz_bound=3"]

    def test_bounds_undefined_hn(self, capsys):
        code, out, _ = run(capsys, "strata", "bounds", "--g", "2", "--n", "1")
        assert code == 0
        assert "hn_bound=undefined" in out.splitlines()

    def test_bounds_json_fraction(self, capsys):
        code, out, _ = run(capsys, "strata", "bounds", "--g", "2", "--n", "4",
                           "--json")
        obj = json.loads(out)
        assert obj["hn_bound"] == "40/3"
        assert obj["N"] == 5 and obj["sharp_bound"] == 8

    def test_exceptions_text(self, capsys):
        code, out, _ = run(capsys, "strata", "exceptions",
                           "--gmax", "4", "--nmax", "3")
        assert code == 0
        assert out.splitlines() == ["(2, 1, 2)", "(2, 2, 4)", "(2, 3, 4)",
                                    "(3, 1, 4)", "(3, 2, 6)", "(3, 3, 8)",
                                    "(4, 3, 12)"]

    def test_exceptions_json_defaults(self, capsys):
        code, out, _ = run(capsys, "strata", "exceptions", "--json")
        assert len(json.loads(out)) == 49


class TestOgCommands:
    def test_enumerate_count_only(self, capsys):
        code, out, _ = run(capsys, "og", "enumerate", "--q", "3", "--n", "2",
                           "--count-only")
        assert code == 0 and out == "8\n"

    @pytest.mark.parametrize("args,count", [
        (("--q", "101", "--n", "3"), 2081208),
        (("--q", "1009", "--n", "4", "--shape", "odd", "--cap", "9"),
         (1009 + 1) * (1009 ** 2 + 1) * (1009 ** 3 + 1) * (1009 ** 4 + 1)),
        (("--q", "3", "--gram", '{"field": {"type": "Fp", "p": 5}, '
          '"gram": [[0,1],[1,0]]}'), 2),
    ])
    def test_count_only_is_closed_form(self, capsys, args, count):
        # enumerating the first two takes minutes; the count does not enumerate
        code, out, err = run(capsys, "og", "enumerate", *args, "--count-only")
        assert (code, out, err) == (0, f"{count}\n", "")

    @pytest.mark.parametrize("args", [
        ("--q", "4"),                                      # GF before --n
        ("--q", "3"),                                      # missing --n
        ("--q", "3", "--n", "0", "--cap", "1"),            # n < 1 before cap
        ("--q", "3", "--n", "5"),                          # over the cap
        ("--q", "3", "--n", "2", "--cap", "3"),
        ("--q", "3", "--gram", '{"field": {"type": "Q"}, "gram": '
         '[[1,0,0],[0,1,0],[0,0,1]]}', "--cap", "2"),     # field before cap
        ("--q", "3", "--gram", "[[1,0,0],[0,0,0],[0,0,1]]",
         "--cap", "2"),                                    # cap before rank
        ("--q", "3", "--gram", "[[1,0],[0,0]]"),           # degenerate
        ("--q", "3", "--gram", "[[1,0],[0,1]]"),           # not split
        ("--q", "5", "--gram", "[[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]"),
    ])
    def test_count_only_refuses_like_enumeration(self, capsys, args):
        enumerated = run(capsys, "og", "enumerate", *args)
        counted = run(capsys, "og", "enumerate", *args, "--count-only")
        assert counted == enumerated
        assert counted[0] == 1 and counted[2].startswith("error:")

    @pytest.mark.parametrize("args,message", [
        (("og", "enumerate", "--q", "3", "--n", "1000000"),
         "dimension 2000000 exceeds the enumeration cap 8"),
        (("og", "enumerate", "--q", "3", "--n", "1000000", "--count-only"),
         "dimension 2000000 exceeds the enumeration cap 8"),
        (("og", "enumerate", "--q", "3", "--n", "1000000", "--shape", "odd",
          "--cap", "2000000"), "dimension 2000001 exceeds the enumeration "
                               "cap 2000000"),
        (("verify", "parity", "--n", "1000000"),
         "dimension 2000000 exceeds the enumeration cap 8"),
        (("verify", "corank", "--n", "1000000"),
         "dimension 2000001 exceeds the enumeration cap 8"),
        (("verify", "two_to_one", "--n", "1000000"),
         "dimension 2000001 exceeds the enumeration cap 8"),
        (("og", "verify", "bijection", "--n", "1000000"),
         "dimension 2000001 exceeds the enumeration cap 8"),
        (("og", "lift", "--q", "3", "--n", "1000000", "--c", "1",
          "--e", "[[1,0,0]]"), "row length differs from ambient dimension"),
        (("og", "lift", "--q", "3", "--n", "1000000", "--c", "1", "--e",
          '{"ambient": 3, "basis": [[1,0,0]]}'),
         "subspace ambient differs from space dimension"),
        (("og", "lift", "--q", "3", "--n", "1000000", "--c", "1", "--e",
          '{"ambient": 2000001, "basis": []}'), "only Lagrangians lift"),
        (("og", "lift", "--q", "3", "--n", "1000000", "--c", "x",
          "--e", '{"ambient": 3, "basis": [[1,0,0]]}'),
         "Invalid literal for Fraction: 'x'"),
        (("og", "component", "--q", "3", "--n", "1000000", "--e",
          "[[1,0,0,0]]", "--ref", "[[1,0,0,0]]"),
         "row length differs from ambient dimension"),
        (("og", "component", "--q", "3", "--n", "1000000", "--e",
          '{"ambient": 4, "basis": [[1,0,0,0]]}', "--ref", "[[1]]"),
         "row length differs from ambient dimension"),
        (("og", "component", "--q", "3", "--n", "1000000", "--e",
          '{"ambient": 4, "basis": [[1,0,0,0]]}', "--ref",
          '{"ambient": 4, "basis": []}'),
         'Subspace<1 0 0 0> in dim 4 is not Lagrangian here'),
    ])
    def test_large_n_refused_before_the_form_is_built(self, capsys,
                                                      monkeypatch, args,
                                                      message):
        # a form of dimension 2 * 10**6 would take minutes and gigabytes
        from ortholag import orthospace

        def refuse(*a):
            raise AssertionError("standard_form called")

        monkeypatch.setattr(orthospace, "standard_form", refuse)
        assert run(capsys, *args) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("gram", ["[]", "[[1]]", "[[2]]"])
    def test_count_only_in_dimensions_0_and_1(self, capsys, gram):
        # the zero subspace is the one Lagrangian, which both modes report
        code, out, _ = run(capsys, "og", "enumerate", "--q", "3",
                           "--gram", gram)
        counted = run(capsys, "og", "enumerate", "--q", "3", "--gram", gram,
                      "--count-only")
        assert code == 0 and len(out.splitlines()) == 1
        assert counted == (0, f"{len(out.splitlines())}\n", "")

    def test_enumerate_lines(self, capsys):
        code, out, _ = run(capsys, "og", "enumerate", "--q", "3", "--n", "1",
                           "--shape", "odd")
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            obj = json.loads(line)
            assert obj["ambient"] == 3 and len(obj["basis"]) == 1

    def test_enumerate_json_list(self, capsys):
        code, out, _ = run(capsys, "og", "enumerate", "--q", "5", "--n", "1",
                           "--shape", "odd", "--json")
        assert len(json.loads(out)) == 6

    def test_enumerate_inline_gram(self, capsys):
        code, out, _ = run(capsys, "og", "enumerate", "--q", "3",
                           "--gram", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]",
                           "--count-only")
        assert code == 0 and out == "8\n"

    def test_enumerate_gram_file(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"field": {"type": "Fp", "p": 3},
                                    "gram": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "og", "enumerate", "--q", "3",
                           "--gram-file", str(path), "--count-only")
        assert code == 0 and out == "2\n"

    def test_lift_exact_output(self, capsys):
        code, out, _ = run(capsys, "og", "lift", "--q", "5", "--n", "1",
                           "--c", "1", "--e", "[[1,0,0]]")
        assert code == 0
        assert json.loads(out) == {
            "plus": {"ambient": 4, "basis": [[1, 0, 0, 0], [0, 0, 1, 2]]},
            "minus": {"ambient": 4, "basis": [[1, 0, 0, 0], [0, 0, 1, 3]]}}

    def test_lift_e_file_and_fraction_c(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"ambient": 3, "basis": [[1, 0, 0]]}')
        code, out, _ = run(capsys, "og", "lift", "--q", "5", "--n", "1",
                           "--c", "8/2", "--e-file", str(path))
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"plus", "minus"}

    def test_component(self, capsys):
        code, out, _ = run(capsys, "og", "component", "--q", "3", "--n", "2",
                           "--e", "[[1,0,0,0],[0,0,1,0]]",
                           "--ref", "[[1,0,0,0],[0,0,1,0]]")
        assert code == 0 and out == "same\n"
        code, out, _ = run(capsys, "og", "component", "--q", "3", "--n", "2",
                           "--e", "[[1,0,0,0],[0,0,1,0]]",
                           "--ref", "[[0,1,0,0],[0,0,1,0]]", "--json")
        assert code == 0 and json.loads(out) == {"label": "other"}

    def test_determinism(self, capsys):
        args = ("og", "enumerate", "--q", "3", "--n", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestVerifyCommands:
    def test_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "tables")
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_exceptions_suite_with_options(self, capsys):
        code, out, _ = run(capsys, "verify", "exceptions",
                           "--gmax", "6", "--nmax", "6")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_og_verify_alias(self, capsys):
        code, out, _ = run(capsys, "og", "verify", "parity",
                           "--n", "1", "--q", "3")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())


class TestErrorHandling:
    @pytest.mark.parametrize("argv", [
        ("og", "enumerate", "--q", "4", "--n", "1"),          # composite q
        ("og", "enumerate", "--q", "2", "--n", "1"),          # char 2
        ("og", "enumerate", "--q", "3"),                      # no --n, no gram
        ("og", "enumerate", "--q", "3", "--gram", "[[1,0],[0,1]]"),  # not split
        ("og", "lift", "--q", "3", "--n", "1", "--c", "1",
         "--e", "[[1,0,0]]"),                                 # non-split ext
        ("og", "lift", "--q", "5", "--n", "1", "--c", "1/0",
         "--e", "[[1,0,0]]"),                                 # zero division
        ("og", "lift", "--q", "5", "--n", "1", "--c", "1",
         "--e", "[[1,0"),                                     # malformed JSON
        ("og", "component", "--q", "3", "--n", "2",
         "--e", "[[1,0,0,0]]", "--ref", "[[1,0,0,0],[0,0,1,0]]"),
        ("strata", "stratum", "--g", "3", "--n", "2", "--t", "7"),
        ("strata", "stratum", "--g", "1", "--n", "2", "--t", "2"),
        ("strata", "exceptions", "--gmax", "1"),
    ])
    def test_domain_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        (),                                       # no group
        ("strata",),                              # no command
        ("strata", "table", "--g", "3"),          # missing --n
        ("og", "enumerate", "--n", "2"),          # missing --q
        ("og", "enumerate", "--q", "3", "--n", "1", "--shape", "mixed"),
        ("verify", "nonsense"),                   # unknown suite
        ("nonsense",),
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def test_verify_options_are_the_suite_keywords():
    from ortholag.cli import VERIFY_OPTS
    from ortholag.verify import SUITES, suite_options
    assert {k for name in SUITES for k in suite_options(name)} == set(
        VERIFY_OPTS.values())


class TestErrorTyping:
    @pytest.mark.parametrize("argv", [
        ("og", "enumerate", "--q", "3", "--gram", "[[1,2],[0,1]]"),
        ("og", "enumerate", "--q", "3", "--gram", '{"gram": [[0,1],[1,0]]}'),
        ("og", "enumerate", "--q", "3", "--gram", '[["a"]]'),
        ("og", "lift", "--q", "5", "--n", "1", "--c", "abc", "--e", "[[1,0,0]]"),
        ("og", "lift", "--q", "5", "--n", "1", "--c", "-1",
         "--e", '{"basis": [[0,1,0]]}'),
        ("verify", "bijection", "--c", "1/0"),
        ("og", "enumerate", "--q", "3", "--gram", "7"),
        ("og", "enumerate", "--q", "3", "--gram", '{"field": 5, "gram": [[1]]}'),
        ("og", "lift", "--q", "5", "--n", "1", "--c", "-1",
         "--e", '{"ambient": 3, "basis": 5}'),
        ("og", "lift", "--q", "5", "--n", "1", "--c", "-1",
         "--e-file", os.path.join(ROOT, "no-such-file.json")),
    ])
    def test_malformed_arguments_are_domain_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_internal_errors_propagate(self, monkeypatch):
        import ortholag.lagrange as lagrange

        def broken(*args, **kwargs):
            raise ValueError("base is not invertible for the given modulus")

        # og commands look up the layer functions in their home modules
        monkeypatch.setattr(lagrange, "enumerate_lagrangians", broken)
        with pytest.raises(ValueError, match="not invertible"):
            main(["og", "enumerate", "--q", "3", "--n", "1"])


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, ortholag.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
