"""The built-in verification sweeps must all pass on small parameters."""

import functools
import inspect

import pytest

from ortholag import CapExceeded, OutOfRange
from ortholag.verify import (SUITES, bijection_suite, corank_suite,
                             exception_families, exceptions_suite,
                             parity_suite, suite_options,
                             tables_suite, two_to_one_suite, witt_suite)


def assert_all_ok(checks):
    assert checks, "a suite must report at least one check"
    failed = [c for c in checks if not c.ok]
    assert not failed, failed


def test_suite_registry():
    assert set(SUITES) == {"parity", "bijection", "two_to_one", "corank",
                           "witt", "tables", "exceptions"}
    for fn in SUITES.values():
        assert callable(fn)


def test_parity_suite():
    assert_all_ok(parity_suite(n=2, q=3))
    assert_all_ok(parity_suite(n=1, q=5))


def test_bijection_suite():
    assert_all_ok(bijection_suite(n=1, q=3, c=-1))
    assert_all_ok(bijection_suite(n=1, q=5, c=1))


def test_two_to_one_suite():
    assert_all_ok(two_to_one_suite(n=1, q=3, c=-1))
    assert_all_ok(two_to_one_suite(n=1, q=5, c=1))


def test_corank_suite():
    assert_all_ok(corank_suite(n=1, q=3))
    assert_all_ok(corank_suite(n=1, q=5))


@pytest.mark.parametrize("suite,kwargs,pairs", [
    (corank_suite, {"n": 3, "q": 3}, 1120 ** 2),
    (corank_suite, {"n": 2, "q": 7}, 400 ** 2),
    (parity_suite, {"n": 4, "q": 3}, 2240 ** 2),
])
def test_pair_limit_refuses_before_enumerating(monkeypatch, suite, kwargs,
                                               pairs):
    from ortholag import lagrange

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the pair limit")
    monkeypatch.setattr(lagrange, "enumerate_lagrangians", no_enumeration)
    with pytest.raises(CapExceeded, match=f"^{pairs} pairs of Lagrangians "
                       "exceed the verification limit 100000$"):
        suite(**kwargs)


def test_pair_limit_is_inclusive(monkeypatch):
    from ortholag import verify
    monkeypatch.setattr(verify, "MAX_PAIRS", 64)
    assert_all_ok(parity_suite(n=2, q=3))
    monkeypatch.setattr(verify, "MAX_PAIRS", 63)
    with pytest.raises(CapExceeded, match="^64 pairs"):
        parity_suite(n=2, q=3)


def test_witt_suite_small():
    assert_all_ok(witt_suite(samples=25, seed=3))


@pytest.mark.parametrize("samples", [-1, -200])
def test_witt_suite_refuses_negative_samples(samples):
    with pytest.raises(OutOfRange, match="samples must be at least 0"):
        witt_suite(samples=samples)


def test_tables_suite():
    assert_all_ok(tables_suite())


def test_exceptions_suite():
    assert_all_ok(exceptions_suite(g_max=6, n_max=6))


def test_exception_families_content():
    fams = exception_families(4, 3)
    assert (2, 1, 2) in fams and (4, 3, 12) in fams
    assert (4, 1, 6) not in fams


def test_run_suite_dispatch():
    checks = SUITES["tables"]()
    assert_all_ok(checks)
    with pytest.raises(KeyError):
        SUITES["missing"]


def test_check_fields_are_reportable():
    for c in tables_suite():
        assert isinstance(c.name, str) and c.name
        assert isinstance(c.ok, bool)
        assert isinstance(c.detail, str)


def test_suite_options_are_the_signatures(monkeypatch):
    assert suite_options("parity") == ("n", "q", "cap")
    assert suite_options("two_to_one") == ("n", "q", "c", "cap")
    assert suite_options("witt") == ("samples", "seed")
    assert suite_options("tables") == ()
    assert suite_options("exceptions") == ("g_max", "n_max")

    # a tracer's functools.wraps wrapper keeps the suite's options
    @functools.wraps(SUITES["witt"])
    def traced(*args, **kwargs):
        return SUITES["witt"](*args, **kwargs)
    monkeypatch.setitem(SUITES, "witt", traced)
    assert suite_options("witt") == ("samples", "seed")


def test_cap_defaults_are_the_enumeration_cap():
    # the suites spell the default as a literal, so that `verify tables` and
    # `verify exceptions` load no numeric layer (see test_imports.py)
    from ortholag.lagrange import DEFAULT_ENUM_CAP
    caps = {name: inspect.signature(fn).parameters["cap"].default
            for name, fn in SUITES.items() if "cap" in suite_options(name)}
    assert set(caps) == {"parity", "bijection", "two_to_one", "corank"}
    assert set(caps.values()) == {DEFAULT_ENUM_CAP}
