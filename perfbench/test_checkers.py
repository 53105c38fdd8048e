"""Self-test of the benchmark's checkers: each one rejects a planted wrong answer.

    python3 -m pytest perfbench/test_checkers.py
    python3 perfbench/test_checkers.py

Right answers come from the program through the workloads; each test first
sees the right answer accepted, then plants one wrong answer and sees it
rejected.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def _first(wcls, pred, seed=3):
    """A workload, and the first input of its cycle matching pred, with output."""
    w = wcls(seed, inproc=True)
    w.setup()
    i = next(i for i in range(len(w.cycle)) if pred(w.make(i)))
    inp = w.make(i)
    out = w.call(inp)
    assert w.check(inp, out) is None
    return w, inp, out


def test_enumerate_checker():
    _, inp, out = _first(wl.Enumerate, lambda x: x["d"] == 4 and not x["standard"])
    q, g = inp["q"], inp["gram"]
    bases = [wl.basis(s) for s in out]
    assert checks.check_lagrangian_list(g, q, bases) is None
    assert checks.check_lagrangian_list(g, q, bases[:-1])           # one missing
    assert checks.check_lagrangian_list(g, q, bases[::-1])          # order
    assert checks.check_lagrangian_list(g, q, bases[:-1] + bases[:1])  # repeat
    bad = copy.deepcopy(bases)
    bad[0][0][-1] = (bad[0][0][-1] + 1) % q                         # not isotropic
    assert checks.check_lagrangian_list(g, q, bad)


def test_witt_checker():
    for pred in (lambda x: x["p"] and len(x["gram"]) == 4 and x["index"] == 1,
                 lambda x: x["p"] is None and x["index"] == 2):
        _, inp, out = _first(wl.Witt, pred)
        g, p = inp["gram"], inp["p"]
        cob = wl.ints(out.change_of_basis)
        aniso = wl.ints(out.anisotropic_part.gram)
        args = (g, p, cob, out.witt_index, aniso, inp["index"])
        assert checks.check_witt(*args) is None
        assert checks.check_witt(g, p, cob, out.witt_index + 1, aniso,
                                 inp["index"])                      # index
        bad = copy.deepcopy(cob)
        bad[0][0] += 1
        assert checks.check_witt(g, p, bad, *args[3:])              # isometry
    _, inp, out = _first(wl.Witt, lambda x: x["p"] and len(x["gram"]) == 2
                         and x["index"] == 0)
    p = inp["p"]
    plane = [[1, 0], [0, p - 1]]                                    # x^2 - y^2
    assert checks.check_witt(plane, p, [[1, 0], [0, 1]], 0, plane, 0)


def test_incidence_checkers():
    w, inp, out = _first(wl.Incidence, lambda x: x["kind"] == "component")
    assert w.check(inp, type(out)(out.reference, "other" if out.same else "same"))
    w, inp, out = _first(wl.Incidence, lambda x: x["kind"] == "corank")
    assert w.check(inp, type(out)(r=out.r, h=out.r))
    assert w.check(inp, type(out)(r=out.r + 1, h=out.h + 1))
    w, inp, out = _first(wl.Incidence, lambda x: x["kind"] == "fiber")
    e, pair, flipped = out
    assert w.check(inp, (e, pair, pair.minus_lift if flipped == pair.plus_lift
                         else pair.plus_lift))                      # flip
    swapped = type(pair)(plus_lift=pair.minus_lift, minus_lift=pair.plus_lift)
    assert w.check(inp, (e, swapped, flipped))                      # order


def test_cli_checkers():
    w = wl.Cli(5, inproc=True)
    seen = set()
    for i in range(len(w.cycle)):
        inp = w.make(i)
        kind = (inp["argv"][0], inp["argv"][1])
        code, text = w.call(inp)
        assert w.check(inp, (code, text)) is None, inp["argv"]
        assert w.check(inp, (1, text))                              # exit code
        if kind in seen:
            continue
        seen.add(kind)
        if kind[1] == "lift":
            planted = text.replace('"plus"', '"tmp"').replace(
                '"minus"', '"plus"').replace('"tmp"', '"minus"')
        elif kind[0] == "verify":
            planted = text.replace("PASS: ", "FAIL: ", 1)
        else:
            planted = text.replace("1", "2", 1) if "1" in text else text + "x"
        assert w.check(inp, (0, planted)), (kind, planted)
    assert len(seen) >= 10


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS: {name}")
