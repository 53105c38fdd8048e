"""The output contract: every golden case gives its recorded bytes.

The CLI cases run in process through cli.main (see tests/golden/regen.py);
only the `python -m ortholag` exit path runs as a subprocess.  The Witt cases
replay witt_decompose and find_similarity on each recorded input.
"""

import os
import subprocess
import sys

import pytest

from golden import regen

RECORDS = regen.load()
WITT = regen.load(regen.WITT_CORPUS)


def _replayed(record):
    """All Witt cases but the split forms of dimension 5 and up, which take
    about 30 s; regen.py --check replays those."""
    return not (record["case"].startswith("probe") and len(record["gram"]) > 4)


def test_corpus_matches_the_case_list():
    assert [r["argv"] for r in RECORDS] == regen.CASES


@pytest.mark.parametrize("record", RECORDS,
                         ids=[regen.case_id(r["argv"]) for r in RECORDS])
def test_golden_case(record):
    assert regen.run(record["argv"]) == record


# one case per exit code: success, domain error, usage error
@pytest.mark.parametrize("argv", [
    ["strata", "table", "--g", "3", "--n", "1"],
    ["og", "enumerate", "--q", "4", "--n", "1"],
    ["verify", "witt", "--n", "5"],
], ids=regen.case_id)
def test_module_entry_point(argv):
    record = next(r for r in RECORDS if r["argv"] == argv)
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.join(regen.ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "ortholag"] + argv, env=env,
                          cwd=regen.ROOT, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", [r for r in WITT if _replayed(r)],
                         ids=regen.record_id)
def test_witt_case(record):
    assert regen.witt_run(record) == record


def test_witt_probe_split_counts():
    # conjugated split forms over Q: how many of the 20 per dimension split
    split = [sum(r["case"].startswith(f"probe dim {d} ")
                 and r.get("witt_index") == d // 2 for r in WITT)
             for d in regen.PROBE_DIMS]
    assert split == [19, 17, 0, 2, 0, 0]
