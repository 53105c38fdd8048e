"""The CLI output contract: every golden case gives its recorded bytes.

The cases run in process through cli.main (see tests/golden/regen.py); only
the `python -m ortholag` exit path runs as a subprocess.
"""

import os
import subprocess
import sys

import pytest

from golden import regen

RECORDS = regen.load()


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
