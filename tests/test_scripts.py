import subprocess
import sys
from pathlib import Path

import pytest

CENSUS_REPORT = Path(__file__).resolve().parents[1] / "scripts" / "census_report.py"


def _census_report(*args):
    return subprocess.run(
        [sys.executable, str(CENSUS_REPORT), *args], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "args",
    [
        ("--base-k", "2", "--s", "3", "--time-index", "-1"),
        ("--base-k", "2", "--s", "3", "--time-index", "0"),
        ("--base-k", "2", "--s", "3", "--time-index", "3"),
        ("--base-k", "2", "--s", "3", "--time-index", "7"),
        ("--base-k", "2", "--s", "1"),
    ],
    ids=["negative-block", "block-0", "block-s", "block-past-the-end", "no-interior-block"],
)
def test_census_report_rejects_blocks_outside_the_interior(args):
    run = _census_report(*args)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "error:" in run.stderr and "Traceback" not in run.stderr


def test_census_report_prints_the_requested_interior_block():
    run = _census_report("--base-k", "2", "--s", "3", "--time-index", "2")
    assert run.returncode == 0, run.stderr
    assert "census at time block 2" in run.stdout
    assert "census at time block 1" not in run.stdout
