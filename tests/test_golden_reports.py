"""Golden reports: the timing-stripped reports of the standard instance on
the small test plan must not change.

Each file under ``tests/golden/`` is a report rendered by
``report.render_json`` with its ``timing`` key dropped. A change that alters
a report on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden_reports.py`` and says so in
CHANGES.md; any other difference is a regression. The digest tool that
compares every benchmarked case across two trees, ``report_digests.py``,
is checked here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_massey import small_plan, standard_instance  # noqa: E402

from massey_workbench.massey import (  # noqa: E402
    MUTATIONS,
    verify_massey_triviality,
    verify_primitives,
)
from massey_workbench.report import render_json, strip_timing  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = [("massey", None)] + [("massey", m) for m in MUTATIONS] + [("verify-primitive", None)]


def golden_path(command: str, mutation: str | None) -> Path:
    return GOLDEN_DIR / f"{command}-{mutation or 'none'}.json"


def render(command: str, mutation: str | None, jobs: int) -> str:
    run = verify_massey_triviality if command == "massey" else verify_primitives
    report = run(standard_instance(mutation), small_plan(jobs=jobs))
    return render_json(strip_timing(report.to_json()))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command,mutation", CASES)
def test_report_matches_golden(command, mutation, jobs):
    expected = golden_path(command, mutation).read_text(encoding="utf-8")
    assert render(command, mutation, jobs) == expected


def test_report_digests_against(tmp_path):
    """``report_digests.py --against`` prints each selected case that
    differs or that one side lacks, and exits 1 on any."""
    script = Path(__file__).resolve().parent / "report_digests.py"

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args], capture_output=True, text=True, check=False
        )

    case = "defect-brooks-ab.json --jobs 1"
    done = run(case)
    assert done.returncode == 0
    saved = json.loads(done.stdout)
    assert list(saved) == [case]
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(saved), encoding="utf-8")
    done = run("--against", str(path), case)
    assert (done.returncode, done.stdout) == (0, "1 of 1 cases equal\n")

    saved = {case: "0" * 64, "defect-brooks-ab.json --jobs 10": "", "axioms-letter.json": ""}
    path.write_text(json.dumps(saved), encoding="utf-8")
    done = run("--against", str(path), case)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "missing here: defect-brooks-ab.json --jobs 10",
        f"differs: {case}",
        "0 of 1 cases equal",
    ]

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, mutation in CASES:
        golden_path(command, mutation).write_text(
            render(command, mutation, 1), encoding="utf-8"
        )
