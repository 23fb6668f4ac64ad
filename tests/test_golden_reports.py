"""Golden reports: the timing-stripped reports of the standard instance on
the small test plan must not change.

Each file under ``tests/golden/`` is a report rendered by
``report.render_json`` with its ``timing`` key dropped. A change that alters
a report on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden_reports.py`` and says so in
CHANGES.md; any other difference is a regression.
"""

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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, mutation in CASES:
        golden_path(command, mutation).write_text(
            render(command, mutation, 1), encoding="utf-8"
        )
