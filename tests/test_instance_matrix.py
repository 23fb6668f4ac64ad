"""The massey command on a slice of the instance matrix (``instances.py``).

phi runs over the letter, Rolli, Brooks(ab) and Brooks(aab) families, and
omega1 = delta psi1 over the windows K = 1 to 4, with psi2 = Brooks(aab)
and k1 = k2 = 2, on the mutation-sentinel plan of
``perfbench/workloads.py`` at seed 1. Every stage must pass except
``sup-p-ladder``, whose verdict compares sampled maxima and can fail on a
true instance (ROADMAP item 1); its result is not asserted here. One case
must give the same report at ``--jobs 2`` as serially.
"""

import importlib.util
from pathlib import Path

import pytest

from instances import PHIS, PSI1_BY_WINDOW, massey_doc
from massey_workbench.config import massey_from_json
from massey_workbench.harness import run_massey
from massey_workbench.report import strip_timing

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
UNGATED = "sup-p-ladder"


@pytest.fixture(scope="module")
def plan():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SENTINEL_PLAN


@pytest.mark.parametrize("window", sorted(PSI1_BY_WINDOW))
@pytest.mark.parametrize("phi", sorted(PHIS))
def test_instance_passes(plan, phi, window):
    doc = massey_doc(plan, 1, phi, window)
    assert massey_from_json(doc)[0].omega1.window == window
    stages = run_massey(doc).stages
    assert UNGATED in [s.name for s in stages]
    failed = {s.name: s.counterexample for s in stages if not s.passed and s.name != UNGATED}
    assert failed == {}
    assert all(s.checked > 0 for s in stages)


def test_parallel_report_equals_serial(plan):
    doc = massey_doc(plan, 1, "brooks-aab", 4)
    serial = strip_timing(run_massey(doc).to_json())
    parallel = strip_timing(run_massey(doc, {"jobs": 2}).to_json())
    assert parallel == serial
