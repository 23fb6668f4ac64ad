"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracer.py`` installs its wrappers by name, so a renamed or
removed function would otherwise show only when someone runs
``perfbench/run.py --trace 1``. The tracer is imported from its file as is.
"""

import importlib.util
import sys
from pathlib import Path

from massey_workbench import harness

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings() -> dict:
    """Every attribute of every library module and of every class in them."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "massey_workbench" or name.startswith("massey_workbench."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cls_attr, member in vars(value).items():
                        out[(name, attr, cls_attr)] = member
    return out


def test_tracer_installs_counts_and_uninstalls():
    tracer_module = load_tracer()
    before = library_bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert library_bindings() != before
        report = harness.RUNNERS["axioms"](
            {"rank": 2, "decomposition": {"family": "letter"}, "radius": 2, "pair_radius": 2}
        )
        assert report.passed
    finally:
        tracer.uninstall()
    assert tracer.counts["decomposition.triangle_scan.pairs"] > 0
    assert tracer.counts["parallel.chunked_map"] > 0
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
