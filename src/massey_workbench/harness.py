"""Command runners tying configs to verification flows and report files."""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

from .config import load_config, massey_from_json, qm_from_json, spec_from_json
from .decomposition import check_axioms, measure_r_hat
from .errors import ConfigError
from .massey import verify_massey_triviality, verify_primitives
from .quasimorphism import QuasiMorphism, defect, defect_from_triangle, defect_sup
from .report import Report, StageResult, now_iso
from .words import enumerate_ball


# Top-level keys each command reads; any other key is a typo that would
# otherwise be ignored (a misspelled "mutation" silently runs unmutated).
_COMMON_KEYS = {"command", "schema_version", "rank"}
_MASSEY_KEYS = {"phi", "quasimorphisms", "omega1", "omega2", "k1", "k2", "plan", "mutation"}
CONFIG_KEYS = {
    "axioms": _COMMON_KEYS
    | {"decomposition", "radius", "pair_radius", "enumeration_cap", "jobs", "check_stabilization"},
    "defect": _COMMON_KEYS
    | {
        "quasimorphism",
        "phi",
        "radius",
        "pair_radius",
        "random_pairs",
        "max_len",
        "seed",
        "enumeration_cap",
        "jobs",
    },
    "verify-primitive": _COMMON_KEYS | _MASSEY_KEYS,
    "massey": _COMMON_KEYS | _MASSEY_KEYS | {"r_hat"},
}


def check_config_keys(doc: dict, command: str) -> None:
    """Reject top-level keys the command does not read."""
    unknown = set(doc) - CONFIG_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown {command} config keys: {sorted(unknown)}")


def _integer(doc: dict, key: str, default: int | None) -> int | None:
    """The config value of an integer key; a JSON bool, float or string is refused.

    ``None`` is accepted only for an optional key whose default is ``None``.
    """
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _setting(overrides: dict, doc: dict, key: str, default: int) -> int:
    """A command-line override if given (0 included), else the config value."""
    value = overrides.get(key)
    return _integer(doc if value is None else overrides, key, default)


def _jobs(value: int) -> int:
    if value < 1:
        raise ConfigError(f"jobs must be >= 1, got {value}")
    return value


def _finish(report: Report, started: float, started_at: str, config_echo: dict) -> Report:
    report.wall_time_s = round(time.monotonic() - started, 3)
    report.started_at = started_at
    report.config_echo = config_echo
    return report


def run_axioms(doc: dict, overrides: dict | None = None) -> Report:
    """Exhaustive decomposition axiom suite plus the R-hat stabilization check."""
    overrides = overrides or {}
    check_config_keys(doc, "axioms")
    started, started_at = time.monotonic(), now_iso()
    rank = _integer(doc, "rank", 2)
    spec = spec_from_json(doc.get("decomposition", {"family": "letter"}), rank)
    radius = _setting(overrides, doc, "radius", 6)
    pair_radius = _integer(doc, "pair_radius", min(radius, 5))
    cap = _integer(doc, "enumeration_cap", None)
    jobs = _jobs(_setting(overrides, doc, "jobs", 1))
    stabilize = doc.get("check_stabilization", True)
    if not isinstance(stabilize, bool):
        raise ConfigError(f"check_stabilization must be true or false, got {stabilize!r}")

    report = Report(command="axioms")
    axioms = check_axioms(spec, radius, pair_radius, cap, jobs)
    for check in axioms.checks:
        report.add(
            StageResult(check.name, check.passed, check.checked, check.counterexample)
        )
    report.notes = {
        "spec": axioms.spec_description,
        "radius": radius,
        "pair_radius": pair_radius,
        "r_hat": axioms.r_hat,
        "r_hat_argmax": axioms.r_hat_argmax,
    }
    if stabilize and pair_radius >= 1:
        previous = axioms.r_hat_previous_radius
        report.add(
            StageResult(
                "r-hat-stabilization",
                previous == axioms.r_hat,
                0,
                None
                if previous == axioms.r_hat
                else {"pair_radius": pair_radius, "r_hat": axioms.r_hat, "previous": previous},
                stats={"r_hat": axioms.r_hat, "r_hat_previous_radius": previous},
            )
        )
    return _finish(report, started, started_at, doc)


def _antisymmetry_stage(q: QuasiMorphism, radius: int, cap) -> StageResult:
    stage = StageResult("qm-antisymmetry", True)
    for g in enumerate_ball(q.rank, radius, cap):
        stage.checked += 1
        if q.value(g) != -q.value(g.inverse()):
            stage.passed = False
            stage.counterexample = {
                "word": str(g),
                "value": str(q.value(g)),
                "inverse_value": str(q.value(g.inverse())),
            }
            break
    return stage


def _tripod_identity_stage(q: QuasiMorphism, radius: int, cap) -> StageResult:
    """defect(g, h) must equal phi(r1) + phi(r2) + phi(r3) exactly."""
    stage = StageResult("defect-tripod-identity", True)
    ball = list(enumerate_ball(q.rank, radius, cap))
    for g in ball:
        for h in ball:
            stage.checked += 1
            d = defect(q, g, h)
            via_triangle = defect_from_triangle(q, g, h)
            if d != via_triangle:
                stage.passed = False
                stage.counterexample = {
                    "g": str(g),
                    "h": str(h),
                    "defect": str(d),
                    "triangle_sum": str(via_triangle),
                }
                return stage
    return stage


def run_defect(doc: dict, overrides: dict | None = None) -> Report:
    """Defect statistics and the quasi-morphism invariants behind them."""
    overrides = overrides or {}
    check_config_keys(doc, "defect")
    started, started_at = time.monotonic(), now_iso()
    rank = _integer(doc, "rank", 2)
    qm_doc = doc.get("quasimorphism") or doc.get("phi")
    if qm_doc is None:
        raise ConfigError("defect config needs a 'quasimorphism' (or 'phi') key")
    q = qm_from_json(qm_doc, rank)
    radius = _setting(overrides, doc, "radius", 4)
    pair_radius = _integer(doc, "pair_radius", radius)
    random_pairs = _integer(doc, "random_pairs", 2000)
    max_len = _integer(doc, "max_len", 100)
    seed = _setting(overrides, doc, "seed", 0)
    cap = _integer(doc, "enumeration_cap", None)
    jobs = _jobs(_setting(overrides, doc, "jobs", 1))

    report = Report(command="defect")
    report.add(_antisymmetry_stage(q, radius + 2, cap))
    report.add(_tripod_identity_stage(q, radius, cap))

    r_hat = measure_r_hat(q.spec, pair_radius, cap, jobs)
    bound = Fraction(3 * r_hat) * q.table.sup
    stats = defect_sup(q, radius, random_pairs, max_len, seed, cap)
    bound_stage = StageResult(
        "defect-bound",
        stats.max_abs <= bound,
        stats.checked,
        None
        if stats.max_abs <= bound
        else {"max_abs_defect": str(stats.max_abs), "bound": str(bound), "argmax": stats.argmax},
        stats={"r_hat": r_hat, "bound": str(bound)},
    )
    report.add(bound_stage)
    report.add(
        StageResult(
            "defect-sup",
            True,
            stats.checked,
            None,
            stats=stats.to_json(),
        )
    )
    report.notes = {"spec": q.spec.describe(), "r_hat": r_hat, "lambda_sup": str(q.table.sup)}
    return _finish(report, started, started_at, doc)


def _massey_setup(doc: dict, overrides: dict, command: str):
    check_config_keys(doc, command)
    if overrides.get("radius") is not None:
        raise ConfigError(
            f"--radius does not apply to {command}; set the plan radii in the config"
        )
    instance, plan = massey_from_json(doc, overrides.get("seed"))
    if overrides.get("jobs") is not None:
        plan.jobs = _jobs(int(overrides["jobs"]))
    return instance, plan


def run_massey(doc: dict, overrides: dict | None = None) -> Report:
    started, started_at = time.monotonic(), now_iso()
    instance, plan = _massey_setup(doc, overrides or {}, "massey")
    report = verify_massey_triviality(instance, plan, doc.get("r_hat"))
    return _finish(report, started, started_at, doc)


def run_verify_primitive(doc: dict, overrides: dict | None = None) -> Report:
    started, started_at = time.monotonic(), now_iso()
    instance, plan = _massey_setup(doc, overrides or {}, "verify-primitive")
    report = verify_primitives(instance, plan)
    return _finish(report, started, started_at, doc)


RUNNERS = {
    "axioms": run_axioms,
    "defect": run_defect,
    "verify-primitive": run_verify_primitive,
    "massey": run_massey,
}


def run_config(path: str | Path, overrides: dict | None = None, out: str | Path | None = None) -> tuple[int, Report]:
    """Execute the command named in the config; write the report if requested.

    Returns (exit status, report); status 0 iff every stage passed.
    """
    doc = load_config(path)
    command = doc.get("command")
    if command not in RUNNERS:
        raise ConfigError(f"config must set 'command' to one of {sorted(RUNNERS)}")
    report = RUNNERS[command](doc, overrides)
    if out is not None:
        report.save(out)
    return (0 if report.passed else 1), report
