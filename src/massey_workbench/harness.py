"""Command runners tying configs to verification flows and report files."""

from __future__ import annotations

import time
from fractions import Fraction

from ._parallel import Scan, pair_scan, scan
from .config import (
    check_keys, field, massey_from_json, qm_from_json, read_int, spec_from_json, typed
)
from .decomposition import check_axioms, measure_r_hat
from .errors import ConfigError, at_least
from .massey import verify_massey_triviality, verify_primitives
from .quasimorphism import QuasiMorphism, defect, defect_from_triangle, defect_sup
from .report import Report, StageResult, now_iso
from .words import (
    Letters, check_length, enumerate_ball, enumeration_cap, format_letters, invert_letters
)


# Top-level keys each command reads; any other key is a typo that would
# otherwise be ignored (a misspelled "mutation" silently runs unmutated).
_COMMON_KEYS = {"command", "schema_version", "rank"}
_MASSEY_KEYS = {"phi", "quasimorphisms", "omega1", "omega2", "k1", "k2", "plan", "mutation"}
CONFIG_KEYS = {
    "axioms": _COMMON_KEYS
    | {"decomposition", "radius", "pair_radius", "enumeration_cap", "jobs", "check_stabilization"},
    "defect": _COMMON_KEYS
    | {"phi", "radius", "pair_radius", "random_pairs", "max_len", "seed", "enumeration_cap", "jobs"},
    "verify-primitive": _COMMON_KEYS | _MASSEY_KEYS,
    "massey": _COMMON_KEYS | _MASSEY_KEYS,
}


def check_config_keys(doc: dict, command: str) -> None:
    """Reject top-level keys the command does not read, a ``schema_version``
    other than the integer 1, and a ``command`` naming another command (a
    ``verify-primitive`` run also reads a ``massey`` config)."""
    check_keys(doc, CONFIG_KEYS[command], f"{command} config")
    if read_int(doc, "schema_version", 1) != 1:
        raise ConfigError(f"schema_version must be 1, got {doc['schema_version']!r}")
    names = (command, "massey") if command == "verify-primitive" else (command,)
    if "command" in doc and doc["command"] not in names:
        raise ConfigError(f"a {command} run cannot read a config for command {doc['command']!r}")


def _with_overrides(doc: dict, overrides: dict | None, command: str) -> dict:
    """``doc`` with the given overrides (``None`` is not given, 0 is) set in
    its plan if the command reads one, else at the top level; key-checked,
    so an override passes the key, type and range checks of a config value."""
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    if "plan" not in CONFIG_KEYS[command]:
        config = {**doc, **given}
    elif "radius" in given:
        raise ConfigError(f"--radius does not apply to {command}; set the plan radii in the config")
    else:
        config = dict(doc, plan={**typed(doc.get("plan", {}), dict, "plan"), **given})
    check_config_keys(config, command)
    return config


def _finish(report: Report, started: float, started_at: str, config_echo: dict) -> Report:
    report.wall_time_s = round(time.monotonic() - started, 3)
    report.started_at = started_at
    report.config_echo = config_echo
    return report


def run_axioms(doc: dict, overrides: dict | None = None) -> Report:
    """Exhaustive decomposition axiom suite plus the R-hat stabilization check."""
    config = _with_overrides(doc, overrides, "axioms")
    started, started_at = time.monotonic(), now_iso()
    rank = read_int(config, "rank", 2)
    spec = spec_from_json(config.get("decomposition", {"family": "letter"}), rank)
    radius = at_least(read_int(config, "radius", 6), "radius", 0)
    pair_radius = at_least(read_int(config, "pair_radius", min(radius, 5)), "pair_radius", 0)
    cap = enumeration_cap(read_int(config, "enumeration_cap", None))
    jobs = at_least(read_int(config, "jobs", 1), "jobs", 1)
    stabilize = config.get("check_stabilization", True)
    if not isinstance(stabilize, bool):
        raise ConfigError(f"check_stabilization must be true or false, got {stabilize!r}")

    report = check_axioms(spec, radius, pair_radius, cap, jobs, stabilize=stabilize)
    return _finish(report, started, started_at, doc)


def _antisymmetry_probe(q: QuasiMorphism, g: Letters, out: Scan):
    value, inverse_value = q.value(g), q.value(invert_letters(g))
    if value != -inverse_value:
        out.fail(
            "qm-antisymmetry",
            {"word": format_letters(g), "value": str(value), "inverse_value": str(inverse_value)},
        )
        return True


def _antisymmetry_stage(q: QuasiMorphism, radius: int, cap, jobs: int = 1) -> StageResult:
    """phi(g^-1) must equal -phi(g) on every word of the ball."""
    ball = list(enumerate_ball(q.rank, radius, cap))
    return StageResult.from_scan("qm-antisymmetry", scan(_antisymmetry_probe, q, ball, jobs))


def _tripod_probe(q: QuasiMorphism, pair: tuple[Letters, Letters], out: Scan):
    g, h = pair
    d = defect(q, g, h)
    via_triangle = defect_from_triangle(q, g, h)
    if d != via_triangle:
        out.fail(
            "defect-tripod-identity",
            {
                "g": format_letters(g),
                "h": format_letters(h),
                "defect": str(d),
                "triangle_sum": str(via_triangle),
            },
        )
        return True


def _tripod_identity_stage(q: QuasiMorphism, radius: int, cap, jobs: int = 1) -> StageResult:
    """defect(g, h) must equal phi(r1) + phi(r2) + phi(r3) exactly."""
    ball = list(enumerate_ball(q.rank, radius, cap))
    result = pair_scan(_tripod_probe, q, ball, ball, jobs)
    return StageResult.from_scan("defect-tripod-identity", result)


def run_defect(doc: dict, overrides: dict | None = None) -> Report:
    """Defect statistics and the quasi-morphism invariants behind them."""
    config = _with_overrides(doc, overrides, "defect")
    started, started_at = time.monotonic(), now_iso()
    rank = read_int(config, "rank", 2)
    q = qm_from_json(field(config, "phi", "defect config"), rank)
    radius = at_least(read_int(config, "radius", 4), "radius", 0)
    pair_radius = at_least(read_int(config, "pair_radius", radius), "pair_radius", 0)
    random_pairs = at_least(read_int(config, "random_pairs", 2000), "random_pairs", 0)
    max_len = at_least(read_int(config, "max_len", 100), "max_len", 0)
    seed = read_int(config, "seed", 0)
    cap = enumeration_cap(read_int(config, "enumeration_cap", None))
    check_length(max_len, "max_len", cap)
    jobs = at_least(read_int(config, "jobs", 1), "jobs", 1)

    # Measured before the report starts, so no stage's time holds this scan.
    r_hat = measure_r_hat(q.spec, pair_radius, cap, jobs)
    report = Report(command="defect")
    report.add(_antisymmetry_stage(q, radius + 2, cap, jobs))
    report.add(_tripod_identity_stage(q, radius, cap, jobs))

    bound = Fraction(3 * r_hat) * q.table.sup
    stats = defect_sup(q, radius, random_pairs, max_len, seed, cap, jobs)
    over = {"max_abs_defect": str(stats.max_abs), "bound": str(bound), "argmax": stats.argmax}
    report.add(
        StageResult(
            "defect-bound",
            stats.checked,
            None if stats.max_abs <= bound else over,
            stats={"r_hat": r_hat, "bound": str(bound)},
        )
    )
    report.add(StageResult("defect-sup", stats.checked, stats=stats.to_json()))
    report.notes = {"spec": q.spec.describe(), "r_hat": r_hat, "lambda_sup": str(q.table.sup)}
    return _finish(report, started, started_at, doc)


def _run_plan(doc: dict, overrides: dict | None, command: str, verify) -> Report:
    started, started_at = time.monotonic(), now_iso()
    instance, plan = massey_from_json(_with_overrides(doc, overrides, command))
    return _finish(verify(instance, plan), started, started_at, doc)


def run_massey(doc: dict, overrides: dict | None = None) -> Report:
    return _run_plan(doc, overrides, "massey", verify_massey_triviality)


def run_verify_primitive(doc: dict, overrides: dict | None = None) -> Report:
    return _run_plan(doc, overrides, "verify-primitive", verify_primitives)


RUNNERS = {
    "axioms": run_axioms,
    "defect": run_defect,
    "verify-primitive": run_verify_primitive,
    "massey": run_massey,
}

