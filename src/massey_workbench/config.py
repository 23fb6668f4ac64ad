"""JSON configuration parsing for specs, quasi-morphisms, cochain
expressions, Massey instances, and experiment plans."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .cochain import (
    Cochain,
    TableCochain,
    alternate,
    coboundary,
    constant,
    cup,
    lincomb,
    qm_cochain,
    restrict,
)
from .decomposition import DecompositionSpec
from .errors import ConfigError
from .massey import MasseyInstance
from .quasimorphism import LambdaTable, QuasiMorphism
from .report import ExperimentPlan
from .words import Word, parse_word


def integer(value, name: str, optional: bool = False) -> int | None:
    """``value`` if it is a JSON integer (or null, for an optional one); a
    bool, float or string is a ``ConfigError``."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def read_int(doc: dict, key: str, default: int | None) -> int | None:
    """The integer value of a config key; null is accepted only for an
    optional key, whose default is ``None``."""
    return integer(doc.get(key, default), key, default is None)


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def spec_from_json(obj: dict, rank: int) -> DecompositionSpec:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError("decomposition spec needs a 'family' key")
    family = obj["family"]
    word = None
    if family == "brooks":
        if "word" not in obj:
            raise ConfigError("brooks decomposition needs a 'word' key")
        word = parse_word(obj["word"], rank)
    return DecompositionSpec(family, rank, word)


def qm_from_json(obj: dict, rank: int, name: str = "phi") -> QuasiMorphism:
    if not isinstance(obj, dict) or "decomposition" not in obj:
        raise ConfigError(f"quasimorphism {name!r} needs a 'decomposition' key")
    spec = spec_from_json(obj["decomposition"], rank)
    entries: dict[Word, Fraction] = {}
    for row in obj.get("lambda", []):
        try:
            piece = parse_word(row["piece"], rank)
            value = Fraction(row["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad lambda row {row!r}: {exc}") from exc
        entries[piece] = value
    return QuasiMorphism(spec, LambdaTable(entries), name=name)


def _tuple_from_json(items: list, rank: int) -> tuple[Word, ...]:
    return tuple(parse_word(s, rank) for s in items)


def expr_from_json(obj, rank: int, qms: dict[str, QuasiMorphism]) -> Cochain:
    """Nested expression objects, plus the ``delta-qm:<name>`` preset for the
    restricted coboundary of a named quasi-morphism."""
    if isinstance(obj, str):
        if obj.startswith("delta-qm:"):
            name = obj.split(":", 1)[1]
            if name not in qms:
                raise ConfigError(f"unknown quasimorphism {name!r} in preset {obj!r}")
            return restrict(coboundary(qm_cochain(qms[name])))
        raise ConfigError(f"unknown expression preset {obj!r}")
    if not isinstance(obj, dict) or "op" not in obj:
        raise ConfigError(f"expression must be a preset string or an object with 'op': {obj!r}")
    op = obj["op"]
    if op == "const":
        return constant(Fraction(obj["value"]))
    if op == "qm":
        if "name" in obj:
            if obj["name"] not in qms:
                raise ConfigError(f"unknown quasimorphism {obj['name']!r}")
            return qm_cochain(qms[obj["name"]])
        return qm_cochain(qm_from_json(obj["quasimorphism"], rank))
    if op == "table":
        degree = int(obj["degree"])
        table = {
            _tuple_from_json(row["tuple"], rank): Fraction(row["value"])
            for row in obj.get("entries", [])
        }
        return TableCochain(degree, table)
    if op == "delta":
        return coboundary(expr_from_json(obj["child"], rank, qms))
    if op == "cup":
        return cup(
            expr_from_json(obj["left"], rank, qms),
            expr_from_json(obj["right"], rank, qms),
        )
    if op == "alt":
        return alternate(expr_from_json(obj["child"], rank, qms))
    if op == "restrict":
        return restrict(expr_from_json(obj["child"], rank, qms))
    if op == "lincomb":
        terms = [
            (Fraction(term["coeff"]), expr_from_json(term["child"], rank, qms))
            for term in obj["terms"]
        ]
        return lincomb(*terms)
    raise ConfigError(f"unknown expression op {op!r}")


_PLAN_INTEGERS = (
    "rank",
    "seed",
    "exhaustive_entry_radius",
    "exhaustive_total_budget",
    "deep_budget",
    "pair_radius",
    "max_len",
    "ladder_samples",
    "jobs",
)


def plan_from_json(obj: dict | None, rank: int, seed_override: int | None = None) -> ExperimentPlan:
    obj = dict(obj or {})
    obj.setdefault("rank", rank)
    if seed_override is not None:
        obj["seed"] = seed_override
    unknown = set(obj) - {*_PLAN_INTEGERS, "enumeration_cap", "sample_counts", "max_len_ladder"}
    if unknown:
        raise ConfigError(f"unknown plan keys: {sorted(unknown)}")
    for key in _PLAN_INTEGERS:
        if key in obj:
            integer(obj[key], key)
    read_int(obj, "enumeration_cap", None)
    counts = obj.get("sample_counts", {})
    if not isinstance(counts, dict):
        raise ConfigError(f"sample_counts must be an object, got {counts!r}")
    unknown = set(counts) - set(ExperimentPlan.DEFAULT_SAMPLES)
    if unknown:
        raise ConfigError(
            f"unknown sample_counts stages {sorted(unknown)}; "
            f"known: {sorted(ExperimentPlan.DEFAULT_SAMPLES)}"
        )
    for stage, count in counts.items():
        integer(count, f"sample_counts.{stage}")
    if "max_len_ladder" in obj:
        ladder = obj["max_len_ladder"]
        if not isinstance(ladder, list):
            raise ConfigError(f"max_len_ladder must be a list, got {ladder!r}")
        obj["max_len_ladder"] = tuple(integer(rung, "max_len_ladder rung") for rung in ladder)
    return ExperimentPlan(**obj)


def massey_from_json(doc: dict, seed_override: int | None = None) -> tuple[MasseyInstance, ExperimentPlan]:
    rank = read_int(doc, "rank", 2)
    if "phi" not in doc:
        raise ConfigError("massey config needs a 'phi' quasimorphism")
    phi = qm_from_json(doc["phi"], rank, name="phi")
    qms = {
        name: qm_from_json(body, rank, name=name)
        for name, body in doc.get("quasimorphisms", {}).items()
    }
    k1 = read_int(doc, "k1", 2)
    k2 = read_int(doc, "k2", 2)
    omega1 = expr_from_json(doc.get("omega1", "delta-qm:psi1"), rank, qms)
    omega2 = expr_from_json(doc.get("omega2", "delta-qm:psi2"), rank, qms)
    instance = MasseyInstance(
        phi=phi,
        omega1=omega1,
        omega2=omega2,
        k1=k1,
        k2=k2,
        mutation=doc.get("mutation"),
    )
    plan = plan_from_json(doc.get("plan"), rank, seed_override)
    return instance, plan
