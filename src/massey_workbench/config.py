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
from .decomposition import FAMILIES, DecompositionSpec
from .errors import ConfigError
from .massey import MasseyInstance
from .quasimorphism import LambdaTable, QuasiMorphism
from .report import ExperimentPlan
from .words import Letters, format_letters, parse_word


def integer(value, name: str, optional: bool = False) -> int | None:
    """``value`` if it is a JSON integer (or null, for an optional one); a
    bool, float or string is a ``ConfigError``."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def rational(value, name: str) -> Fraction:
    """``value`` as an exact rational: a JSON number or a string such as
    ``"1/3"``; a bool, any other type, a zero denominator or a value too
    long to print in a report (``"1e999999"``) is a ``ConfigError``."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            exact = Fraction(value)
            str(exact)
            return exact
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ConfigError(f"{name} must be a rational number, got {value!r}")


def field(obj, key: str, where: str):
    """``obj[key]``; a missing key, or an ``obj`` that is no JSON object, is
    a ``ConfigError``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"{where} needs a {key!r} key, got {obj!r}")
    return obj[key]


_JSON_TYPES = {list: "a list", dict: "an object", str: "a string"}


def typed(value, kind: type, name: str):
    """``value`` if it is of JSON type ``kind`` (list, dict or str), else a
    ``ConfigError``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def check_keys(obj: dict, allowed, where: str) -> None:
    """Reject keys of a config object that its reader does not read: a typo
    would otherwise fall back to a default (a misspelled ``"lamda"`` reads as
    phi = 0)."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def read_int(doc: dict, key: str, default: int | None) -> int | None:
    """The integer value of a config key; null is accepted only for an
    optional key, whose default is ``None``."""
    return integer(doc.get(key, default), key, default is None)


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def spec_from_json(obj: dict, rank: int) -> DecompositionSpec:
    family = field(obj, "family", "decomposition spec")
    if family not in FAMILIES:
        raise ConfigError(f"unknown decomposition family {family!r}")
    check_keys(obj, ("family", "word") if family == "brooks" else ("family",), f"{family!r} spec")
    word = None
    if family == "brooks":
        word = parse_word(typed(field(obj, "word", "brooks spec"), str, "brooks word"), rank)
    return DecompositionSpec(family, rank, word)


def qm_from_json(obj: dict, rank: int, name: str = "phi") -> QuasiMorphism:
    spec = spec_from_json(field(obj, "decomposition", f"quasimorphism {name!r}"), rank)
    check_keys(obj, ("decomposition", "lambda"), f"quasimorphism {name!r}")
    entries: dict[Letters, Fraction] = {}
    for row in typed(obj.get("lambda", []), list, f"lambda of {name!r}"):
        check_keys(typed(row, dict, "lambda row"), ("piece", "value"), "lambda row")
        piece = parse_word(typed(field(row, "piece", "lambda row"), str, "lambda piece"), rank)
        if piece in entries:
            raise ConfigError(
                f"duplicate lambda rows for piece {format_letters(piece)} of {name!r}"
            )
        entries[piece] = rational(field(row, "value", "lambda row"), "lambda value")
    return QuasiMorphism(spec, LambdaTable(entries), name=name)


def _tuple_from_json(items, rank: int) -> tuple[Letters, ...]:
    items = typed(items, list, "table tuple")
    return tuple(parse_word(typed(s, str, "table tuple entry"), rank) for s in items)


# Expression op -> the keys its object takes besides "op".
_OP_KEYS = {
    "const": ("value",),
    "qm": ("name", "quasimorphism"),
    "table": ("degree", "entries"),
    "delta": ("child",),
    "cup": ("left", "right"),
    "alt": ("child",),
    "restrict": ("child",),
    "lincomb": ("terms",),
}


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
    if not isinstance(op, str) or op not in _OP_KEYS:
        raise ConfigError(f"unknown expression op {op!r}")
    where = f"{op!r} expression"
    check_keys(obj, ("op", *_OP_KEYS[op]), where)

    def child(key: str = "child") -> Cochain:
        return expr_from_json(field(obj, key, where), rank, qms)

    if op == "const":
        return constant(rational(field(obj, "value", where), "const value"))
    if op == "qm":
        if "name" in obj and "quasimorphism" in obj:
            raise ConfigError("a 'qm' expression takes 'name' or 'quasimorphism', not both")
        if "name" in obj:
            if not isinstance(obj["name"], str) or obj["name"] not in qms:
                raise ConfigError(f"unknown quasimorphism {obj['name']!r}")
            return qm_cochain(qms[obj["name"]])
        return qm_cochain(qm_from_json(field(obj, "quasimorphism", where), rank))
    if op == "table":
        degree = integer(field(obj, "degree", where), "table degree")
        table = {}
        for row in typed(obj.get("entries", []), list, "table entries"):
            check_keys(typed(row, dict, "table entry"), ("tuple", "value"), "table entry")
            key = _tuple_from_json(field(row, "tuple", "table entry"), rank)
            table[key] = rational(field(row, "value", "table entry"), "table value")
        return TableCochain(degree, table)
    if op == "delta":
        return coboundary(child())
    if op == "cup":
        return cup(child("left"), child("right"))
    if op == "alt":
        return alternate(child())
    if op == "restrict":
        return restrict(child())
    if op == "lincomb":
        terms = []
        for term in typed(field(obj, "terms", where), list, "lincomb terms"):
            check_keys(typed(term, dict, "lincomb term"), ("coeff", "child"), "lincomb term")
            coeff = rational(field(term, "coeff", "lincomb term"), "lincomb coeff")
            terms.append((coeff, expr_from_json(field(term, "child", "lincomb term"), rank, qms)))
        return lincomb(*terms)


_PLAN_INTEGERS = (
    "seed",
    "exhaustive_entry_radius",
    "exhaustive_total_budget",
    "deep_budget",
    "pair_radius",
    "max_len",
    "ladder_samples",
    "jobs",
)


def plan_from_json(obj: dict, rank: int) -> ExperimentPlan:
    """The plan of a ``massey`` config; its rank is always the config's."""
    obj = dict(obj)
    check_keys(obj, {*_PLAN_INTEGERS, "enumeration_cap", "sample_counts", "max_len_ladder"}, "plan")
    for key in _PLAN_INTEGERS:
        if key in obj:
            integer(obj[key], key)
    read_int(obj, "enumeration_cap", None)
    counts = typed(obj.get("sample_counts", {}), dict, "sample_counts")
    unknown = set(counts) - set(ExperimentPlan.DEFAULT_SAMPLES)
    if unknown:
        raise ConfigError(
            f"unknown sample_counts stages {sorted(unknown)}; "
            f"known: {sorted(ExperimentPlan.DEFAULT_SAMPLES)}"
        )
    for stage, count in counts.items():
        integer(count, f"sample_counts.{stage}")
    if "max_len_ladder" in obj:
        ladder = typed(obj["max_len_ladder"], list, "max_len_ladder")
        obj["max_len_ladder"] = tuple(integer(rung, "max_len_ladder rung") for rung in ladder)
    return ExperimentPlan(rank=rank, **obj)


def massey_from_json(doc: dict) -> tuple[MasseyInstance, ExperimentPlan]:
    rank = read_int(doc, "rank", 2)
    phi = qm_from_json(field(doc, "phi", "massey config"), rank, name="phi")
    bodies = typed(doc.get("quasimorphisms", {}), dict, "quasimorphisms")
    qms = {name: qm_from_json(body, rank, name=name) for name, body in bodies.items()}
    k1 = read_int(doc, "k1", 2)
    k2 = read_int(doc, "k2", 2)
    try:
        omega1 = expr_from_json(doc.get("omega1", "delta-qm:psi1"), rank, qms)
        omega2 = expr_from_json(doc.get("omega2", "delta-qm:psi2"), rank, qms)
    except RecursionError:
        raise ConfigError("an omega expression nests too deeply to read") from None
    instance = MasseyInstance(
        phi=phi,
        omega1=omega1,
        omega2=omega2,
        k1=k1,
        k2=k2,
        mutation=doc.get("mutation"),
    )
    plan = plan_from_json(typed(doc.get("plan", {}), dict, "plan"), rank)
    return instance, plan
