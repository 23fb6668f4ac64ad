"""Experiment plans and verification reports.

Reports are plain JSON documents. Every nondeterministic field (wall time,
timestamp) lives under the single ``timing`` key so two runs with the same
config and seed produce byte-identical files once that key is dropped.
"""

from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, at_least, integer
from .words import check_length, check_rank

if TYPE_CHECKING:
    from ._parallel import Scan

SCHEMA_VERSION = 1
TIMING_KEY = "timing"


@dataclass
class ExperimentPlan:
    """Seeded, capped description of every sampled or enumerated domain."""

    rank: int = 2
    seed: int = 0
    exhaustive_entry_radius: int = 4
    exhaustive_total_budget: int = 7
    deep_budget: int = 6
    pair_radius: int = 5
    sample_counts: dict[str, int] = field(default_factory=dict)
    max_len: int = 50
    max_len_ladder: tuple[int, ...] = (25, 50, 100, 200)
    ladder_samples: int = 300
    enumeration_cap: int | None = None
    jobs: int = 1

    DEFAULT_SAMPLES = {
        "cocycle": 10_000,
        "primitive": 10_000,
        "mu_simplification": 2_000,
        "delta_p": 10_000,
        "three_sum": 10_000,
        "mu_cocycle": 1_000,
        "norms": 2_000,
    }

    def __post_init__(self):
        check_rank(self.rank)
        integer(self.seed, "seed")
        # An entry radius of 0 would read as "no cap" in the tuple enumeration,
        # and a negative budget as an empty exhaustive domain.
        least = dict.fromkeys(("exhaustive_entry_radius", "max_len", "ladder_samples", "jobs"), 1)
        least.update(exhaustive_total_budget=0, deep_budget=0, pair_radius=0)
        for key, low in least.items():
            at_least(getattr(self, key), key, low)
        for stage, count in self.sample_counts.items():
            at_least(count, f"sample_counts.{stage}", 0)
        ladder = tuple(self.max_len_ladder)
        # With no rung the sup bound would pass unchecked.
        if not ladder:
            raise ConfigError("max_len_ladder needs at least one rung")
        for rung in ladder:
            at_least(rung, "max_len_ladder rung", 1)
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("max_len_ladder must be strictly increasing")
        # Also checks the cap itself.
        check_length(self.max_len, "max_len", self.enumeration_cap)
        check_length(ladder[-1], "max_len_ladder rung", self.enumeration_cap)
        self.max_len_ladder = ladder

    def samples(self, stage: str) -> int:
        if stage in self.sample_counts:
            return self.sample_counts[stage]
        return self.DEFAULT_SAMPLES[stage]

    def budget(self, arity: int) -> int:
        return self.exhaustive_total_budget if arity <= 5 else self.deep_budget


@dataclass
class StageResult:
    """One verification stage: a named check that fails exactly when it
    carries a counterexample."""

    name: str
    checked: int = 0
    counterexample: dict | None = None
    stats: dict | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @classmethod
    def from_scan(cls, name: str, result: Scan, stats: dict | None = None) -> StageResult:
        """The stage whose check a scan recorded under the stage's name."""
        return cls(name, result.checked, result.failures.get(name), stats)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "checked_count": self.checked,
            "counterexample": self.counterexample,
            "stats": self.stats,
        }


@dataclass
class Report:
    """Aggregated outcome of one workbench command.

    ``stage_timing`` holds, for each added stage, its wall time from the
    previous ``add`` (or from the report's creation), less the time spent in
    ``build_tasks``, and its tuples per second. Each command adds a stage as
    soon as the scan producing it ends; stages added together after one
    shared scan (the three per-word axiom checks, three-sum and ledger) put
    the whole scan on the first of them. ``tasks_s`` is the time spent in
    ``build_tasks``.
    """

    command: str
    stages: list[StageResult] = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    started_at: str = ""
    stage_timing: list[dict] = field(default_factory=list, init=False)
    tasks_s: float = field(default=0.0, init=False)

    def __post_init__(self):
        self._last_mark = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)

    def build_tasks(self, build, *args):
        """``build(*args)``, a task list, timed into ``tasks_s`` instead of
        the next stage's wall time."""
        start = time.perf_counter()
        tasks = build(*args)
        spent = time.perf_counter() - start
        self.tasks_s += spent
        self._last_mark += spent
        return tasks

    def add(self, stage: StageResult) -> StageResult:
        now = time.perf_counter()
        wall = round(now - self._last_mark, 3)
        self._last_mark = now
        self.stage_timing.append(
            {
                "name": stage.name,
                "wall_time_s": wall,
                "tuples_per_s": round(stage.checked / wall, 1) if wall else None,
            }
        )
        self.stages.append(stage)
        return stage

    def to_json(self) -> dict:
        from . import __version__

        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "overall_status": "pass" if self.passed else "fail",
            "versions": {"massey-workbench": __version__, "report-schema": SCHEMA_VERSION},
            "stages": [s.to_json() for s in self.stages],
            "config": self.config_echo,
            "notes": self.notes,
            TIMING_KEY: {
                "started_at": self.started_at,
                "wall_time_s": self.wall_time_s,
                "tasks_s": round(self.tasks_s, 3),
                "stages": self.stage_timing,
            },
        }

    def save(self, path: str | Path) -> None:
        """Write the report to ``path``; a failed write is a ``ConfigError``."""
        try:
            Path(path).write_text(render_json(self.to_json()), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report to {path}: {exc}") from exc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def now_iso() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _is_stage(stage) -> bool:
    """A stage record as ``StageResult.to_json`` writes it."""
    return (
        isinstance(stage, dict)
        and isinstance(stage.get("name"), str)
        and isinstance(stage.get("status"), str)
        and type(stage.get("checked_count")) is int
        and all(isinstance(stage.get(k), (dict, type(None))) for k in ("counterexample", "stats"))
    )


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file ``path``, a ``what`` (config or report);
    a file that cannot be read, is not UTF-8 or not JSON, nests too deeply
    to read or holds no object is a ``ConfigError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{what} {path} nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} is not a {what}: not a JSON object")
    return doc


def load_report(path: str | Path) -> dict:
    """A stored report: a JSON object whose ``stages`` is a list of stage
    records (string ``name`` and ``status``, integer ``checked_count``, and
    ``counterexample`` and ``stats`` each an object or null)."""
    doc = read_json_object(path, "report")
    stages = doc.get("stages")
    if not isinstance(stages, list):
        raise ConfigError(f"{path} is not a report: no 'stages' list")
    for i, stage in enumerate(stages):
        if not _is_stage(stage):
            raise ConfigError(
                f"{path} is not a report: stage {i} needs a string name and status, "
                "an integer checked_count, and an object or null counterexample and stats"
            )
    return doc


def strip_timing(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != TIMING_KEY}


def render_table(doc: dict) -> str:
    """Human-readable table for a stored report."""
    rows = [("stage", "status", "checked", "details")]
    for stage in doc.get("stages", []):
        details = ""
        if stage.get("counterexample"):
            details = f"counterexample: {json.dumps(stage['counterexample'], sort_keys=True)}"
        elif stage.get("stats"):
            stats = stage["stats"]
            keys = sorted(stats)[:4]
            details = ", ".join(f"{k}={stats[k]}" for k in keys)
        rows.append(
            (
                stage.get("name", "?"),
                stage.get("status", "?"),
                str(stage.get("checked_count", "")),
                details,
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(col.ljust(widths[j]) for j, col in enumerate(row[:3])) + "  " + row[3]
        )
        if i == 0:
            lines.append("-" * (sum(widths) + 40))
    header = (
        f"command: {doc.get('command', '?')}    overall: {doc.get('overall_status', '?')}"
    )
    return header + "\n" + "\n".join(lines)
