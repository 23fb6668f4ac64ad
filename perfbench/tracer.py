"""In-process tracer for the per-layer table.

The tracer wraps the library's public functions and methods from outside:
every module attribute bound to a wrapped function is replaced (``massey``
and ``quasimorphism`` import ``piece_lengths`` by name), and ``_eval`` is
replaced per cochain class.

Each wrapped call is a span. Self time is span time minus the time of
wrapped calls made inside it. Coarse spans (runners, stages, task
generation, scans, pools) are kept in memory as (name, start, end, parent,
job) records and written out when the run ends. Per-call spans of the hot
layers (cochain node evaluation, quasi-morphism values, piece scans) would
number in the millions per job, so those layers are aggregated at the same
boundary into call counts and self time instead of being stored.

Spans recorded inside forked pool workers stay in the workers and are lost;
only parent-side spans are reported.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

EVAL_KINDS = {
    "Coboundary": "coboundary",
    "CupProduct": "cup",
    "LinearCombination": "lincomb",
    "Restriction": "restrict",
    "QMCochain": "qm",
    "TableCochain": "table",
    "Alternation": "alt",
}
ETA_KINDS = {"Eta1": "eta1", "Eta2": "eta2", "EtaBridge": "bridge"}
FAMILIES = ("letter", "rolli", "brooks")


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.wall_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # Report creations and stage additions, in time order:
        # (report id, stage name or None for a creation, checked, time).
        self.stage_events: list[tuple[int, str | None, int, float]] = []
        # Open spans: [child time, index of the nearest recorded span].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, record=False, before=None, after=None):
        """Wrap ``fn`` as a span. ``name`` may be a function of the call args."""
        stack = self._stack
        spans = self.spans
        self_s, wall_s, counts = self.self_s, self.wall_s, self.counts
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            if before is not None:
                before(label, args)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_s[label] += elapsed - frame[0]
                wall_s[label] += elapsed
                counts[label] += 1
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[frame[1]] = (label, start, end, parent, self.job)
            if after is not None:
                after(label, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, wrapper):
        """Point every ``massey_workbench`` module binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "massey_workbench" or mod_name.startswith("massey_workbench."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _wrap_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        self._rebind(original, self._span(original, name, **kw))

    def _wrap_method(self, cls, attr, name, **kw):
        self._replace(cls, attr, self._span(cls.__dict__[attr], name, **kw))

    # -- install / remove -------------------------------------------------

    def install(self):
        from massey_workbench import (
            _parallel,
            checks,
            cochain,
            decomposition,
            massey,
            quasimorphism,
            report,
            words,
        )

        counts = self.counts

        for cls_name, kind in EVAL_KINDS.items():
            self._wrap_method(getattr(cochain, cls_name), "_eval", f"cochain.eval.{kind}")
        for cls_name, kind in ETA_KINDS.items():
            self._wrap_method(getattr(massey, cls_name), "_compute", f"massey.eta.{kind}")

        # EvalContext lookups happen in Restriction._eval and _EtaBase._eval;
        # every miss is followed by exactly one store.
        eta_eval = massey._EtaBase.__dict__["_eval"]

        def eta_lookup(node, t, ctx):
            counts["cochain.ctx.eta_lookups"] += 1
            return eta_eval(node, t, ctx)

        self._replace(massey._EtaBase, "_eval", eta_lookup)
        store = cochain.EvalContext.store

        def counted_store(ctx, key, value):
            counts["cochain.ctx.stores"] += 1
            if len(ctx.node_values) >= ctx.limit:
                counts["cochain.ctx.clears"] += 1
            return store(ctx, key, value)

        self._replace(cochain.EvalContext, "store", counted_store)

        def qm_hit(label, args):
            q, letters = args
            if q._cache.get(letters) is not None:
                counts["quasimorphism.value_letters.hits"] += 1

        self._wrap_method(
            quasimorphism.QuasiMorphism,
            "value_letters",
            "quasimorphism.value_letters",
            before=qm_hit,
        )

        def piece_letters(label, args):
            counts[label + ".letters"] += len(args[1])

        self._wrap_function(
            decomposition,
            "piece_lengths",
            lambda args: f"decomposition.piece_lengths.{args[0].family}",
            before=piece_letters,
        )

        def scan_pairs(label, args, result):
            counts["decomposition.triangle_scan.pairs"] += result[0]

        self._wrap_function(
            decomposition,
            "triangle_scan",
            "decomposition.triangle_scan",
            record=True,
            after=scan_pairs,
        )
        self._wrap_function(decomposition, "triangle_split", "decomposition.triangle_split")
        self._wrap_function(
            decomposition, "measure_r_hat", "decomposition.measure_r_hat", record=True
        )
        self._wrap_function(
            decomposition, "check_axioms", "decomposition.check_axioms", record=True
        )
        self._wrap_function(quasimorphism, "defect", "quasimorphism.defect")
        self._wrap_function(
            quasimorphism, "defect_sup", "quasimorphism.defect_sup", record=True
        )
        self._wrap_function(
            massey, "three_sum_residual", "massey.three_sum_residual", record=True
        )
        self._wrap_function(checks, "stage_tasks", "cochain.tasks", record=True)
        self._wrap_function(cochain, "random_aligned_tuples", "cochain.tasks", record=True)
        for fn in ("identity_stage", "vanishing_stage", "sup_scan"):
            self._wrap_function(checks, fn, f"checks.{fn}", record=True)
        self._wrap_function(
            _parallel, "chunked_map", "parallel.chunked_map", record=True
        )

        # _chunks runs only on the fork-pool path of chunked_map.
        chunks = _parallel._chunks

        def counted_chunks(tasks, jobs):
            counts["parallel.chunked_map.pool_calls"] += 1
            return chunks(tasks, jobs)

        self._replace(_parallel, "_chunks", counted_chunks)

        ball = words.enumerate_ball

        @functools.wraps(ball)
        def counted_ball(*args, **kwargs):
            for w in ball(*args, **kwargs):
                counts["words.enumerate_ball.words"] += 1
                yield w

        self._rebind(ball, counted_ball)

        # Stage boundaries: a stage ends when its result is added to the report.
        report_init = report.Report.__init__
        report_add = report.Report.add
        events = self.stage_events

        def traced_init(rep, *args, **kwargs):
            report_init(rep, *args, **kwargs)
            events.append((id(rep), None, 0, perf_counter()))

        def traced_add(rep, stage):
            events.append((id(rep), stage.name, stage.checked, perf_counter()))
            return report_add(rep, stage)

        self._replace(report.Report, "__init__", traced_init)
        self._replace(report.Report, "add", traced_add)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    @contextmanager
    def job_span(self, job: int):
        """Record one job as a top-level span."""
        self.job = job
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, index])
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = ("job", start, perf_counter(), -1, job)

    def stage_walls(self) -> dict[str, list[float]]:
        """Stage name -> [wall seconds, checked] summed over every report.

        A stage's interval runs from the previous stage of the same report
        (or the report's creation) to the moment it is added, less any
        R-hat measurement inside it, which is reported on its own. Stages
        added together after one shared scan (the axiom checks, the
        three-sum and ledger stages) put the whole interval on the first.
        """
        r_hat = [
            (s[1], s[2])
            for s in self.spans
            if s is not None and s[0] == "decomposition.measure_r_hat"
        ]
        out: dict[str, list[float]] = {}
        last: dict[int, float] = {}
        for rep, name, checked, at in self.stage_events:
            if name is None:
                last[rep] = at
                continue
            begin = last[rep]
            wall = at - begin - sum(e - s for s, e in r_hat if begin <= s and e <= at)
            last[rep] = at
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += wall
            entry[1] += checked
        return out

    def write_spans(self, path):
        names = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(names, span))) + "\n")


def layer_units() -> dict[str, str]:
    """Every per-layer metric name, in table order, with its unit."""
    from workloads import all_stage_names

    units: dict[str, str] = {}
    for kind in EVAL_KINDS.values():
        units[f"cochain.eval.{kind}.calls"] = "count"
        units[f"cochain.eval.{kind}.self_s"] = "s"
    units["cochain.ctx.hit_ratio"] = "ratio"
    units["cochain.ctx.clears"] = "count"
    units["cochain.tasks.self_s"] = "s"
    for kind in ETA_KINDS.values():
        units[f"massey.eta.{kind}.computes"] = "count"
        units[f"massey.eta.{kind}.self_s"] = "s"
    units["massey.three_sum_residual.calls"] = "count"
    units["massey.three_sum_residual.self_s"] = "s"
    units["quasimorphism.value_letters.calls"] = "count"
    units["quasimorphism.value_letters.hit_ratio"] = "ratio"
    units["quasimorphism.value_letters.self_s"] = "s"
    units["quasimorphism.defect.calls"] = "count"
    for family in FAMILIES:
        units[f"decomposition.piece_lengths.{family}.calls"] = "count"
        units[f"decomposition.piece_lengths.{family}.letters"] = "count"
        units[f"decomposition.piece_lengths.{family}.self_s"] = "s"
    units["decomposition.triangle_scan.pairs"] = "count"
    units["decomposition.triangle_scan.self_s"] = "s"
    units["decomposition.triangle_split.calls"] = "count"
    units["decomposition.triangle_split.self_s"] = "s"
    units["decomposition.measure_r_hat.wall_s"] = "s"
    units["words.enumerate_ball.words"] = "count"
    for stage in all_stage_names():
        units[f"checks.stage.{stage}.wall_s"] = "s"
        units[f"checks.stage.{stage}.us_per_tuple"] = "us"
    units["parallel.chunked_map.calls"] = "count"
    units["parallel.chunked_map.wall_s"] = "s"
    units["parallel.pool.calls"] = "count"
    units["parallel.pool.wall_s"] = "s"
    units["parallel.efficiency"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job layer values from ``jobs`` identical traced jobs.

    Counts are exact per-job counts; times are per-job means; ratios are
    taken over all jobs. Metrics a workload does not reach read 0.
    """
    counts, self_s, wall_s = tracer.counts, tracer.self_s, tracer.wall_s

    def count(key):
        total = counts[key]
        return total // jobs if total % jobs == 0 else total / jobs

    def ratio(hits, lookups):
        return hits / lookups if lookups else 0.0

    out = {name: 0 for name in layer_units()}
    for kind in EVAL_KINDS.values():
        out[f"cochain.eval.{kind}.calls"] = count(f"cochain.eval.{kind}")
        out[f"cochain.eval.{kind}.self_s"] = self_s[f"cochain.eval.{kind}"] / jobs
    lookups = counts["cochain.eval.restrict"] + counts["cochain.ctx.eta_lookups"]
    out["cochain.ctx.hit_ratio"] = ratio(lookups - counts["cochain.ctx.stores"], lookups)
    out["cochain.ctx.clears"] = count("cochain.ctx.clears")
    out["cochain.tasks.self_s"] = self_s["cochain.tasks"] / jobs
    for kind in ETA_KINDS.values():
        out[f"massey.eta.{kind}.computes"] = count(f"massey.eta.{kind}")
        out[f"massey.eta.{kind}.self_s"] = self_s[f"massey.eta.{kind}"] / jobs
    out["massey.three_sum_residual.calls"] = count("massey.three_sum_residual")
    out["massey.three_sum_residual.self_s"] = self_s["massey.three_sum_residual"] / jobs
    out["quasimorphism.value_letters.calls"] = count("quasimorphism.value_letters")
    out["quasimorphism.value_letters.hit_ratio"] = ratio(
        counts["quasimorphism.value_letters.hits"], counts["quasimorphism.value_letters"]
    )
    out["quasimorphism.value_letters.self_s"] = self_s["quasimorphism.value_letters"] / jobs
    out["quasimorphism.defect.calls"] = count("quasimorphism.defect")
    for family in FAMILIES:
        key = f"decomposition.piece_lengths.{family}"
        out[f"{key}.calls"] = count(key)
        out[f"{key}.letters"] = count(f"{key}.letters")
        out[f"{key}.self_s"] = self_s[key] / jobs
    out["decomposition.triangle_scan.pairs"] = count("decomposition.triangle_scan.pairs")
    out["decomposition.triangle_scan.self_s"] = self_s["decomposition.triangle_scan"] / jobs
    out["decomposition.triangle_split.calls"] = count("decomposition.triangle_split")
    out["decomposition.triangle_split.self_s"] = self_s["decomposition.triangle_split"] / jobs
    out["decomposition.measure_r_hat.wall_s"] = wall_s["decomposition.measure_r_hat"] / jobs
    out["words.enumerate_ball.words"] = count("words.enumerate_ball.words")
    for stage, (wall, checked) in tracer.stage_walls().items():
        out[f"checks.stage.{stage}.wall_s"] = wall / jobs
        out[f"checks.stage.{stage}.us_per_tuple"] = 1e6 * wall / checked if checked else 0.0
    out["parallel.chunked_map.calls"] = count("parallel.chunked_map")
    out["parallel.chunked_map.wall_s"] = wall_s["parallel.chunked_map"] / jobs
    return out
