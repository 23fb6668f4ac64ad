"""Benchmark of the massey-workbench verifier: time to a verified report.

Usage (from the repository root):

    python3 perfbench/run.py --workload massey-short --seed 1 --seconds 30 --trace 0

``--workload`` is one of massey-short, massey-long, axioms-defect, or
``all``. ``--seed`` is the workload seed: it becomes the
plan seed of every generated config, so the same seed gives the same inputs.

With ``--trace 0`` it prints, per workload, the end-to-end metrics: job_s,
checked_per_s, setup_s, peak_rss_mb and fail_ratio, with units. With
``--trace 1`` it prints the per-layer table from a traced run instead, with
the tracing overhead. Either way it runs the correctness gate on every job
and the mutation sentinel, and its last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Every role runs in a fresh process (see child.py): the set-up probes, the
timed jobs, the traced jobs and the gate, so peak RSS, set-up time and
module state belong to one workload alone. Jobs run closed loop, one at a
time, from that single process. See README.md for the workloads, the
metrics and the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import monotonic

import workloads
from tracer import layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
KNOWN_DEFECT_STAGE = "sup-p-ladder"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def fresh_process(cmd: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh process and return its JSON line."""
    role = " ".join(cmd[1:3])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"{role} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{role} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def child(role: str, workload: str, seed: int, deadline: float, **extra) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), role, "--workload", workload]
    cmd += ["--seed", str(seed)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return fresh_process(cmd, deadline)


def plateau_only(stage: dict) -> bool:
    """The known sup-p-ladder defect: every rung within the bound, but a
    later rung's sample maximum above the first's."""
    sups = [Fraction(s) for s in stage["ladder"]]
    return all(s <= Fraction(stage["bound"]) for s in sups) and any(
        s > sups[0] for s in sups[1:]
    )


class Gate:
    """Correctness gate over every job of one workload run."""

    def __init__(self, workload: str, seed: int):
        calls = workloads.job_calls(workload, seed)
        self.expected = [workloads.expected_counts(cmd, doc) for cmd, doc, _ in calls]
        self.digest: str | None = None
        self.problems: list[str] = []
        self.defects: list[str] = []
        # (report, stage) of the plan -> whether some job did not pass it.
        self.verdicts = {
            (i, name): False for i, counts in enumerate(self.expected) for name in counts
        }

    def check(self, label: str, job: dict) -> bool:
        """Record what is wrong with ``job``; return True if it failed."""
        if job["error"] is not None:
            self.problems.append(f"{label} raised {job['error']}")
            self.verdicts = dict.fromkeys(self.verdicts, True)
            return True
        failed = False
        if self.digest is None:
            self.digest = job["digest"]
        elif job["digest"] != self.digest:
            self.problems.append(f"{label} report digest differs from the first job's")
            failed = True
        seen = [(st["report"], st["name"]) for st in job["stages"]]
        wanted = [(i, name) for i, counts in enumerate(self.expected) for name in counts]
        if sorted(seen) != sorted(wanted):
            self.problems.append(f"{label} stages {seen} differ from the plan's {wanted}")
            for key in set(wanted) - set(seen):
                self.verdicts[key] = True
            failed = True
        for st in job["stages"]:
            want = self.expected[st["report"]].get(st["name"])
            if want is not None and st["checked"] != want:
                self.problems.append(
                    f"{label} stage {st['name']} checked {st['checked']}, plan implies {want}"
                )
                self.verdicts[st["report"], st["name"]] = True
                failed = True
            if st["passed"]:
                continue
            failed = True
            self.verdicts[st["report"], st["name"]] = True
            if st["name"] == KNOWN_DEFECT_STAGE and plateau_only(st):
                self.defects.append(
                    f"{label} failed stage {st['name']} (known plateau-verdict defect): "
                    f"ladder {st['ladder']} against bound {st['bound']}"
                )
            else:
                self.problems.append(f"{label} failed stage {st['name']}")
        return failed

    def sentinel(self, found: dict) -> None:
        for mutation, stages in workloads.SENTINEL_EXPECT.items():
            for stage in stages:
                if not found[mutation].get(stage):
                    self.problems.append(
                        f"mutation {mutation} did not fail stage {stage} with a counterexample"
                    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Return (correct, attempted, failed, metrics as name -> (value, unit), notes).

    ``attempted`` and ``failed`` count the stage verdicts of the seed's
    verification; the per-job fail_ratio is among the notes.
    """
    gate = Gate(workload, seed)
    run = lambda role, **kw: child(role, workload, seed, deadline, **kw)  # noqa: E731
    notes: list[str] = []
    if trace:
        untraced = run("jobs", seconds=seconds / 2)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{workload}-seed{seed}.jsonl"
        traced = run("trace", seconds=seconds / 2, spans=spans)
        jobs = untraced["jobs"] + traced["jobs"]
        extra = traced["extra_jobs"]
    else:
        probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        probes = [fresh_process(probe, deadline) for _ in range(SETUP_PROBES)]
        timed = run("jobs", seconds=seconds)
        jobs = timed["jobs"]
        extra = []
    checks = run("gate")
    extra += checks["extra_jobs"]

    failed_jobs = sum(gate.check(f"job {i}", job) for i, job in enumerate(jobs))
    for label, job in extra:
        gate.check(label, job)
    gate.sentinel(checks["sentinel"])
    correct = not gate.problems
    # An operation is one stage verdict of the seed's verification: every
    # job repeats it and must reproduce its report (the digest check), so
    # the counts depend on the seed alone, not on how many jobs fit the run.
    attempted = len(gate.verdicts)
    failed = sum(gate.verdicts.values())
    good = [j for j in jobs if j["error"] is None] or jobs

    if trace:
        layers = traced["layers"]
        layers["trace.overhead"] = traced["traced_job_s"] / median(
            j["norm"] for j in untraced["jobs"]
        )
        metrics = {name: (layers[name], unit) for name, unit in layer_units().items()}
        notes.append(
            f"{len(untraced['jobs'])} untraced and {len(traced['jobs'])} traced jobs; "
            f"spans in {spans.relative_to(ROOT)}"
        )
    else:
        metrics = {
            "job_s": (median(j["norm"] for j in good), "s"),
            "checked_per_s": (median(j["checked"] / j["norm"] for j in good), "1/s"),
            "setup_s": (median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        }
        notes.append(
            f"job_s: median of {len(jobs)} jobs (closed loop, one at a time); "
            f"setup_s: median of {SETUP_PROBES} fresh-process set-ups; "
            "times are at the reference machine speed (speed.py)"
        )
        notes.append(
            f"raw wall medians: job {median(j['wall'] for j in good):.4f} s, "
            f"setup {median(p['setup_raw_s'] for p in probes):.4f} s"
        )
    notes.append(f"fail_ratio {failed_jobs}/{len(jobs)} = {failed_jobs / len(jobs):.4f}")
    notes.append(f"stage verdicts failed: {failed} of {attempted}")
    notes += gate.defects
    notes += [f"GATE FAILURE: {p}" for p in gate.problems]
    if not gate.problems:
        notes.append("correctness gate and mutation sentinel passed")
    return correct, attempted, failed, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "massey_workbench" / "__init__.py").is_file():
        print(f"error: no massey_workbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = monotonic() + TIME_LIMIT_S * len(names)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            correct, attempted, failed, metrics, notes = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"workload {name}  seed {args.seed}  trace {args.trace}")
        for metric, (value, unit) in metrics.items():
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"  {metric:<48} {shown} {unit}")
        for line in notes:
            print(f"  {line}")
        prefix = f"{name}." if len(names) > 1 else ""
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
