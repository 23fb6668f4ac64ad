"""One benchmark process; ``run.py`` starts a fresh one for each role.

Run as ``python3 perfbench/child.py <role> --workload W --seed N [...]``.

* ``jobs``   untraced jobs, closed loop, one at a time, for ``--seconds``.
* ``trace``  traced jobs for the per-layer table; spans go to ``--spans``.
* ``gate``   the mutation sentinel and, on massey-short, the untimed
             ``--jobs 2`` job whose report must match the serial jobs'.

Each role prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# A run keeps at least this many jobs so that job_s is a median.
MIN_JOBS = 2


def import_library():
    sys.path.insert(0, str(SRC))
    import massey_workbench
    from massey_workbench import harness, report

    if not Path(massey_workbench.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported massey_workbench from {massey_workbench.__file__}")
    return harness, report


def summarize(report_mod, reports) -> dict:
    """Timing-stripped digest, per-stage outcome and total checked count."""
    docs = [report_mod.strip_timing(r.to_json()) for r in reports]
    stages = []
    for index, doc in enumerate(docs):
        for st in doc["stages"]:
            entry = {
                "report": index,
                "name": st["name"],
                "passed": st["status"] == "pass",
                "checked": st["checked_count"],
                "counterexample": st["counterexample"] is not None,
            }
            if st["name"] == "sup-p-ladder":
                entry["ladder"] = [rung["sup"] for rung in st["stats"]["ladder"]]
                entry["bound"] = st["stats"]["bound"]
            stages.append(entry)
    return {
        "digest": hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest(),
        "stages": stages,
        "checked": sum(s["checked"] for s in stages),
        "error": None,
    }


def run_job(harness, report_mod, workload: str, seed: int, jobs: int = 1) -> dict:
    """One job: fresh config dicts, fresh runner calls, cold caches."""
    calls = workloads.job_calls(workload, seed, jobs)
    with speed.Sampler() as sampler:
        try:
            reports = [harness.RUNNERS[cmd](doc, overrides) for cmd, doc, overrides in calls]
        except Exception as exc:  # a raising job is recorded as failed, not fatal
            reports = None
            error = f"{type(exc).__name__}: {exc}"
    if reports is None:
        out = {"digest": None, "stages": [], "checked": 0, "error": error}
    else:
        out = summarize(report_mod, reports)
    out.update(wall=sampler.wall, norm=sampler.normalized(), samples=len(sampler.taken))
    return out


def closed_loop(run_one, seconds: float) -> list[dict]:
    """Run jobs one after another; start another only if it should end in time."""
    began = perf_counter()
    jobs: list[dict] = []
    while True:
        jobs.append(run_one(len(jobs)))
        elapsed = perf_counter() - began
        if len(jobs) >= MIN_JOBS and elapsed + jobs[-1]["wall"] > seconds:
            return jobs


def role_jobs(args) -> dict:
    harness, report_mod = import_library()
    jobs = closed_loop(
        lambda i: run_job(harness, report_mod, args.workload, args.seed), args.seconds
    )
    return {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def role_trace(args) -> dict:
    from tracer import Tracer, layer_metrics

    harness, report_mod = import_library()
    tracer = Tracer()
    tracer.install()

    def traced(i):
        with tracer.job_span(i):
            return run_job(harness, report_mod, args.workload, args.seed)

    jobs = closed_loop(traced, args.seconds)
    tracer.uninstall()
    layers = layer_metrics(tracer, len(jobs))
    out = {"jobs": jobs, "extra_jobs": []}
    if args.workload == "massey-short":
        # One traced job through the fork pool on the same inputs. Spans of
        # the pool workers stay in the workers; this is the parent's view.
        pool = Tracer()
        pool.install()
        with pool.job_span(0):
            pool_job = run_job(
                harness, report_mod, args.workload, args.seed, workloads.PARALLEL_JOBS
            )
        pool.uninstall()
        serial_stages = sum(wall for wall, _ in tracer.stage_walls().values()) / len(jobs)
        pool_stages = sum(wall for wall, _ in pool.stage_walls().values())
        layers["parallel.pool.calls"] = pool.counts["parallel.chunked_map.pool_calls"]
        layers["parallel.pool.wall_s"] = pool.wall_s["parallel.chunked_map"]
        layers["parallel.efficiency"] = serial_stages / (
            workloads.PARALLEL_JOBS * pool_stages
        )
        out["extra_jobs"].append(["traced --jobs 2 job", pool_job])
    Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(args.spans)
    out["layers"] = layers
    out["traced_job_s"] = median(j["norm"] for j in jobs)
    return out


def role_gate(args) -> dict:
    harness, report_mod = import_library()
    sentinel = {}
    for mutation in workloads.SENTINEL_EXPECT:
        doc = workloads.massey_doc(workloads.SENTINEL_PLAN, args.seed, mutation)
        rep = harness.RUNNERS["massey"](doc, {})
        sentinel[mutation] = {
            st.name: st.counterexample is not None for st in rep.stages if not st.passed
        }
    extra = []
    if args.workload == "massey-short":
        pool_job = run_job(
            harness, report_mod, args.workload, args.seed, workloads.PARALLEL_JOBS
        )
        extra.append(["--jobs 2 job", pool_job])
    return {"sentinel": sentinel, "extra_jobs": extra}


ROLES = {"jobs": role_jobs, "trace": role_trace, "gate": role_gate}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    print(json.dumps(ROLES[args.role](args)))


if __name__ == "__main__":
    main()
