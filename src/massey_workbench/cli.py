"""Command line interface.

Subcommands: ``axioms``, ``defect``, ``verify-primitive``, ``massey`` run a
verification flow from a JSON config; ``report`` renders a stored JSON
report as a table. Exit status is 0 iff every stage passed; configuration
problems, and an ``--out`` path that cannot take the report, exit with
status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ResourceCapError, WorkbenchError
from .harness import RUNNERS
from .config import load_config
from .report import load_report, render_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massey-workbench",
        description="Exact verification workbench for decomposable quasi-morphisms "
        "and Massey triple products on free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("axioms", "exhaustive decomposition axiom suite"),
        ("defect", "quasi-morphism defect statistics and bounds"),
        ("verify-primitive", "cocycle preconditions and beta primitive identities"),
        ("massey", "full Massey triviality verification ladder"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override the plan seed")
        cmd.add_argument("--radius", type=int, default=None, help="override the main radius")
        cmd.add_argument("--out", default=None, help="write the JSON report here")
        cmd.add_argument("--jobs", type=int, default=None, help="worker processes")

    rep = sub.add_parser("report", help="render a stored JSON report as a table")
    rep.add_argument("path", help="report file to render")
    return parser


def _out_problem(path: str) -> str | None:
    """Why a report cannot be written to ``path``, or None. Checked before
    any stage runs, so a long run never ends in an unwritable path."""
    target = Path(path)
    if target.is_dir():
        return f"--out {path} is a directory"
    if not target.parent.is_dir():
        return f"--out {path}: directory {target.parent} does not exist"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            doc = load_report(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read report: {exc}", file=sys.stderr)
            return 2
        print(render_table(doc))
        return 0

    overrides = {"seed": args.seed, "radius": args.radius, "jobs": args.jobs}
    problem = args.out and _out_problem(args.out)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        doc = load_config(args.config)
        report = RUNNERS[args.command](doc, overrides)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(report.to_json()))
    if args.out:
        try:
            report.save(args.out)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
