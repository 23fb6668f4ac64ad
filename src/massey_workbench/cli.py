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

from .config import load_config
from .errors import ConfigError, ResourceCapError, WorkbenchError
from .harness import RUNNERS
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


def _check_out(path: str) -> None:
    """A ``ConfigError`` if a report cannot be written to ``path``. Checked
    before any stage runs, so a long run never ends in an unwritable path."""
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not target.parent.is_dir():
        raise ConfigError(f"--out {path}: directory {target.parent} does not exist")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(render_table(load_report(args.path)))
            return 0
        if args.out:
            _check_out(args.out)
        overrides = {"seed": args.seed, "radius": args.radius, "jobs": args.jobs}
        report = RUNNERS[args.command](load_config(args.config), overrides)
        print(render_table(report.to_json()))
        if args.out:
            report.save(args.out)
        return 0 if report.passed else 1
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
