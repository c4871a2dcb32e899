"""Command-line front end: ``repro lint`` / ``python -m repro.lint``.

Exit status: **0** when no active findings remain (suppressed findings
do not count), **1** when active findings exist, **2** on usage errors —
a path that does not exist, or an unknown rule family passed to
``--select`` / ``--ignore``.  The default target is the installed
``repro`` package, so ``python -m repro.lint`` works from any directory;
CI pins the tree explicitly with ``repro lint src/repro``.

``--select`` / ``--ignore`` take comma-separated rule *families* (the
prefix before the first dash: ``oracle``, ``det``, ``eq``, ``conc``), letting CI run the cheap per-file rules and the
interprocedural pass as separate jobs.  ``--metrics FILE`` appends one
JSONL record (files, rules run, findings per family, wall seconds) via
:class:`repro.obs.MetricsWriter`, so lint cost lands in the same
observability stream as suite execution.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .engine import ALL_RULES, lint_paths, rule_family
from .report import render_text

__all__ = ["add_arguments", "run", "main"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in text output",
    )
    parser.add_argument(
        "--select", metavar="FAMILIES", default=None,
        help="comma-separated rule families to run (e.g. eq,conc); "
             "default: all",
    )
    parser.add_argument(
        "--ignore", metavar="FAMILIES", default=None,
        help="comma-separated rule families to skip",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="append a lint-run metrics record (JSONL) to FILE",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule with its description and exit",
    )


def _default_paths() -> List[str]:
    import repro

    return [str(Path(repro.__file__).parent)]


def _split_families(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _emit_metrics(path: str, args: argparse.Namespace, result,
                  wall_seconds: float) -> None:
    from ..obs.metrics import MetricsWriter

    rules_run = len(ALL_RULES)
    selected = _split_families(args.select)
    ignored = _split_families(args.ignore) or []
    if selected is not None or ignored:
        rules_run = sum(
            1 for rule in ALL_RULES
            if (selected is None or rule_family(rule) in selected)
            and rule_family(rule) not in ignored
        )
    with MetricsWriter(path) as writer:
        writer.emit({
            "event": "lint",
            "files": result.files,
            "rules_run": rules_run,
            "active": len(result.active),
            "suppressed": sum(1 for f in result.findings if f.suppressed),
            "findings_by_family": result.family_counts(),
            "wall_seconds": round(wall_seconds, 3),
        })


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        width = max(len(rule) for rule in ALL_RULES)
        for rule in sorted(ALL_RULES):
            print(f"{rule.ljust(width)}  {ALL_RULES[rule]}")
        return 0

    paths = args.paths or _default_paths()
    start = time.perf_counter()
    try:
        result = lint_paths(paths, select=_split_families(args.select),
                            ignore=_split_families(args.ignore))
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    wall_seconds = time.perf_counter() - start

    if args.metrics:
        _emit_metrics(args.metrics, args, result, wall_seconds)

    sys.stdout.write(render_text(result.findings, result.files,
                                 show_suppressed=args.show_suppressed))
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based simulator-correctness linter "
                    "(oracle isolation, determinism, engine "
                    "equivalence, worker safety)",
    )
    add_arguments(parser)
    try:
        return run(parser.parse_args(argv))
    except BrokenPipeError:
        # Reports piped into `head` etc.; a truncated report is not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
