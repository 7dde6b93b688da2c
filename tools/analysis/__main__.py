"""CLI entry point: ``python -m tools.analysis [paths...]``.

Modes:

* ``python -m tools.analysis src benchmarks`` — run the per-node RPR
  lint pack over the given files/directories; exit 1 on any diagnostic.
* ``python -m tools.analysis --flow src benchmarks tests`` — also run
  the RPR101–103/RPR105 flow rules (CFG/dataflow/call graph), with the
  shrink-only findings baseline applied.
* ``--diff origin/main`` — report only findings on lines changed vs
  the given ref (the blocking PR gate; full runs stay nightly).
* ``--sarif out.sarif`` / ``--json out.json`` — also write the report
  in SARIF 2.1.0 (GitHub code-scanning) or flat JSON form.
* ``--write-baseline`` — regenerate ``flow_baseline.json`` from the
  current findings (new entries stamped UNREVIEWED, which the gate
  rejects until a human writes the reason).
* ``python -m tools.analysis --ratchet`` — run the strict-typing
  ratchet (module-list no-shrink + full-annotation check); exit 1 on
  any problem.
* ``python -m tools.analysis --list-rules`` — print the error-code
  table and exit.
"""

from __future__ import annotations

import argparse
import sys

from tools.analysis import ENGINE_CODE, lint_paths
from tools.analysis import ratchet
from tools.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    load_baseline,
    write_baseline,
)
from tools.analysis.diffmode import changed_lines, filter_to_changed
from tools.analysis.output import to_json, to_sarif
from tools.analysis.rules import ALL_RULES
from tools.analysis.rules_flow import ALL_FLOW_RULES


def _list_rules() -> None:
    print(f"{ENGINE_CODE}  engine: waiver hygiene (reason required, no stale waivers)")
    for rule in ALL_RULES:
        print(f"{rule.CODE}  {rule.SUMMARY}")
    for rule in ALL_FLOW_RULES:
        print(f"{rule.CODE}  [flow] {rule.SUMMARY}")


def main(argv: list[str] | None = None) -> int:
    """Run the requested analysis; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Project-specific soundness lint pack + typing ratchet.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files/directories to lint (e.g. src benchmarks)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the error-code table"
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the RPR101-103/RPR105 flow rules (CFG/dataflow/call graph)",
    )
    parser.add_argument(
        "--diff",
        metavar="BASE_REF",
        help="only report findings on lines changed vs BASE_REF "
        "(git diff --unified=0)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", help="also write a SARIF 2.1.0 report to FILE"
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        metavar="FILE",
        help="also write a flat JSON report to FILE",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_PATH,
        help="flow-findings baseline file (default: %(default)s)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current flow findings "
        "(new entries stamped UNREVIEWED) instead of failing on them",
    )
    parser.add_argument(
        "--ratchet",
        action="store_true",
        help="check the strict-typing ratchet instead of linting",
    )
    parser.add_argument(
        "--src-root",
        default="src",
        help="package root the ratchet module list is relative to (default: src)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    if args.ratchet:
        problems = ratchet.run(src_root=args.src_root)
        for problem in problems:
            print(problem.render())
        if problems:
            print(f"ratchet: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(
            f"ratchet: ok ({len(ratchet.load_modules())} module entries, "
            "fully annotated)"
        )
        return 0

    if not args.paths:
        parser.error("nothing to do: pass paths to lint, --ratchet, or --list-rules")
    diagnostics = lint_paths(args.paths, flow=args.flow)

    if args.flow and args.write_baseline:
        previous = load_baseline(args.baseline)
        count = write_baseline(diagnostics, args.baseline, previous=previous)
        print(f"baseline: wrote {count} entr(y/ies) to {args.baseline}")
        return 0

    if args.flow:
        baseline = load_baseline(args.baseline)
        diagnostics, extra = baseline.apply(diagnostics)
        diagnostics.extend(extra)

    if args.diff:
        try:
            changed = changed_lines(args.diff)
        except RuntimeError as exc:
            print(f"--diff unavailable ({exc}); running full", file=sys.stderr)
        else:
            diagnostics = filter_to_changed(diagnostics, changed)

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(to_sarif(diagnostics))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(to_json(diagnostics))

    for diag in diagnostics:
        print(diag.render())
    if diagnostics:
        print(f"lint: {len(diagnostics)} diagnostic(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
