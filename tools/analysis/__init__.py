"""Project lint pack: the ``python -m tools.analysis`` engine.

Runs the :mod:`tools.analysis.rules` over a set of files/directories,
applies inline waivers (:mod:`tools.analysis.waivers`), and reports
``path:line: CODE message`` diagnostics.  Exit status 0 means clean.

Two tiers of rules:

* per-node rules (RPR001–RPR006, :mod:`tools.analysis.rules`) — one
  file, one AST node at a time;
* flow rules (RPR101–RPR103 and RPR105, :mod:`tools.analysis.rules_flow`) — CFG,
  dataflow and call-graph powered, enabled with ``flow=True`` (CLI
  ``--flow``).  Flow linting is a two-pass run: every file is parsed
  first so the project call graph covers all of them, then each file
  is checked with the full :class:`~tools.analysis.rules_flow.Project`
  in hand.

Per-path rule profiles: test files (under ``tests/``) are exempt from
the per-node rules that test code legitimately violates (exact float
assertions, registry-bypass fixtures, deliberate dtype fixtures) while
the flow rules stay on — see :func:`active_codes`.

Engine-level diagnostics use the reserved code ``RPR000``:

* a waiver without a written reason,
* a waiver that suppressed nothing (stale waivers must be deleted, so
  every committed waiver is load-bearing by construction),
* a waiver naming a malformed/unknown code,
* a file that fails to parse.

The engine is import-friendly for tests: :func:`lint_source` lints one
source string, :func:`lint_sources` lints a batch of in-memory files
(the flow fixtures use this), :func:`lint_paths` walks real trees.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from tools.analysis.callgraph import build_call_graph, _iter_functions
from tools.analysis.rules import ALL_RULES, FileContext
from tools.analysis.rules_flow import ALL_FLOW_RULES, Project
from tools.analysis.waivers import Waiver, malformed_codes, parse_waivers

ENGINE_CODE = "RPR000"

#: Codes of the per-node rules.
NODE_CODES = frozenset(rule.CODE for rule in ALL_RULES)

#: Codes of the CFG/dataflow/call-graph rules.
FLOW_CODES = frozenset(rule.CODE for rule in ALL_FLOW_RULES)

#: Every valid error code (rules plus the engine's own).
KNOWN_CODES = NODE_CODES | FLOW_CODES | {ENGINE_CODE}

#: Per-node rules test code is exempt from: tests assert exact floats
#: on purpose (RPR001), alias arrays to prove aliasing bugs (RPR002),
#: and import scipy_backend to poke solver internals directly (RPR003).
#: Dtype hygiene (RPR006), deadline/except hygiene (RPR004, RPR005)
#: and all flow rules stay on.
TEST_EXEMPT_CODES = frozenset({"RPR001", "RPR002", "RPR003"})


def is_test_path(relpath: str) -> bool:
    """Whether ``relpath`` is test code (relaxed per-node profile)."""
    parts = relpath.replace(os.sep, "/").split("/")
    return "tests" in parts or parts[-1].startswith("test_")


def active_codes(relpath: str) -> frozenset:
    """Rule codes enforced for ``relpath`` (the per-path profile)."""
    if is_test_path(relpath):
        return KNOWN_CODES - TEST_EXEMPT_CODES
    return KNOWN_CODES


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem."""

    path: str
    line: int
    code: str
    message: str
    #: Innermost enclosing function (dotted, ``<module>`` at top level).
    #: Baseline fingerprints key on it so findings survive line drift.
    symbol: str = "<module>"

    def render(self) -> str:
        """The canonical ``path:line: CODE message`` form."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _waiver_diagnostics(path: str, waivers: list[Waiver]) -> list[Diagnostic]:
    """Engine checks on the waivers themselves (reason present, codes valid)."""
    out: list[Diagnostic] = []
    for waiver in waivers:
        bad = malformed_codes(waiver)
        if bad or not waiver.codes:
            out.append(
                Diagnostic(
                    path,
                    waiver.line,
                    ENGINE_CODE,
                    f"waiver names no valid error code ({', '.join(bad) or 'empty'})",
                )
            )
            continue
        unknown = sorted(set(waiver.codes) - KNOWN_CODES)
        if unknown:
            out.append(
                Diagnostic(
                    path,
                    waiver.line,
                    ENGINE_CODE,
                    f"waiver names unknown code(s): {', '.join(unknown)}",
                )
            )
        if not waiver.has_reason:
            out.append(
                Diagnostic(
                    path,
                    waiver.line,
                    ENGINE_CODE,
                    "waiver carries no written reason "
                    "(every waiver must say why it is sound)",
                )
            )
    return out


def _symbol_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    """``(first line, last line, dotted name)`` per function, outer first."""
    spans: list[tuple[int, int, str]] = []
    for name, fn in _iter_functions(tree):
        end = getattr(fn, "end_lineno", fn.lineno) or fn.lineno
        spans.append((fn.lineno, end, name))
    return spans


def _symbol_at(spans: list[tuple[int, int, str]], line: int) -> str:
    best = "<module>"
    best_width = None
    for lo, hi, name in spans:
        if lo <= line <= hi and (best_width is None or hi - lo < best_width):
            best, best_width = name, hi - lo
    return best


@dataclass
class _ParsedFile:
    path: str
    relpath: str
    source: str
    tree: ast.Module | None
    parse_error: Diagnostic | None = None
    waivers: list[Waiver] = field(default_factory=list)


def _parse_file(path: str, source: str, relpath: str | None) -> _ParsedFile:
    if relpath is None:
        relpath = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return _ParsedFile(
            path,
            relpath,
            source,
            None,
            parse_error=Diagnostic(
                path, exc.lineno or 1, ENGINE_CODE, f"file does not parse: {exc.msg}"
            ),
        )
    return _ParsedFile(path, relpath, source, tree, waivers=parse_waivers(source))


def _lint_parsed(parsed: _ParsedFile, project: Project | None) -> list[Diagnostic]:
    """All diagnostics for one parsed file (waivers applied last)."""
    if parsed.tree is None:
        assert parsed.parse_error is not None
        return [parsed.parse_error]

    active = active_codes(parsed.relpath)
    diagnostics = _waiver_diagnostics(parsed.path, parsed.waivers)
    ctx = FileContext(relpath=parsed.relpath, source=parsed.source, tree=parsed.tree)
    spans = _symbol_spans(parsed.tree)

    findings: list[tuple[str, int, str]] = []
    for rule in ALL_RULES:
        if rule.CODE not in active:
            continue
        findings.extend((rule.CODE, line, msg) for line, msg in rule.check(ctx))
    if project is not None:
        for flow_rule in ALL_FLOW_RULES:
            if flow_rule.CODE not in active:
                continue
            findings.extend(
                (flow_rule.CODE, line, msg)
                for line, msg in flow_rule.check(ctx, project)
            )

    for code, line, message in findings:
        suppressor = next(
            (w for w in parsed.waivers if w.matches(code, line) and w.has_reason),
            None,
        )
        if suppressor is not None:
            suppressor.used = True
            continue
        diagnostics.append(
            Diagnostic(parsed.path, line, code, message, _symbol_at(spans, line))
        )

    for waiver in parsed.waivers:
        if waiver.used or not waiver.codes or malformed_codes(waiver):
            continue
        diagnostics.append(
            Diagnostic(
                parsed.path,
                waiver.line,
                ENGINE_CODE,
                f"stale waiver: ignore[{', '.join(waiver.codes)}] suppressed "
                "nothing — delete it",
            )
        )
    return sorted(diagnostics, key=lambda d: (d.line, d.code))


def lint_sources(
    files: list[tuple[str, str, str | None]], flow: bool = False
) -> list[Diagnostic]:
    """Lint a batch of in-memory files.

    Args:
        files: ``(display path, source, relpath)`` triples (``relpath``
            may be ``None`` to reuse the display path).
        flow: Also run the RPR101–103/RPR105 flow rules, with the call graph
            built across the whole batch.

    Returns:
        Diagnostics in input order, per-file sorted by line.
    """
    parsed = [_parse_file(path, source, relpath) for path, source, relpath in files]
    project: Project | None = None
    if flow:
        graph = build_call_graph(
            [(p.relpath, p.tree) for p in parsed if p.tree is not None]
        )
        contexts = [
            FileContext(relpath=p.relpath, source=p.source, tree=p.tree)
            for p in parsed
            if p.tree is not None
        ]
        project = Project(contexts=contexts, graph=graph)
    out: list[Diagnostic] = []
    for p in parsed:
        out.extend(_lint_parsed(p, project))
    return out


def lint_source(
    source: str, path: str, relpath: str | None = None, flow: bool = False
) -> list[Diagnostic]:
    """Lint one in-memory source string (single-file call graph).

    Args:
        source: File text.
        path: Display path for diagnostics.
        relpath: Forward-slash repo-relative path used by rule scope
            predicates; defaults to ``path`` normalized.
        flow: Also run the flow rules over this one file.

    Returns:
        Diagnostics after waiver suppression, sorted by line.
    """
    return lint_sources([(path, source, relpath)], flow=flow)


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git", ".hypothesis"}
                )
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def lint_paths(paths: list[str], flow: bool = False) -> list[Diagnostic]:
    """Lint every ``.py`` file under ``paths``; diagnostics in path order."""
    files: list[tuple[str, str, str | None]] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        files.append((filename, source, filename.replace(os.sep, "/")))
    return lint_sources(files, flow=flow)
