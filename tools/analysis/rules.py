"""The RPR lint rules — project-specific soundness invariants.

Each rule is a class with a ``CODE``, a one-line ``SUMMARY`` (shown by
``--list-rules``), and a ``check(ctx)`` generator yielding ``(line,
message)`` pairs.  Rules see one file at a time through a
:class:`FileContext`; waiver handling lives in the engine, not here.

The rules encode invariants this repo has historically broken at
runtime (see ISSUE 7 / CHANGES.md): caller-array aliasing (RPR002),
exact-float flakiness (RPR001), solver-entry bypasses (RPR003), wall-clock
vs monotonic deadline drift (RPR004), silently swallowed failures
(RPR005) and precision-losing dtype downcasts in soundness-critical
arithmetic (RPR006).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

Finding = tuple[int, str]


@dataclass
class FileContext:
    """One file as seen by the rules.

    Attributes:
        relpath: Repo-relative path with forward slashes (rule
            predicates match on this, e.g. "repro/milp/" membership).
        source: Raw file text.
        tree: Parsed module AST.
    """

    relpath: str
    source: str
    tree: ast.Module


def _is_float_literal(node: ast.expr) -> bool:
    """Literal float, including the unary-signed forms ``-0.0`` / ``+1.0``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _constraint_builder_compares(tree: ast.Module) -> set[int]:
    """``id()`` of Compare nodes that are constraint-builder DSL, not logic.

    ``model.add_constr(x == 0.0)`` uses the overloaded ``Var.__eq__`` to
    *build a Constraint object*; it never evaluates a float equality, so
    RPR001 must not fire on it.
    """
    builder_args: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name in {"add_constr", "add_constraint", "add_constrs"}:
            for arg in node.args:
                if isinstance(arg, ast.Compare):
                    builder_args.add(id(arg))
    return builder_args


class NoBareFloatEquality:
    """RPR001: tolerance-sensitive float comparisons must use repro.tol."""

    CODE = "RPR001"
    SUMMARY = (
        "no bare float ==/!= in numeric logic; use repro.tol.near_zero/close "
        "(structural exact-zero checks need an audited waiver)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        builder = _constraint_builder_compares(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if id(node) in builder:
                continue
            operands = [node.left, *node.comparators]
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_float_literal(o) for o in operands):
                    yield (
                        node.lineno,
                        "bare float equality: route tolerance-sensitive "
                        "comparisons through repro.tol.near_zero/close; "
                        "waive structural exact-zero checks with a reason",
                    )
                    break


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


class DefensiveArrayIngestion:
    """RPR002: array-ingesting constructors must copy caller arrays."""

    CODE = "RPR002"
    SUMMARY = (
        "caller-array ingestion in Box/BatchedBox/LayerBounds/"
        "BatchedLayerBounds/ConstraintBlock constructors must .copy() "
        "(or carry a documented-read-only waiver)"
    )

    #: Constructors audited for the PR-1 ``Box`` aliasing bug class —
    #: including their batched (query-stacked) counterparts, whose
    #: ``(Q, n)`` arrays alias just as silently.
    ARRAY_CLASSES = frozenset(
        {
            "Box",
            "BatchedBox",
            "_BoundsRecord",
            "LayerBounds",
            "BatchedLayerBounds",
            "ConstraintBlock",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in self.ARRAY_CLASSES:
                continue
            ctors = [
                child
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name in {"__init__", "__post_init__"}
            ]
            if not ctors:
                if _is_dataclass_decorated(node):
                    yield (
                        node.lineno,
                        f"array-ingesting dataclass {node.name} has no "
                        "__post_init__: generated __init__ aliases caller "
                        "arrays; add a defensive-copy __post_init__",
                    )
                continue
            for ctor in ctors:
                yield from self._check_ctor(node.name, ctor)

    #: Parameter annotations that cannot alias an array (immutable scalars).
    _SCALAR_ANNOTATIONS = frozenset({"str", "int", "float", "bool", "bytes"})

    def _check_ctor(
        self, cls: str, ctor: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Finding]:
        params = set()
        for a in [*ctor.args.posonlyargs, *ctor.args.args, *ctor.args.kwonlyargs]:
            if a.arg in {"self", "cls"}:
                continue
            if (
                isinstance(a.annotation, ast.Name)
                and a.annotation.id in self._SCALAR_ANNOTATIONS
            ):
                continue
            params.add(a.arg)
        for node in ast.walk(ctor):
            stored: ast.expr | None = None
            if isinstance(node, ast.Assign):
                if any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in node.targets
                ):
                    stored = node.value
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and len(node.args) == 3
                ):
                    stored = node.args[2]
            if (
                stored is not None
                and isinstance(stored, ast.Name)
                and stored.id in params
            ):
                yield (
                    node.lineno,
                    f"{cls}.{ctor.name} stores parameter {stored.id!r} "
                    "without copying: aliases the caller's array "
                    "(the PR-1 Box bug class)",
                )


class MilpEntryPoints:
    """RPR003: outside repro/milp/, solves go through the milp entry points."""

    CODE = "RPR003"
    SUMMARY = (
        "outside repro/milp/, solves go through Model.solve/solve_many or "
        "repro.milp.open_session, never by importing scipy_backend"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "repro/milp/" in ctx.relpath:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.milp.scipy_backend"):
                        yield self._finding(node.lineno)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.startswith("repro.milp.scipy_backend"):
                    yield self._finding(node.lineno)
                elif module == "repro.milp" and any(
                    alias.name == "scipy_backend" for alias in node.names
                ):
                    yield self._finding(node.lineno)

    @staticmethod
    def _finding(line: int) -> Finding:
        return (
            line,
            "direct scipy_backend import bypasses the milp entry points: "
            "use Model.solve/solve_many or repro.milp.open_session instead",
        )


class MonotonicDeadlines:
    """RPR004: deadline arithmetic never uses the wall clock."""

    CODE = "RPR004"
    SUMMARY = (
        "deadline arithmetic uses time.perf_counter or "
        "repro.utils.timing.Deadline, never time.time (wall clock can jump)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "time"
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ):
                yield (
                    node.lineno,
                    "time.time is not monotonic: use time.perf_counter or "
                    "repro.utils.timing.Deadline for deadline arithmetic",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    yield (
                        node.lineno,
                        "importing time.time invites wall-clock deadline "
                        "arithmetic: use time.perf_counter / Deadline",
                    )


class NoSilentBroadExcept:
    """RPR005: broad exception handlers must state what they swallow."""

    CODE = "RPR005"
    SUMMARY = (
        "no bare except / except Exception without a waiver stating "
        "exactly what is swallowed and why that is safe"
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, node: "ast.expr | None") -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(el) for el in node.elts)
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node.type):
                kind = "bare except" if node.type is None else "except Exception"
                yield (
                    node.lineno,
                    f"{kind} swallows every failure mode: narrow it, or "
                    "waive with a reason stating what is swallowed",
                )


class NoImplicitDowncast:
    """RPR006: no dtype downcasts in soundness-critical arithmetic."""

    CODE = "RPR006"
    SUMMARY = (
        "in repro/bounds/ and repro/encoding/, no np.float32-family dtypes "
        "or bare .astype(...) — sound interval arithmetic is float64-only"
    )

    _NARROW = {"float32", "float16", "half", "single", "csingle", "longdouble"}
    _SCOPES = ("repro/bounds/", "repro/encoding/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(scope in ctx.relpath for scope in self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._NARROW
                and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
            ):
                yield (
                    node.lineno,
                    f"np.{node.attr} narrows float64 interval arithmetic: "
                    "soundness-critical bounds/encoding code is float64-only",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                yield (
                    node.lineno,
                    ".astype(...) in soundness-critical code needs an "
                    "explicit dtype rationale: waive with the reason, or "
                    "construct the array at the right dtype instead",
                )


ALL_RULES = (
    NoBareFloatEquality(),
    DefensiveArrayIngestion(),
    MilpEntryPoints(),
    MonotonicDeadlines(),
    NoSilentBroadExcept(),
    NoImplicitDowncast(),
)
