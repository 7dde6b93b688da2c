"""The interprocedural flow rules — RPR101..RPR103 and RPR105.

Per-node lint (:mod:`tools.analysis.rules`) catches what a single AST
node can prove; these rules catch what needs a CFG, a dataflow fixpoint
or the project call graph:

* RPR101 — **bound-direction taint**: a value derived from a lower
  bound (``.lo``/``lb``/``lower`` names and attributes) must never be
  passed where a callee expects an upper bound, and vice versa —
  including positionally, resolved through the call graph.  Pure
  carriers (copy/asarray/min/max) keep direction; arithmetic mixes and
  neutralizes it, so widths and midpoints never flag.
* RPR102 — **deadline threading**: a function that *accepts* a
  ``deadline``/``time_limit``/``timeout`` must forward it (or a value
  derived from it) to every solver/session call it makes.  A dropped
  deadline is how "sound under resource limits" silently becomes
  "unbounded solve".
* RPR103 — **resource lifecycle**: solver sessions and process pools
  must be closed on every CFG path (``with``, a post-dominating
  ``close()``, or a close in ``finally``) unless ownership escapes
  (returned / stored on an object / handed to another call).
* RPR105 — **worker purity**: functions submitted to process pools
  must not write module/global state (``global`` writes, mutation of
  module-level containers, ``os.environ``) — such writes vanish with
  the forked worker and make results depend on the execution mode.

All rules see one file at a time through ``check(ctx, project)``, where
:class:`Project` carries every parsed file plus the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from tools.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    _iter_functions,
    module_name_of,
)
from tools.analysis.cfg import CFG, ENTRY, build_cfg
from tools.analysis.dataflow import Env, expr_taint, run_forward, transfer_taint
from tools.analysis.rules import FileContext

Finding = tuple[int, str]


@dataclass
class Project:
    """Everything the interprocedural rules may consult."""

    contexts: list[FileContext]
    graph: CallGraph


# -- shared helpers -----------------------------------------------------------


def direction_of(name: str) -> str | None:
    """``"lo"`` / ``"hi"`` when ``name`` denotes a bound direction."""
    n = name.lower().rstrip("_")
    if n in {"lo", "lower", "lb", "lbs", "lows"} or n.endswith(
        ("_lo", "_lb", "_lower", "_lbs")
    ):
        return "lo"
    if n in {"hi", "upper", "ub", "ubs", "highs"} or n.endswith(
        ("_hi", "_ub", "_upper", "_ubs")
    ):
        return "hi"
    return None


def _direction_attr_taint(attr: str) -> frozenset:
    d = direction_of(attr)
    return frozenset({d}) if d else frozenset()


def evaluated_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """Expression roots evaluated *at* a statement's own CFG node.

    For compound statements only the header is evaluated at the node
    (bodies have their own nodes); simple statements evaluate all their
    expressions.
    """
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # nested definitions are analyzed on their own
    out: list[ast.expr] = []
    for field_value in ast.iter_child_nodes(stmt):
        if isinstance(field_value, ast.expr):
            out.append(field_value)
    return out


def _function_cfgs(
    ctx: FileContext,
) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, CFG]]:
    return [(name, fn, build_cfg(fn)) for name, fn in _iter_functions(ctx.tree)]


def _positional_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = [*fn.args.posonlyargs, *fn.args.args]
    names = [a.arg for a in args]
    if names and names[0] in {"self", "cls"}:
        names = names[1:]
    return names + [a.arg for a in fn.args.kwonlyargs]


def _taint_states(
    cfg: CFG,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    seed: Env,
    attr_taint,
    through_ops: bool,
) -> dict[int, Env]:
    def transfer(stmt: ast.stmt | None, env: Env) -> Env:
        return transfer_taint(stmt, env, attr_taint, through_ops)

    return run_forward(cfg, seed, transfer)


def _calls_at(stmt: ast.stmt) -> Iterator[ast.Call]:
    for root in evaluated_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                yield node


# -- RPR101: bound-direction taint --------------------------------------------


class BoundDirectionTaint:
    """RPR101: lower-bound values must not reach upper-bound sinks."""

    CODE = "RPR101"
    SUMMARY = (
        "values derived from .lo/lower arrays must not flow into .hi/upper "
        "sinks (and vice versa), across call boundaries, in "
        "repro/bounds|encoding|certify"
    )

    _SCOPES = ("repro/bounds/", "repro/encoding/", "repro/certify/")

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if not any(scope in ctx.relpath for scope in self._SCOPES):
            return
        module = module_name_of(ctx.relpath)
        for _name, fn, cfg in _function_cfgs(ctx):
            seed: Env = {}
            for param in _positional_params(fn):
                d = direction_of(param)
                if d:
                    seed[param] = frozenset({d})
            states = _taint_states(
                cfg, fn, seed, _direction_attr_taint, through_ops=False
            )
            for node in cfg.nodes:
                if node.stmt is None or node.index not in states:
                    continue
                env = states[node.index]
                yield from self._check_stmt(node.stmt, env, module, project)

    def _check_stmt(
        self, stmt: ast.stmt, env: Env, module: str, project: Project
    ) -> Iterator[Finding]:
        # Attribute-store sinks: box.hi = <lo-tainted>.
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute):
                    d = direction_of(target.attr)
                    if d:
                        yield from self._sink(
                            stmt.value, env, d, f".{target.attr} store", stmt.lineno
                        )
        for call in _calls_at(stmt):
            # Keyword sinks need no resolution: lo=<hi-tainted>.
            for kw in call.keywords:
                if kw.arg is None:
                    continue
                d = direction_of(kw.arg)
                if d:
                    yield from self._sink(
                        kw.value, env, d, f"keyword {kw.arg}=", call.lineno
                    )
            # Positional sinks via the call graph.
            candidates = project.graph.resolve_call(call, module)
            if not candidates:
                continue
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                dirs = set()
                for cand in candidates:
                    if i < len(cand.params):
                        dirs.add(direction_of(cand.params[i]))
                    else:
                        dirs.add(None)
                if len(dirs) != 1:
                    continue  # ambiguous resolution never flags
                d = dirs.pop()
                if d is None:
                    continue
                label = f"positional arg {i} ({candidates[0].name}:{d})"
                yield from self._sink(arg, env, d, label, call.lineno)

    @staticmethod
    def _sink(
        value: ast.expr, env: Env, sink_dir: str, label: str, line: int
    ) -> Iterator[Finding]:
        taint = expr_taint(value, env, _direction_attr_taint, through_ops=False)
        other = {"lo": "hi", "hi": "lo"}[sink_dir]
        if taint == frozenset({other}):
            yield (
                line,
                f"bound-direction swap: {other}-derived value flows into "
                f"{sink_dir} sink ({label}); lower/upper bounds crossed "
                "between producer and consumer",
            )


# -- RPR102: deadline threading -----------------------------------------------


class DeadlineThreading:
    """RPR102: accepted deadlines must reach every solver call."""

    CODE = "RPR102"
    SUMMARY = (
        "a function accepting deadline/time_limit/timeout must forward it "
        "(or a derived value) to every solve/solve_many/solve_objectives/"
        "_solve_std call it makes"
    )

    _DEADLINE_PARAMS = frozenset({"deadline", "time_limit", "timeout"})
    _SOLVER_NAMES = frozenset(
        {"solve", "solve_many", "solve_objectives", "_solve_std"}
    )
    _LABEL = "deadline"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        module = module_name_of(ctx.relpath)
        for _name, fn, cfg in _function_cfgs(ctx):
            params = [
                p for p in _positional_params(fn) if p in self._DEADLINE_PARAMS
            ]
            if not params:
                continue
            seed: Env = {p: frozenset({self._LABEL}) for p in params}
            states = _taint_states(cfg, fn, seed, None, through_ops=True)
            for node in cfg.nodes:
                if node.stmt is None or node.index not in states:
                    continue
                env = states[node.index]
                for call in _calls_at(node.stmt):
                    yield from self._check_call(
                        call, env, params[0], module, project
                    )

    def _callee_name(self, call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""

    def _is_solver_call(
        self, call: ast.Call, module: str, project: Project
    ) -> tuple[bool, FunctionInfo | None]:
        name = self._callee_name(call)
        if name in self._SOLVER_NAMES:
            resolved = project.graph.resolve_call(call, module)
            return True, resolved[0] if len(resolved) == 1 else None
        # Name calls to project functions that themselves accept a
        # deadline are solver-shaped for threading purposes.
        if isinstance(call.func, ast.Name):
            resolved = project.graph.resolve_call(call, module)
            if len(resolved) == 1 and any(
                p in self._DEADLINE_PARAMS for p in resolved[0].params
            ):
                return True, resolved[0]
        return False, None

    def _check_call(
        self,
        call: ast.Call,
        env: Env,
        param: str,
        module: str,
        project: Project,
    ) -> Iterator[Finding]:
        is_solver, resolved = self._is_solver_call(call, module, project)
        if not is_solver:
            return
        if resolved is not None and not any(
            p in self._DEADLINE_PARAMS for p in resolved.params
        ):
            return  # callee cannot take a deadline: nothing to forward
        for value in [*call.args, *[kw.value for kw in call.keywords]]:
            taint = expr_taint(value, env, None, through_ops=True)
            if self._LABEL in taint:
                return
        name = self._callee_name(call)
        yield (
            call.lineno,
            f"deadline dropped: enclosing function accepts {param!r} but "
            f"calls {name}(...) without forwarding it (or a value derived "
            "from it) — the solve runs unbounded",
        )


# -- RPR103: resource lifecycle -----------------------------------------------


class ResourceLifecycle:
    """RPR103: sessions and pools close on every path or use ``with``."""

    CODE = "RPR103"
    SUMMARY = (
        "SolverSession/process pools must be used via "
        "`with`, or closed on every CFG path (close()/shutdown(), or a "
        "close in finally); escaping ownership (return/store/pass) is exempt"
    )

    _RESOURCE_CALLS = frozenset(
        {
            "open_session",
            "SolverSession",
            "ProcessPoolExecutor",
            "ThreadPoolExecutor",
            "Pool",
        }
    )
    _CLOSERS = frozenset({"close", "shutdown", "terminate", "join", "__exit__"})

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        for _name, fn, cfg in _function_cfgs(ctx):
            yield from self._check_function(fn, cfg)

    def _creation_name(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        return name if name in self._RESOURCE_CALLS else None

    def _check_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, cfg: CFG
    ) -> Iterator[Finding]:
        creations: list[tuple[int, str, int, str]] = []  # (node, var, line, what)
        for node in cfg.nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                what = self._creation_name(stmt.value)
                if what:
                    creations.append(
                        (node.index, stmt.targets[0].id, stmt.lineno, what)
                    )
        if not creations:
            return
        finally_nodes = cfg.finally_nodes()
        for created_at, var, line, what in creations:
            if self._escapes(fn, var):
                continue
            closers = self._close_nodes(fn, cfg, var)
            if any(n in finally_nodes for n in closers):
                continue  # a close in finally covers early returns too
            if not closers:
                yield (
                    line,
                    f"resource leak: {what}(...) result {var!r} is never "
                    "closed — use `with`, or close()/shutdown() on every "
                    "path (finally)",
                )
                continue
            if cfg.reaches_exit_avoiding(created_at, closers):
                yield (
                    line,
                    f"resource leak on some path: {what}(...) result "
                    f"{var!r} has a path to function exit that skips its "
                    "close()/shutdown() — move the close into a finally "
                    "block or use `with`",
                )

    def _close_nodes(self, fn: ast.AST, cfg: CFG, var: str) -> set[int]:
        closers: set[int] = set()
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            # `with var:` (or `with closing(var):`) closes it.
            if isinstance(node.stmt, (ast.With, ast.AsyncWith)):
                for item in node.stmt.items:
                    if any(
                        isinstance(sub, ast.Name) and sub.id == var
                        for sub in ast.walk(item.context_expr)
                    ):
                        closers.add(node.index)
            for call in _calls_at(node.stmt):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._CLOSERS
                    and isinstance(func.value, ast.Name)
                    and func.value.id == var
                ):
                    closers.add(node.index)
        return closers

    @staticmethod
    def _escapes(fn: ast.AST, var: str) -> bool:
        """Ownership transfer: returned, yielded, stored, or passed on."""

        def mentions_outside_receivers(node: ast.AST) -> bool:
            # `session.solve(...)` uses the session as a *receiver*; its
            # result, not the session, is what flows onward.  Only
            # non-receiver mentions (`return session`, `register(session)`,
            # `self.s = session`) transfer ownership.
            receiver_names: set[int] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    for inner in ast.walk(sub.func):
                        if isinstance(inner, ast.Name):
                            receiver_names.add(id(inner))
            return any(
                isinstance(sub, ast.Name)
                and sub.id == var
                and id(sub) not in receiver_names
                for sub in ast.walk(node)
            )

        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if mentions_outside_receivers(node.value):
                    return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None and mentions_outside_receivers(
                    node.value
                ):
                    return True
            elif isinstance(node, ast.Assign):
                stores = any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                )
                if stores and mentions_outside_receivers(node.value):
                    return True
            elif isinstance(node, ast.Call):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    if mentions_outside_receivers(arg):
                        return True
        return False


# -- RPR105: worker purity ----------------------------------------------------


class WorkerPurity:
    """RPR105: pool-submitted functions must not write shared module state."""

    CODE = "RPR105"
    SUMMARY = (
        "functions submitted to process pools (.submit/.map) must not write "
        "module/global state — such writes die with the forked worker"
    )

    _SUBMITTERS = frozenset({"submit", "map"})
    _MUTATORS = frozenset(
        {
            "append",
            "extend",
            "add",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "clear",
            "insert",
            "remove",
            "write",
            "seed",
        }
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        module = module_name_of(ctx.relpath)
        for _name, fn in _iter_functions(ctx.tree):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    not isinstance(func, ast.Attribute)
                    or func.attr not in self._SUBMITTERS
                    or not node.args
                ):
                    continue
                worker = self._resolve_worker(node.args[0], module, project)
                if worker is None:
                    continue
                impure = self._impurity(worker, project, set())
                if impure is not None:
                    where, why = impure
                    yield (
                        node.lineno,
                        f"impure pool worker: {worker.name!r} (or a callee) "
                        f"writes shared module state at {where} ({why}); "
                        "worker processes must stay pure — results would "
                        "silently differ between serial and pooled runs",
                    )

    def _resolve_worker(
        self, arg: ast.expr, module: str, project: Project
    ) -> FunctionInfo | None:
        if isinstance(arg, ast.Name):
            return project.graph.resolve_name(module, arg.id)
        if isinstance(arg, ast.Attribute):
            candidates = project.graph.by_name.get(arg.attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _impurity(
        self, info: FunctionInfo, project: Project, seen: set[str]
    ) -> tuple[str, str] | None:
        """First module-state write in ``info`` or its project callees."""
        if info.qualname in seen or info.is_ctor:
            return None
        seen.add(info.qualname)
        fn = info.node
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        mod = project.graph.modules.get(info.module)
        module_names = set()
        if mod is not None:
            module_names = set(mod.toplevel) | set(mod.imports)
        local_names = set(_positional_params(fn))
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Store
                        ):
                            local_names.add(sub.id)
        global_decls: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
        shared = module_names - (local_names - global_decls)

        def base_name(target: ast.expr) -> str | None:
            while isinstance(target, (ast.Attribute, ast.Subscript)):
                target = target.value
            return target.id if isinstance(target, ast.Name) else None

        for node in ast.walk(fn):
            line = f"{info.relpath}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in global_decls:
                        return line, f"writes global {target.id!r}"
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        base = base_name(target)
                        if base is not None and base in shared:
                            return line, f"mutates module-level {base!r}"
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATORS
                ):
                    base = base_name(func)
                    if base is not None and base in shared:
                        return line, f"mutates module-level {base!r}"
        # Transitive: confidently resolved Name-call callees.
        for callee in sorted(project.graph.callees(info.qualname)):
            target = project.graph.functions.get(callee)
            if target is None:
                continue
            found = self._impurity(target, project, seen)
            if found is not None:
                return found
        return None


ALL_FLOW_RULES = (
    BoundDirectionTaint(),
    DeadlineThreading(),
    ResourceLifecycle(),
    WorkerPurity(),
)
