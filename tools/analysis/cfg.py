"""Per-function control-flow graphs for the flow-analysis tier.

:func:`build_cfg` turns one ``ast.FunctionDef`` into a statement-level
CFG: every *simple* statement is one node, and compound statements
(``if``/``while``/``for``/``try``/``with``/``match``) contribute one
node for their header (the test / iterator / context evaluation) plus
the nodes of their nested bodies, wired with the obvious edges.  Two
synthetic nodes bracket the graph: ``ENTRY`` (index 0, no statement)
and ``EXIT`` (index 1) — ``return`` and ``raise`` jump straight to
``EXIT``, loop back-edges go to the loop header, ``break`` to the
loop's after-fringe.

``try`` is approximated conservatively for the lifecycle/dominance
rules built on top: every node of the ``try`` body gets an edge to each
handler entry (an exception may occur at any point), and ``finally``
post-dominates body, handlers and ``else``.  One known simplification:
``return`` inside ``try``/``finally`` jumps to ``EXIT`` without routing
through the ``finally`` nodes — rules that need "close() on every
path" therefore also accept a close *anywhere* in an enclosing
``finally`` block (see :meth:`CFG.finally_nodes`).

The graph exposes the two queries the rules need:

* :meth:`CFG.dominators` — classic iterative dominator sets, for
  "is this statement dominated by that one";
* :meth:`CFG.reaches_exit_avoiding` — "is there a path from the
  creation site to EXIT that never passes a ``close()``" (RPR103).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGNode", "build_cfg"]

ENTRY = 0
EXIT = 1


@dataclass
class CFGNode:
    """One CFG node: a simple statement or a compound-statement header.

    Attributes:
        index: Position in :attr:`CFG.nodes` (0 = ENTRY, 1 = EXIT).
        stmt: The AST statement this node evaluates (``None`` for the
            synthetic ENTRY/EXIT nodes).  For compound statements only
            the header expression (test / iter / context managers) is
            considered evaluated *at* this node.
        succs: Indices of successor nodes.
        preds: Indices of predecessor nodes.
    """

    index: int
    stmt: ast.stmt | None
    succs: set[int] = field(default_factory=set)
    preds: set[int] = field(default_factory=set)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.nodes: list[CFGNode] = [CFGNode(ENTRY, None), CFGNode(EXIT, None)]
        #: ``id(stmt) -> node index`` for every statement that got a node.
        self.node_of_stmt: dict[int, int] = {}
        #: Node indices that live inside a ``finally`` block.
        self._finally_nodes: set[int] = set()

    # -- construction helpers (used by build_cfg only) -------------------

    def _new_node(self, stmt: ast.stmt) -> int:
        node = CFGNode(len(self.nodes), stmt)
        self.nodes.append(node)
        self.node_of_stmt[id(stmt)] = node.index
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.add(dst)
        self.nodes[dst].preds.add(src)

    # -- queries ----------------------------------------------------------

    def node_for(self, stmt: ast.stmt) -> int | None:
        """The node index of ``stmt``, or ``None`` if it has no node."""
        return self.node_of_stmt.get(id(stmt))

    def finally_nodes(self) -> set[int]:
        """Indices of nodes nested inside any ``finally`` block."""
        return set(self._finally_nodes)

    def dominators(self) -> dict[int, set[int]]:
        """Dominator sets: ``doms[n]`` = every node on *all* ENTRY→n paths.

        Iterative set-intersection algorithm; fine at per-function CFG
        sizes.  Unreachable nodes dominate themselves only.
        """
        all_nodes = set(range(len(self.nodes)))
        doms: dict[int, set[int]] = {n: set(all_nodes) for n in all_nodes}
        doms[ENTRY] = {ENTRY}
        changed = True
        while changed:
            changed = False
            for n in all_nodes - {ENTRY}:
                preds = self.nodes[n].preds
                if preds:
                    new = set.intersection(*(doms[p] for p in preds)) | {n}
                else:
                    new = {n}
                if new != doms[n]:
                    doms[n] = new
                    changed = True
        return doms

    def reaches_exit_avoiding(self, start: int, avoid: set[int]) -> bool:
        """Whether EXIT is reachable from ``start`` without entering ``avoid``.

        The RPR103 query: with ``avoid`` = the close()-call nodes, a
        ``True`` answer means some execution path leaks the resource.
        ``start`` itself is not considered avoided.
        """
        if EXIT == start:
            return True
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self.nodes[node].succs:
                if succ in avoid or succ in seen:
                    continue
                if succ == EXIT:
                    return True
                seen.add(succ)
                stack.append(succ)
        return False


class _Builder:
    """Recursive statement-list walker producing the CFG."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        # Stack of (loop_header, break_sinks) for break/continue wiring.
        self.loops: list[tuple[int, list[int]]] = []
        self.in_finally = 0

    def build(self, body: list[ast.stmt]) -> None:
        fringe = self.stmt_list(body, [ENTRY])
        for node in fringe:
            self.cfg._edge(node, EXIT)

    def stmt_list(self, body: list[ast.stmt], fringe: list[int]) -> list[int]:
        """Wire ``body`` after ``fringe``; returns the new fall-through fringe."""
        for stmt in body:
            fringe = self.stmt(stmt, fringe)
        return fringe

    def _node(self, stmt: ast.stmt, fringe: list[int]) -> int:
        index = self.cfg._new_node(stmt)
        for prev in fringe:
            self.cfg._edge(prev, index)
        if self.in_finally:
            self.cfg._finally_nodes.add(index)
        return index

    def stmt(self, stmt: ast.stmt, fringe: list[int]) -> list[int]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._node(stmt, fringe)
            self.cfg._edge(node, EXIT)
            return []
        if isinstance(stmt, ast.Break):
            node = self._node(stmt, fringe)
            if self.loops:
                self.loops[-1][1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._node(stmt, fringe)
            if self.loops:
                self.cfg._edge(node, self.loops[-1][0])
            return []
        if isinstance(stmt, ast.If):
            header = self._node(stmt, fringe)
            then_end = self.stmt_list(stmt.body, [header])
            if stmt.orelse:
                else_end = self.stmt_list(stmt.orelse, [header])
                return then_end + else_end
            return then_end + [header]
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = self._node(stmt, fringe)
            breaks: list[int] = []
            self.loops.append((header, breaks))
            body_end = self.stmt_list(stmt.body, [header])
            self.loops.pop()
            for node in body_end:
                self.cfg._edge(node, header)  # back edge
            after = [header] + breaks
            if stmt.orelse:
                after = self.stmt_list(stmt.orelse, [header]) + breaks
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self._node(stmt, fringe)
            return self.stmt_list(stmt.body, [header])
        if isinstance(stmt, ast.Try):
            return self._try(stmt, fringe)
        if isinstance(stmt, ast.Match):
            header = self._node(stmt, fringe)
            out: list[int] = [header]  # all guards may fail
            for case in stmt.cases:
                out.extend(self.stmt_list(case.body, [header]))
            return out
        # Simple statement (including nested def/class, which are
        # definitions, not control flow).
        return [self._node(stmt, fringe)]

    def _try(self, stmt: ast.Try, fringe: list[int]) -> list[int]:
        first_body_node = len(self.cfg.nodes)
        body_end = self.stmt_list(stmt.body, fringe)
        body_nodes = list(range(first_body_node, len(self.cfg.nodes)))

        handler_ends: list[int] = []
        handler_entries: list[int] = []
        for handler in stmt.handlers:
            entry = len(self.cfg.nodes)
            # An exception may fire at any body node (or before the
            # first one executes, hence also from the incoming fringe).
            sources = body_nodes or fringe
            ends = self.stmt_list(handler.body or [], list(sources))
            if len(self.cfg.nodes) > entry:
                handler_entries.append(entry)
            handler_ends.extend(ends)

        else_end = self.stmt_list(stmt.orelse, body_end) if stmt.orelse else body_end
        normal_ends = else_end + handler_ends

        if stmt.finalbody:
            self.in_finally += 1
            final_end = self.stmt_list(stmt.finalbody, normal_ends)
            self.in_finally -= 1
            return final_end
        return normal_ends


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the statement-level CFG of ``func``'s body."""
    cfg = CFG(func)
    _Builder(cfg).build(func.body)
    return cfg
