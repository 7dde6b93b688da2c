"""Exact case-splitting global robustness solver (Reluplex stand-in).

Reluplex/Marabou decide ReLU-network queries by lazily case-splitting on
ReLU phases, solving an LP at each node.  This module implements that
strategy for the global-robustness optimization problem: the twin
network is encoded with all ReLUs relaxed (triangle), and a depth-first
search branches on the most violated ReLU — fixing it *active*
(``x = y, y ≥ 0``) or *inactive* (``x = 0, y ≤ 0``) — until the LP
optimum satisfies every ReLU, i.e. is a true network evaluation.

The result is exact, and the search exhibits the exponential growth in
unstable neurons that Table I's ``t_R`` column demonstrates.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.symbolic import SymbolicPropagator
from repro.certify.results import GlobalCertificate
from repro.encoding.btne import encode_btne
from repro.milp.expr import LinExpr, Var
from repro.nn.affine import AffineLayer
from repro.nn.network import Network, as_affine_chain


class _ReluRecord:
    """One ReLU of the twin encoding: pre/post handles and bounds."""

    __slots__ = ("y_expr", "x_var", "lb", "ub")

    def __init__(self, y_expr: Var | LinExpr, x_var, lb: float, ub: float) -> None:
        self.y_expr = y_expr
        self.x_var = x_var
        self.lb = lb
        self.ub = ub

    @property
    def unstable(self) -> bool:
        return self.lb < 0.0 < self.ub


class ReluplexStyleSolver:
    """Case-splitting exact solver for Problem 1.

    Args:
        max_nodes: Safety cap on explored nodes (raises when exceeded so
            timing comparisons stay honest).
        tol: ReLU satisfaction tolerance.

    The symbolic bounds seed the relaxations and the stable/unstable
    split.
    """

    def __init__(
        self,
        max_nodes: int = 2_000_000,
        tol: float = 1e-6,
    ) -> None:
        self.max_nodes = max_nodes
        self.tol = tol
        self.nodes_explored = 0

    # -- public API --------------------------------------------------------

    def certify(
        self,
        network: Network | list[AffineLayer],
        input_box: Box,
        delta: float,
        outputs: list[int] | None = None,
    ) -> GlobalCertificate:
        """Exact global robustness by case splitting.

        Returns:
            A :class:`GlobalCertificate` with ``exact=True``.
        """
        layers = as_affine_chain(network)
        t0 = time.perf_counter()
        out_dim = layers[-1].out_dim
        targets = list(range(out_dim)) if outputs is None else list(outputs)
        epsilons = np.zeros(out_dim)
        self.nodes_explored = 0

        # One propagation serves every (output, sense) sub-search: it
        # seeds both copies' encodings and the stable/unstable split.
        pre_acts = SymbolicPropagator().propagate(layers, input_box).y

        for j in targets:
            hi = self._optimize(layers, input_box, delta, j, "max", pre_acts)
            lo = self._optimize(layers, input_box, delta, j, "min", pre_acts)
            epsilons[j] = max(abs(hi), abs(lo))

        return GlobalCertificate(
            delta=float(delta),
            epsilons=epsilons,
            method="reluplex-style",
            exact=True,
            solve_time=time.perf_counter() - t0,
            lp_count=self.nodes_explored,
            detail={"nodes": self.nodes_explored},
        )

    # -- internals -----------------------------------------------------------

    def _optimize(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float,
        output_index: int,
        sense: str,
        pre_acts: list[Box],
    ) -> float:
        """Exact max/min of one output distance by DFS case splitting."""
        relax = [np.ones(l.out_dim, dtype=bool) for l in layers]
        enc = encode_btne(
            layers, input_box, delta, relax_mask=relax, pre_act_bounds=pre_acts
        )
        model = enc.model
        objective = enc.output_distance[output_index]
        relus = self._collect_relus(enc, layers, pre_acts)

        sign = 1.0 if sense == "max" else -1.0
        best = -np.inf  # best signed objective found (a true evaluation)

        def dfs() -> None:
            nonlocal best
            self.nodes_explored += 1
            if self.nodes_explored > self.max_nodes:
                raise RuntimeError("ReluplexStyleSolver: node budget exceeded")
            model.set_objective(objective * sign, sense="max")
            result = model.solve()
            if not result.is_optimal:
                return  # infeasible phase combination
            if result.objective <= best + self.tol:
                return  # cannot beat the incumbent
            violated = self._most_violated(relus, result)
            if violated is None:
                best = max(best, result.objective)
                return
            record = relus[violated]
            base_len = len(model.constraints)
            # Active phase: x = y (and y >= 0).
            model.add_constr(record.x_var == record.y_expr)
            model.add_constr(record.y_expr >= 0.0)
            dfs()
            del model.constraints[base_len:]
            # Inactive phase: x = 0 (and y <= 0).
            model.add_constr(record.x_var == 0.0)
            model.add_constr(record.y_expr <= 0.0)
            dfs()
            del model.constraints[base_len:]

        dfs()
        if not np.isfinite(best):
            raise RuntimeError("case-splitting search found no feasible evaluation")
        return sign * best

    def _most_violated(self, relus: list[_ReluRecord], result):
        """Index of the ReLU farthest from exact satisfaction, or None."""
        worst_idx = None
        worst_gap = self.tol
        for idx, rec in enumerate(relus):
            if not rec.unstable:
                continue
            y_val = result[rec.y_expr]
            x_val = result[rec.x_var]
            gap = abs(x_val - max(y_val, 0.0))
            if gap > worst_gap:
                worst_gap = gap
                worst_idx = idx
        return worst_idx

    @staticmethod
    def _collect_relus(enc, layers, pre_acts: list[Box]) -> list[_ReluRecord]:
        """Gather (y, x, bounds) records of both copies' ReLU neurons."""
        records: list[_ReluRecord] = []
        for copy in (enc.first, enc.second):
            for i, layer in enumerate(layers):
                if not layer.relu:
                    continue
                for j in range(layer.out_dim):
                    lb, ub = pre_acts[i].scalar(j)
                    x_handle = copy.x[i][j]
                    if not isinstance(x_handle, Var):
                        continue  # stably-inactive neurons encode as constants
                    records.append(
                        _ReluRecord(copy.y[i][j], x_handle, lb, ub)
                    )
        return records
