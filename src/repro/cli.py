"""Command-line interface: certify saved models without writing code.

Usage::

    python -m repro info model.npz
    python -m repro bounds model.npz --delta 0.001
    python -m repro certify model.npz --delta 0.001 --lo 0 --hi 1 \
        --window 2 --refine 8 --bounds symbolic
    python -m repro certify model.npz --delta 0.001 --method exact
    python -m repro attack model.npz --delta 0.01 --samples 20
    python -m repro batch model.npz --delta 0.01 --samples 16 \
        --method exact --workers 4 --epsilon 0.5
    python -m repro certify model.npz --delta 0.001 --epsilon 0.5 --split \
        --max-domains 256 --split-depth 10
    python -m repro batch model.npz --delta 0.01 --samples 16 \
        --method exact --epsilon 0.5 --split

Models are ``.npz`` snapshots written by
:func:`repro.nn.serialize.save_network`.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable

import numpy as np

from repro.bounds import Box, get_propagator
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    ReluplexStyleSolver,
    certify_exact_global,
    pgd_underapproximation,
)
from repro.nn import load_network
from repro.nn.lipschitz import linf_gain_upper_bound

#: Propagator choices exposed on every ``--bounds`` flag.
_BOUNDS_CHOICES = ("ibp", "symbolic")


def _add_domain_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lo", type=float, default=0.0, help="domain lower bound")
    parser.add_argument("--hi", type=float, default=1.0, help="domain upper bound")


def _add_split_args(parser: argparse.ArgumentParser) -> None:
    """The input-splitting tier's flags, shared by certify and batch."""
    parser.add_argument("--split", action="store_true",
                        help="decide the --epsilon query by input-splitting "
                        "branch-and-bound instead of one monolithic MILP")
    parser.add_argument("--max-domains", type=_int_at_least(1), default=None,
                        help="split tier: budget on evaluated subdomains")
    parser.add_argument("--split-depth", type=_int_at_least(0), default=None,
                        help="split tier: bisection depth at which "
                        "subdomains drop to MILP leaves")


def _positive_seconds(text: str) -> float:
    """Argparse type for ``--time-limit``: a strictly positive float.

    ``0`` is rejected explicitly (it is not "no limit" — omit the flag
    for the 30 s default, or pass ``inf`` for an unlimited solve).
    """
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid time limit: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"--time-limit must be > 0 seconds, got {text!r} "
            "(omit the flag for the default, or pass 'inf' for no limit)"
        )
    return value


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """Argparse type for an integer knob with a floor (else a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _radius(text: str) -> float:
    """Argparse type for ``--delta``: a finite float >= 0 (0 is a valid,
    trivial perturbation)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid radius: {text!r}") from exc
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _positive_epsilon(text: str) -> float:
    """Argparse type for ``--epsilon``: a strictly positive float."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid epsilon: {text!r}") from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"--epsilon must be a positive variation target, got {text!r}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global robustness certification of ReLU networks "
        "(ITNE / DATE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a saved model")
    p_info.add_argument("model", help="path to a .npz network snapshot")

    p_bounds = sub.add_parser(
        "bounds",
        help="per-layer interval widths and stable-neuron percentages "
        "under IBP vs symbolic propagation",
    )
    p_bounds.add_argument("model", help="path to a .npz network snapshot")
    _add_domain_args(p_bounds)
    p_bounds.add_argument(
        "--delta", type=_radius, default=None,
        help="optional L-inf perturbation; adds the twin distance-bound "
        "columns used for ITNE/BTNE seeding",
    )

    p_cert = sub.add_parser("certify", help="certify global robustness")
    p_cert.add_argument("model", help="path to a .npz network snapshot")
    p_cert.add_argument("--delta", type=_radius, required=True,
                        help="L-inf input perturbation bound")
    _add_domain_args(p_cert)
    p_cert.add_argument(
        "--method",
        choices=["algorithm1", "exact", "reluplex"],
        default="algorithm1",
        help="algorithm1 = the paper's over-approximation (default); "
        "exact/reluplex = exact baselines (exponential!)",
    )
    p_cert.add_argument("--window", type=_int_at_least(1), default=2,
                        help="ND window W")
    p_cert.add_argument("--refine", type=_int_at_least(0), default=0,
                        help="neurons refined per sub-network")
    p_cert.add_argument("--bounds", choices=_BOUNDS_CHOICES, default=None,
                        help="bound propagator seeding big-M ranges / the "
                        "initial range table (default: ibp; the --split "
                        "tier defaults to symbolic per-subdomain bounds)")
    p_cert.add_argument("--time-limit", type=_positive_seconds, default=None,
                        help="per-MILP time limit in seconds, > 0 "
                        "(default: 30 for algorithm1, unlimited for exact; "
                        "'inf' disables the limit; for --split this is "
                        "the shared deadline of the whole run)")
    p_cert.add_argument("--epsilon", type=_positive_epsilon, default=None,
                        help="target variation bound to decide "
                        "(required by --split)")
    _add_split_args(p_cert)

    p_att = sub.add_parser("attack", help="PGD under-approximation of ε")
    p_att.add_argument("model", help="path to a .npz network snapshot")
    p_att.add_argument("--delta", type=_radius, required=True)
    _add_domain_args(p_att)
    p_att.add_argument("--samples", type=_int_at_least(1), default=20,
                       help="random dataset samples to attack from")
    p_att.add_argument("--steps", type=_int_at_least(0), default=40,
                       help="PGD steps")
    p_att.add_argument("--seed", type=_int_at_least(0), default=0)

    p_batch = sub.add_parser(
        "batch",
        help="certify many samples in parallel (batch engine)",
    )
    p_batch.add_argument("model", help="path to a .npz network snapshot")
    p_batch.add_argument("--delta", type=_radius, required=True,
                         help="L-inf input perturbation bound")
    _add_domain_args(p_batch)
    p_batch.add_argument(
        "--method", choices=["exact", "nd", "lpr"], default="exact",
        help="local certification method per sample (default: exact)",
    )
    p_batch.add_argument("--samples", type=_int_at_least(1), default=8,
                         help="random samples drawn from the domain")
    p_batch.add_argument("--inputs", default=None,
                         help="optional .npy file of samples (rows)")
    p_batch.add_argument("--window", type=_int_at_least(1), default=1,
                         help="ND window (method=nd)")
    p_batch.add_argument("--workers", type=_int_at_least(1), default=None,
                         help="worker processes (default: all cores)")
    p_batch.add_argument("--bounds", choices=_BOUNDS_CHOICES, default=None,
                         help="bound propagator for the solver tier "
                         "(default: ibp for the MILP tier, symbolic for "
                         "--split)")
    p_batch.add_argument("--epsilon", type=_positive_epsilon, default=None,
                         help="target variation bound; enables the "
                         "bounds-only presolve tier (queries decided by "
                         "symbolic bounds / the attack gap skip the MILP)")
    p_batch.add_argument("--no-presolve", action="store_true",
                         help="force the MILP tier even when --epsilon "
                         "is given")
    p_batch.add_argument("--no-bulk-presolve", action="store_true",
                         help="disable the batched presolve prefilter "
                         "(queries fall back to per-query presolve in "
                         "the workers; identical certificates, no bulk "
                         "screening)")
    _add_split_args(p_batch)
    p_batch.add_argument("--time-limit", type=_positive_seconds, default=None,
                         help="per-query time limit in seconds (for --split "
                         "queries: the shared deadline of each run)")
    p_batch.add_argument("--query-timeout", type=_positive_seconds,
                         default=None,
                         help="HARD per-query wall-clock limit: a watchdog "
                         "kills the worker running an overdue query and the "
                         "query resolves to a sound degraded answer "
                         "(multi-worker runs only; --time-limit is the "
                         "cooperative solver budget)")
    p_batch.add_argument("--max-retries", type=_int_at_least(1), default=None,
                         help="attempts per query for transient failures "
                         "(worker deaths, broken pools) before a sound "
                         "degraded answer (default: 3)")
    p_batch.add_argument("--seed", type=_int_at_least(0), default=0)
    return parser


def _cmd_info(args) -> int:
    net = load_network(args.model)
    chain = net.to_affine_layers()
    print(f"model        : {args.model}")
    print(f"input shape  : {net.input_shape} ({net.input_dim} flat)")
    print(f"output dim   : {net.output_dim}")
    print(f"layers       : {len(net.layers)} "
          f"({', '.join(type(l).__name__ for l in net.layers)})")
    print(f"normal form  : {len(chain)} affine stages, "
          f"{net.num_hidden_neurons()} hidden ReLU neurons")
    print(f"parameters   : {net.num_parameters()}")
    print(f"L-inf gain   : <= {linf_gain_upper_bound(net):.4g} "
          f"(product of layer inf-norms)")
    return 0


def _cmd_bounds(args) -> int:
    from repro.utils import format_table

    net = load_network(args.model)
    layers = net.to_affine_layers()
    domain = Box.uniform(net.input_dim, args.lo, args.hi)
    ibp = get_propagator("ibp").propagate(layers, domain, args.delta)
    sym = get_propagator("symbolic").propagate(layers, domain, args.delta)

    def stable_pct(bounds, i):
        if not layers[i].relu:
            return "-"
        return f"{100.0 * np.mean(bounds.stable_mask(i)):.1f}%"

    headers = ["layer", "neurons", "y-width ibp", "y-width sym",
               "stable ibp", "stable sym"]
    if args.delta is not None:
        headers += ["Δy-width ibp", "Δy-width sym"]
    rows = []
    for i, layer in enumerate(layers):
        row = [
            f"{i + 1}{' (relu)' if layer.relu else ''}",
            layer.out_dim,
            f"{np.mean(ibp.y[i].width()):.4g}",
            f"{np.mean(sym.y[i].width()):.4g}",
            stable_pct(ibp, i),
            stable_pct(sym, i),
        ]
        if args.delta is not None:
            row += [
                f"{np.mean(ibp.dy[i].width()):.4g}",
                f"{np.mean(sym.dy[i].width()):.4g}",
            ]
        rows.append(row)
    title = f"bound propagation over [{args.lo:g}, {args.hi:g}]^{net.input_dim}"
    if args.delta is not None:
        title += f", δ={args.delta:g}"
    print(format_table(headers, rows, title=title))

    ratio = sym.mean_pre_activation_width() / max(
        ibp.mean_pre_activation_width(), 1e-300
    )
    print(f"overall stable neurons : ibp {100 * ibp.stable_fraction(layers):.1f}%"
          f" | symbolic {100 * sym.stable_fraction(layers):.1f}%")
    print(f"mean y-width tightness : symbolic/ibp = {ratio:.3f}")
    if args.delta is not None:
        eps_ibp = float(ibp.output_variation_bounds().max())
        eps_sym = float(sym.output_variation_bounds().max())
        print(f"output variation bound : ibp ε̄={eps_ibp:.6g} | "
              f"symbolic ε̄={eps_sym:.6g}")
    return 0


def _cmd_certify(args) -> int:
    from repro.certify import SplitConfig, certify_global_split

    net = load_network(args.model)
    domain = Box.uniform(net.input_dim, args.lo, args.hi)
    if args.split:
        if args.epsilon is None:
            print("error: --split needs an --epsilon target to decide",
                  file=sys.stderr)
            return 2
        knobs: dict[str, Any] = {}
        if args.max_domains is not None:
            knobs["max_domains"] = args.max_domains
        if args.split_depth is not None:
            knobs["max_depth"] = args.split_depth
        config = SplitConfig(
            bounds=args.bounds or "symbolic",
            time_limit=(
                None if args.time_limit in (None, float("inf"))
                else args.time_limit
            ),
            **knobs,
        )
        cert = certify_global_split(net, domain, args.delta, args.epsilon,
                                    config=config)
        print(cert.summary())
        print(f"verdict: {cert.verdict} (epsilon target {args.epsilon:g}; "
              f"{cert.detail['domains']} subdomains, "
              f"{cert.detail['proved_by_bounds']} proved by bounds, "
              f"{cert.detail['milp_leaves']} MILP leaves)")
        for j, eps in enumerate(cert.epsilons):
            print(f"  output {j}: eps = {eps:.6g}")
        return 0
    if args.method == "algorithm1":
        # `is not None`, not truthiness: an explicit small limit (e.g.
        # 0.25) must be honored, and `inf` means "no limit".
        limit = 30.0 if args.time_limit is None else args.time_limit
        config = CertifierConfig(
            window=args.window,
            refine_count=args.refine,
            bounds=args.bounds or "ibp",
            milp_time_limit=None if limit == float("inf") else limit,
        )
        cert = GlobalRobustnessCertifier(net, config).certify(domain, args.delta)
    elif args.method == "exact":
        limit = args.time_limit
        cert = certify_exact_global(
            net, domain, args.delta, bounds=args.bounds or "ibp",
            time_limit=None if limit in (None, float("inf")) else limit,
        )
    else:
        cert = ReluplexStyleSolver(bounds=args.bounds or "ibp").certify(
            net, domain, args.delta
        )
    print(cert.summary())
    for j, eps in enumerate(cert.epsilons):
        print(f"  output {j}: eps = {eps:.6g}")
    return 0


def _cmd_attack(args) -> int:
    net = load_network(args.model)
    rng = np.random.default_rng(args.seed)
    domain = Box.uniform(net.input_dim, args.lo, args.hi)
    dataset = domain.sample(rng, args.samples).reshape(
        args.samples, *net.input_shape
    )
    cert = pgd_underapproximation(
        net, dataset, args.delta, steps=args.steps,
        clip_lo=args.lo, clip_hi=args.hi, seed=args.seed,
    )
    print(cert.summary())
    for j, eps in enumerate(cert.epsilons):
        print(f"  output {j}: eps >= {eps:.6g}")
    return 0


def _cmd_batch(args) -> int:
    from repro.runtime import BatchCertifier, RetryPolicy, local_queries
    from repro.utils import format_table

    net = load_network(args.model)
    domain = Box.uniform(net.input_dim, args.lo, args.hi)
    if args.inputs:
        samples = np.load(args.inputs).reshape(-1, net.input_dim)
    else:
        rng = np.random.default_rng(args.seed)
        samples = domain.sample(rng, args.samples)
    if args.split and args.epsilon is None:
        print("error: --split needs an --epsilon target to decide",
              file=sys.stderr)
        return 2
    if args.split and args.method != "exact":
        print("error: --split applies to --method exact only", file=sys.stderr)
        return 2
    queries = local_queries(
        net, samples, args.delta,
        method=args.method, domain=domain,
        window=args.window, epsilon=args.epsilon, bounds=args.bounds,
        presolve=not args.no_presolve, split=args.split,
        max_domains=args.max_domains, split_depth=args.split_depth,
        time_limit=args.time_limit,
    )
    engine = BatchCertifier(
        max_workers=args.workers,
        bulk_presolve=not args.no_bulk_presolve,
        retry=(
            None if args.max_retries is None
            else RetryPolicy(max_attempts=args.max_retries)
        ),
        query_timeout=args.query_timeout,
    )
    results = engine.run(
        queries,
        progress=lambda done, total, r: print(
            f"[{done}/{total}] {r.tag}: "
            + (f"eps={r.certificate.epsilon:.6g}" if r.ok else "FAILED")
            + f" ({r.elapsed:.2f}s)",
            file=sys.stderr,
        ),
    )
    rows = []
    for r in results:
        if r.ok:
            verdict = r.certificate.detail.get("verdict", "")
            method = r.certificate.method + (f" ({verdict})" if verdict else "")
            rows.append(
                [r.tag, method, f"{r.certificate.epsilon:.6g}", f"{r.elapsed:.2f}s"]
            )
        else:
            rows.append([r.tag, "-", "error", f"{r.elapsed:.2f}s"])
    print(format_table(
        ["query", "method", "eps", "time"], rows,
        title=f"batch local-{args.method} certification, δ={args.delta:g} "
        f"({len(results)} queries)",
    ))
    failures = [r for r in results if not r.ok]
    ok = [r for r in results if r.ok]
    if ok:
        presolved = sum(1 for r in ok if r.certificate.method == "presolve")
        certified = [
            r for r in ok if r.certificate.detail.get("verdict") != "refuted"
        ]
        if certified:
            worst = max(r.certificate.epsilon for r in certified)
            print(f"worst eps over {len(certified)} certified samples: {worst:.6g}")
        if args.epsilon is not None:
            print(f"presolve tier answered {presolved}/{len(ok)} queries "
                  "without a MILP")
            stats = engine.presolve_stats
            if stats["queries"]:
                print(f"bulk presolve screened {stats['queries']} queries in "
                      f"{stats['groups']} batched pass(es), answering "
                      f"{stats['answered']} before dispatch")
        if args.split:
            split_results = [r for r in ok if r.certificate.method == "split"]
            decided = sum(
                1 for r in split_results
                if r.certificate.verdict != "undecided"
            )
            print(f"split tier decided {decided}/{len(split_results)} "
                  "escalated queries")
    faults = engine.fault_stats
    if any(faults.values()):
        degraded = [r for r in results if r.degraded]
        print(f"fault tolerance: {faults['retries']} retried attempt(s), "
              f"{len(degraded)} degraded answer(s), "
              f"{faults['workers_killed']} stuck worker(s) replaced, "
              f"{faults['pool_rebuilds']} pool rebuild(s)")
        for r in degraded:
            print(f"  {r.tag}: degraded ({r.detail.get('reason', '?')}) "
                  "— sound undecided bounds", file=sys.stderr)
    for r in failures:
        print(f"\nquery {r.tag} failed:\n{r.error}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "lo", 0.0) > getattr(args, "hi", 0.0):
        parser.error(f"--lo {args.lo:g} exceeds --hi {args.hi:g}")
    handlers = {
        "info": _cmd_info,
        "bounds": _cmd_bounds,
        "certify": _cmd_certify,
        "attack": _cmd_attack,
        "batch": _cmd_batch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
