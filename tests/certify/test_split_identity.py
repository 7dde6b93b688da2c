"""Split tier identity: verdicts, ε and leaf tilings pinned to fixed values.

Each run below is pinned to what the tier produced before its waves
were attacked in one batched call and its bounds rows were sliced out
lazily.  That change only moves *when* numbers are computed, never what
they are (batched rows are bit-identical to scalar ones), so every
verdict, ε, count and leaf box must stay equal to the bit.  Leaf boxes
are pinned by count and by a SHA-256 prefix of their ``lo``/``hi``
bytes in recording order.  The same pins hold when the runs of one
network are driven together in lockstep, whatever rows share a batch.
"""

import hashlib

import numpy as np
import pytest

import repro.certify.splitting as splitting
from repro.bounds import Box, SymbolicPropagator
from repro.certify import SplitConfig, certify_global_split, certify_local_split
from repro.nn.affine import AffineLayer

DOMAIN = Box.uniform(3, 0.0, 1.0)
MID = [0.5, 0.5, 0.5]
OFF = [0.2, 0.7, 0.4]


def chain(seed: int, width: int) -> list[AffineLayer]:
    """A seeded 3-w-w-2 ReLU chain."""
    rng = np.random.default_rng(seed)
    dims = [3, width, width, 2]
    return [
        AffineLayer(
            1.5 * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < 2,
        )
        for i in range(3)
    ]


def digest(boxes) -> str:
    h = hashlib.sha256()
    for lo, hi in boxes:
        h.update(np.ascontiguousarray(lo, dtype=float).tobytes())
        h.update(np.ascontiguousarray(hi, dtype=float).tobytes())
    return h.hexdigest()[:16]


def run(kind, seed, width, center, epsilon, max_domains, samples, frontier_batch):
    config = SplitConfig(
        max_domains=max_domains, attack_samples=samples,
        frontier_batch=frontier_batch, record_boxes=True,
    )
    if kind == "local":
        return certify_local_split(
            chain(seed, width), np.array(center), 0.2, epsilon, domain=DOMAIN,
            config=config,
        )
    return certify_global_split(
        chain(seed, width), DOMAIN, 0.1, epsilon, config=config
    )


# (kind, net seed, net width, center, ε target, max_domains, attack_samples,
#  frontier_batch) -> (verdict, epsilons, domains, bisections,
#  proved_by_bounds, milp_leaves, leaf box count, leaf box digest,
#  local output_lo, local output_hi)
CASES = [
    (("local", 4, 8, MID, 0.3649331193801771, 16, 1, 1),
     ("certified", [0.3643955085419544, 0.1720535503688205], 17, 8, 5, 4, 9,
      "6cc2d35445bb64a0", [-0.3737121401806028, -0.061483620229489805],
      [0.4324172149468971, 0.23486479847597738])),
    (("local", 4, 8, MID, 0.3649331193801771, 16, 1, 8),
     ("certified", [0.3643955085419544, 0.1720535503688205], 17, 8, 5, 4, 9,
      "c5f50a5ae7d04bad", [-0.3737121401806028, -0.06093057749809505],
      [0.44418495327507895, 0.23486479847597738])),
    (("local", 4, 8, MID, 0.3649331193801771, 128, 1, 1),
     ("certified", [0.3643955085419544, 0.1720535503688205], 41, 20, 21, 0, 21,
      "20d97cc821ff3bef", [-0.3737121401806028, -0.04924976679142129],
      [0.32187985584998147, 0.23486479847597738])),
    (("local", 4, 8, MID, 0.3649331193801771, 128, 1, 8),
     ("certified", [0.3643955085419544, 0.1720535503688205], 41, 20, 21, 0, 21,
      "49573d31646cb976", [-0.3737121401806028, -0.04924976679142129],
      [0.32187985584998147, 0.23486479847597738])),
    (("local", 3, 8, MID, 0.9948538885968534, 64, 3, 1),
     ("certified", [0.645869999445828, 0.9753469496047579], 15, 7, 8, 0, 8,
      "67f600016ce6c475", [0.004783211521312392, -0.7109697560971809],
      [0.9732095482433203, 0.5310373063738051])),
    (("local", 3, 8, MID, 0.9948538885968534, 64, 3, 8),
     ("certified", [0.645869999445828, 0.9753469496047579], 15, 7, 8, 0, 8,
      "67f600016ce6c475", [0.004783211521312392, -0.7109697560971809],
      [0.9732095482433203, 0.5310373063738051])),
    (("local", 3, 8, OFF, 0.43170793247923195, 64, 0, 1),
     ("refuted", [0.12079215764502066, 0.43211138446041686], 65, 32, 19, 6, 26,
      "ecf02847a4d4f0a0", [-0.4918964772189381, -0.9534902600688455],
      [0.36196955009060305, 0.18943720533921687])),
    (("local", 3, 8, OFF, 0.43170793247923195, 64, 0, 8),
     ("refuted", [0.12079215764502066, 0.43211138446041686], 7, 5, 1, 0, 3,
      "a4d08883b427c3f0", [-0.4918964772189381, -0.9534902600688455],
      [0.36196955009060305, 0.18943720533921687])),
    (("local", 7, 8, OFF, 0.04377483724485099, 64, 0, 1),
     ("refuted", [0.043779215166367624, 0.0292981887133697], 65, 32, 28, 5, 29,
      "4590c374aea02222", [0.10938814808791947, -0.08407542570630162],
      [0.20205219510897726, 0.02359885122207614])),
    (("local", 7, 8, OFF, 0.04377483724485099, 64, 0, 8),
     ("refuted", [0.043779215166367624, 0.0292981887133697], 65, 32, 31, 2, 32,
      "4b28cbbe4d64f069", [0.10938814808791947, -0.08407542570630162],
      [0.20205219510897726, 0.02359885122207614])),
    (("global", 3, 5, None, 1.0440581240587599, 64, 1, 1),
     ("certified", [0.5269381653402614, 1.0245199173176658], 39, 19, 20, 0, 20,
      "95abce67bde5d6a5", None, None)),
    (("global", 3, 5, None, 1.0440581240587599, 64, 1, 8),
     ("certified", [0.5269381653402614, 1.0245199173176658], 39, 19, 20, 0, 20,
      "7c266ce81bc3bc90", None, None)),
    (("global", 1, 5, None, 0.3963304032340008, 64, 1, 1),
     ("certified", [0.39513479686229314, 0.34704859456289716], 37, 18, 17, 2,
      19, "96232503a0f3ebaa", None, None)),
    (("global", 1, 5, None, 0.3963304032340008, 64, 1, 8),
     ("certified", [0.39513479686229314, 0.34704859456289716], 37, 18, 17, 2,
      19, "8d37e896e8b3e43c", None, None)),
    (("global", 1, 5, None, 0.14808897912415894, 32, 1, 1),
     ("refuted", [0.15266905064345979, 0.06230092254198488], 5, 2, 0, 0, 2,
      "ca61c6e6600404bf", None, None)),
    (("global", 1, 5, None, 0.14808897912415894, 32, 1, 8),
     ("refuted", [0.15266905064345979, 0.06230092254198488], 7, 3, 0, 0, 3,
      "575c73434b3da000", None, None)),
]


def test_split_leaves_print_nothing(capfd):
    """scipy's HiGHS MILP printed a stray debug line on this case's leaves."""
    for frontier_batch in (1, 8):
        run("local", 7, 8, OFF, 0.04377483724485099, 64, 0, frontier_batch)
    assert "transformNewIntegerFeasibleSolution" not in capfd.readouterr().out


@pytest.mark.parametrize(
    "case,expected", CASES,
    ids=[f"{c[0]}{c[1]}-{c[5]}dom-{c[6]}att-fb{c[7]}" for c, _ in CASES],
)
def test_split_run_is_pinned(case, expected):
    verdict, eps, domains, bisections, by_bounds, leaves, n_boxes, box_digest, \
        out_lo, out_hi = expected
    cert = run(*case)
    detail = cert.detail
    assert cert.verdict == verdict
    np.testing.assert_array_equal(cert.epsilons, eps)
    assert (
        detail["domains"], detail["bisections"], detail["proved_by_bounds"],
        detail["milp_leaves"],
    ) == (domains, bisections, by_bounds, leaves)
    assert len(detail["leaf_boxes"]) == n_boxes
    assert digest(detail["leaf_boxes"]) == box_digest
    if out_lo is not None:
        np.testing.assert_array_equal(cert.output_lo, out_lo)
        np.testing.assert_array_equal(cert.output_hi, out_hi)


@pytest.mark.parametrize("kind", ["local", "global"])
def test_pooled_leaf_bounds_equal_scalar_propagation(kind, monkeypatch):
    """A leaf's bounds, sliced from a frontier wave's batched record,
    equal the scalar ``propagate`` on its box bit for bit."""
    seen = []
    payloads = splitting._leaf_payloads

    def spy(kind_, layers, leaves, *rest):
        seen.extend(leaves)
        return payloads(kind_, layers, leaves, *rest)

    monkeypatch.setattr(splitting, "_leaf_payloads", spy)
    case = (
        ("local", 4, 8, MID, 0.3649331193801771, 16, 1, 8) if kind == "local"
        else ("global", 1, 5, None, 0.3963304032340008, 64, 1, 8)
    )
    run(*case)
    assert len(seen) > 1
    layers = chain(*case[1:3])
    engine = SymbolicPropagator()
    for leaf in seen:
        assert leaf.depth > 0  # bounded in a wave, not at the root
        scalar = (
            engine.propagate(layers, leaf.box) if kind == "local"
            else engine.propagate(layers, leaf.box, 0.1)
        )
        pairs = [(leaf.bounds.input_box, scalar.input_box)]
        pairs += list(zip(leaf.bounds.y, scalar.y)) + list(zip(leaf.bounds.x, scalar.x))
        if kind == "global":
            pairs.append((leaf.bounds.delta_box, scalar.delta_box))
            pairs += list(zip(leaf.bounds.dy, scalar.dy))
            pairs += list(zip(leaf.bounds.dx, scalar.dx))
        for pooled, alone in pairs:
            np.testing.assert_array_equal(pooled.lo, alone.lo)
            np.testing.assert_array_equal(pooled.hi, alone.hi)


def _pinned_groups():
    """The pinned cases grouped by network: (kind, seed, width) -> cases."""
    groups: dict = {}
    for case, expected in CASES:
        groups.setdefault(case[:3], []).append((case, expected))
    return groups


@pytest.mark.parametrize(
    "group", list(_pinned_groups()), ids=lambda g: f"{g[0]}{g[1]}-w{g[2]}"
)
def test_lockstep_group_reproduces_pinned_runs(group):
    """Every pinned run of one network, driven together in lockstep
    (each with its own config), reproduces its solo pinned values."""
    kind, seed, width = group
    members = _pinned_groups()[group]
    assert len(members) >= 2
    layers = chain(seed, width)
    runs = []
    for (_, _, _, center, epsilon, max_domains, samples, frontier_batch), _ in members:
        config = SplitConfig(
            max_domains=max_domains, attack_samples=samples,
            frontier_batch=frontier_batch, record_boxes=True,
        )
        runs.append(
            splitting._local_run(layers, np.array(center), 0.2, epsilon, DOMAIN, config)
            if kind == "local"
            else splitting._global_run(layers, DOMAIN, 0.1, epsilon, config)
        )
    results = splitting._run_lockstep(runs, leaf_workers=2)
    for run_, result, (_, expected) in zip(runs, results, members):
        verdict, eps, domains, bisections, by_bounds, leaves, n_boxes, box_digest, \
            out_lo, out_hi = expected
        cert = run_.certificate(result)
        detail = cert.detail
        assert cert.verdict == verdict
        np.testing.assert_array_equal(cert.epsilons, eps)
        assert (
            detail["domains"], detail["bisections"], detail["proved_by_bounds"],
            detail["milp_leaves"],
        ) == (domains, bisections, by_bounds, leaves)
        assert len(detail["leaf_boxes"]) == n_boxes
        assert digest(detail["leaf_boxes"]) == box_digest
        if out_lo is not None:
            np.testing.assert_array_equal(cert.output_lo, out_lo)
            np.testing.assert_array_equal(cert.output_hi, out_hi)
        assert cert.solve_time >= 0.0


def _local_runs(centers, epsilons, config):
    layers = chain(3, 8)
    return [
        splitting._local_run(layers, np.array(c), 0.2, eps, DOMAIN, config)
        for c, eps in zip(centers, epsilons)
    ]


def test_lockstep_sanitizer_catches_shifted_bound_rows(monkeypatch):
    """``split-lockstep`` fails a lockstep whose bound rows are shifted
    by one between runs: every run then splits on its neighbour's bounds."""
    from repro._sanitize import SanitizerError, sanitizing

    real = splitting._answer_bounds

    def shifted(runs, requests):
        if len(requests) < 2:  # a run alone (the re-run) is left intact
            return real(runs, requests)
        boxes = [box for request in requests for box in request.boxes]
        boxes = boxes[1:] + boxes[:1]
        moved, start = [], 0
        for request in requests:
            moved.append(splitting._BoundWave(boxes[start : start + request.rows]))
            start += request.rows
        return real(runs, moved)

    centers = [MID, OFF, [0.6, 0.3, 0.5]]
    epsilons = [0.99, 0.43, 0.6]
    config = SplitConfig(max_domains=64)
    with sanitizing():
        # Unmutated, the contract holds.
        splitting._run_lockstep(_local_runs(centers, epsilons, config))
        monkeypatch.setattr(splitting, "_answer_bounds", shifted)
        with pytest.raises(SanitizerError, match="split-lockstep"):
            splitting._run_lockstep(_local_runs(centers, epsilons, config))


def test_lockstep_rejects_a_time_limit():
    """A lockstep round has no per-query wall clock to stop."""
    runs = _local_runs([MID, OFF], [0.5, 0.5], SplitConfig(time_limit=5.0))
    with pytest.raises(ValueError, match="time limit"):
        splitting._run_lockstep(runs)


def test_lockstep_rejects_global_runs_of_different_deltas():
    """A round's one global propagation takes one δ."""
    runs = [
        splitting._global_run(chain(3, 8), DOMAIN, delta, 0.5, SplitConfig())
        for delta in (0.1, 0.2)
    ]
    with pytest.raises(ValueError, match="share"):
        splitting._run_lockstep(runs)
