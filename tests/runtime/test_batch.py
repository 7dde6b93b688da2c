"""Batch certification engine: ordering, parity, failures, fan-out."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.bounds import Box
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    certify_local_exact,
    certify_local_lpr,
    certify_local_nd,
)
from repro.nn.affine import AffineLayer
from repro.runtime import (
    BatchCertifier,
    CertificationQuery,
    RetryPolicy,
    global_query,
    local_queries,
    parallel_solve_many,
)
from repro.runtime import batch as batch_mod
from repro.runtime import faults

_REAL_EXECUTE = batch_mod._execute_query


def _execute_in_worker(query):
    """``_execute_query`` that records the serving process in the
    certificate and hangs on a query tagged ``"hang"``."""
    if query.tag == "hang":
        time.sleep(60)
    cert = _REAL_EXECUTE(query)
    cert.detail["pid"] = os.getpid()
    return cert


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie awaiting its reaper
    counts: it holds no memory and runs nothing)."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (ProcessLookupError, FileNotFoundError):
        return True


def _wait_gone(pids, seconds: float = 5.0) -> set:
    """The pids still running after up to ``seconds``."""
    stop = time.perf_counter() + seconds
    alive = set(pids)
    while alive and time.perf_counter() < stop:
        time.sleep(0.05)
        alive = {pid for pid in alive if not _gone(pid)}
    return alive


#: A subprocess that runs one pooled batch, prints its workers' pids and
#: then either exits or (with a command-line argument) waits to be killed.
_POOLED_SCRIPT = textwrap.dedent(
    """
    import json, os, sys, time
    import numpy as np
    from repro.nn.affine import AffineLayer
    from repro.runtime import BatchCertifier, batch, local_queries

    real = batch._execute_query

    def execute(query):
        cert = real(query)
        cert.detail["pid"] = os.getpid()
        return cert

    batch._execute_query = execute
    rng = np.random.default_rng(0)
    layers = [
        AffineLayer(rng.standard_normal((4, 3)), np.zeros(4), relu=True),
        AffineLayer(rng.standard_normal((2, 4)), np.zeros(2), relu=False),
    ]
    queries = local_queries(layers, rng.random((4, 3)), 0.05, method="lpr")
    results = BatchCertifier(max_workers=2).run(queries)
    pids = sorted({r.certificate.detail["pid"] for r in results})
    print(json.dumps(pids), flush=True)
    if len(sys.argv) > 1:
        time.sleep(120)
    """
)


def _pooled_subprocess(*args):
    """Start :data:`_POOLED_SCRIPT`, fault-free (under a fault plan no
    pool is cached)."""
    src = Path(batch_mod.__file__).resolve().parents[2]
    return subprocess.Popen(
        [sys.executable, "-c", _POOLED_SCRIPT, *args],
        env={
            **{k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"},
            "PYTHONPATH": str(src),
        },
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def layers():
    rng = np.random.default_rng(42)
    return [
        AffineLayer(
            0.5 * rng.standard_normal((4, 3)), 0.2 * rng.standard_normal(4), relu=True
        ),
        AffineLayer(
            0.5 * rng.standard_normal((2, 4)), 0.2 * rng.standard_normal(2), relu=False
        ),
    ]


@pytest.fixture(scope="module")
def centers():
    return np.random.default_rng(1).random((3, 3))


class TestQueryValidation:
    def test_unknown_kind(self, layers):
        with pytest.raises(ValueError, match="unknown query kind"):
            CertificationQuery(kind="typo", layers=layers, delta=0.1)

    def test_local_needs_center(self, layers):
        with pytest.raises(ValueError, match="center"):
            CertificationQuery(kind="local-exact", layers=layers, delta=0.1)

    def test_global_needs_domain(self, layers):
        with pytest.raises(ValueError, match="domain"):
            CertificationQuery(kind="global", layers=layers, delta=0.1)

    def test_bad_local_method(self, layers, centers):
        with pytest.raises(ValueError, match="unknown local method"):
            local_queries(layers, centers, 0.1, method="fancy")

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            BatchCertifier(max_workers=0)

    def test_nonpositive_epsilon_rejected(self, layers, centers):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                CertificationQuery(
                    kind="local-exact", layers=layers, delta=0.1,
                    center=centers[0], epsilon=bad,
                )

    def test_bad_delta_rejected(self, layers, centers):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                CertificationQuery(
                    kind="local-exact", layers=layers, delta=bad,
                    center=centers[0], epsilon=0.5,
                )
        # A zero radius is a valid (trivial) query.
        CertificationQuery(
            kind="local-exact", layers=layers, delta=0.0, center=centers[0],
        )

    def test_unknown_backend_rejected_at_construction(self, layers, centers):
        # There is no solver switch left to pass a name to.
        with pytest.raises(TypeError, match="backend"):
            local_queries(layers, centers, 0.1, backend="scipy")

    @pytest.mark.parametrize(
        "knobs,name",
        [
            ({"max_domains": 0}, "max_domains"),
            ({"split_depth": -1}, "split_depth"),
        ],
    )
    def test_split_knobs_rejected_at_construction(self, layers, centers, knobs, name):
        # Before, the query accepted these and the split run copied them
        # past SplitConfig's checks: max_domains=0 returned a verdict.
        with pytest.raises(ValueError, match=name):
            local_queries(layers, centers, 0.1, epsilon=0.5, split=True, **knobs)
        with pytest.raises(ValueError, match=name):
            global_query(
                layers, Box.uniform(3, 0, 1), 0.1, exact=True, epsilon=0.5,
                split=True, **knobs,
            )

    @pytest.mark.parametrize(
        "knob,value,name",
        [("max_domains", 0, "max_domains"), ("split_depth", -1, "max_depth")],
    )
    def test_split_run_builds_a_checked_config(
        self, layers, centers, knob, value, name
    ):
        # The split run hands the knobs to SplitConfig's constructor, so
        # its checks hold even for a query changed after it was built.
        from repro.runtime.batch import _run_split

        query = local_queries(layers, centers[:1], 0.05, epsilon=1e-6, split=True)[0]
        setattr(query, knob, value)
        with pytest.raises(ValueError, match=name):
            _run_split(query)

    @pytest.mark.parametrize(
        "knobs,name",
        [
            ({"window": 0}, "window"),
            ({"window": -3}, "window"),
            ({"refine_count": -2}, "refine_count"),
        ],
    )
    def test_window_and_refine_rejected_at_construction(self, layers, knobs, name):
        with pytest.raises(ValueError, match=name):
            global_query(layers, Box.uniform(3, 0, 1), 0.1, **knobs)

    def test_split_needs_epsilon(self, layers, centers):
        with pytest.raises(ValueError, match="epsilon"):
            CertificationQuery(
                kind="local-exact", layers=layers, delta=0.1,
                center=centers[0], split=True,
            )

    def test_split_needs_exact_kind(self, layers, centers):
        with pytest.raises(ValueError, match="split"):
            CertificationQuery(
                kind="local-lpr", layers=layers, delta=0.1,
                center=centers[0], epsilon=0.5, split=True,
            )
        with pytest.raises(ValueError, match="split"):
            local_queries(
                layers, centers, 0.1, method="lpr", epsilon=0.5, split=True
            )
        with pytest.raises(ValueError, match="split"):
            global_query(
                layers, Box.uniform(3, 0, 1), 0.1, epsilon=0.5, split=True
            )


class TestPresolveTier:
    def test_presolve_answers_without_milp(self, layers, centers):
        queries = local_queries(layers, centers, 0.01, epsilon=1e6)
        engine = BatchCertifier(max_workers=1)
        results = engine.run(queries)
        assert all(r.ok for r in results)
        assert all(r.certificate.method == "presolve" for r in results)
        assert all(
            r.certificate.detail["verdict"] == "certified" for r in results
        )

    def test_presolve_disabled_falls_through(self, layers, centers):
        queries = local_queries(
            layers, centers[:1], 0.01, epsilon=1e6, presolve=False
        )
        engine = BatchCertifier(max_workers=1)
        results = engine.run(queries)
        assert results[0].certificate.method == "local-exact"

    def test_bulk_presolve_screens_batch_in_parent(
        self, layers, centers, monkeypatch
    ):
        import repro.certify.presolve as presolve_module
        import repro.runtime.batch as batch_module

        queries = local_queries(layers, centers, 0.01, epsilon=1e6)
        engine = BatchCertifier(max_workers=1)
        results = engine.run(queries)
        assert all(r.ok for r in results)
        assert all(r.certificate.method == "presolve" for r in results)
        assert engine.presolve_stats == {
            "groups": 1, "queries": len(centers), "answered": len(centers),
        }
        # Workers never repeat the tier for a screened query: with the
        # batched pass leaving every query undecided, no worker presolves
        # and every query goes straight to its MILP.
        worker_presolves = []
        monkeypatch.setattr(
            presolve_module, "presolve_many",
            lambda network, kind, **kw: [None] * len(kw["deltas"]),
        )
        monkeypatch.setattr(
            batch_module, "_try_presolve",
            lambda query: worker_presolves.append(query) or None,
        )
        results = engine.run(queries)
        assert worker_presolves == []
        assert all(r.certificate.method == "local-exact" for r in results)

    def test_run_leaves_queries_untouched(self, layers, centers):
        # Running the same queries twice on one engine gives the same
        # certificates: screening them must not mark the caller's objects.
        queries = local_queries(layers, centers, 0.01, epsilon=1e6)
        engine = BatchCertifier(max_workers=1)
        first = engine.run(queries)
        first_stats = dict(engine.presolve_stats)
        second = engine.run(queries)
        assert engine.presolve_stats == first_stats
        assert all(q.presolve and q.split_workers is None for q in queries)
        for a, b in zip(first, second):
            assert a.certificate.method == b.certificate.method == "presolve"
            np.testing.assert_array_equal(
                a.certificate.epsilons, b.certificate.epsilons
            )

    def test_bulk_presolve_matches_scalar_presolve(self, layers, centers):
        # Identical submissions with the prefilter on and off must
        # produce bit-identical certificates (only scheduling differs).
        eps = 0.3
        on = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers, 0.05, epsilon=eps)
        )
        off = BatchCertifier(max_workers=1, bulk_presolve=False).run(
            local_queries(layers, centers, 0.05, epsilon=eps)
        )
        for a, b in zip(on, off):
            assert a.ok and b.ok
            assert a.certificate.method == b.certificate.method
            np.testing.assert_array_equal(
                a.certificate.epsilons, b.certificate.epsilons
            )
            assert a.certificate.detail.get("verdict") == \
                b.certificate.detail.get("verdict")

    def test_global_presolve_through_engine(self, layers):
        box = Box.uniform(3, 0.0, 1.0)
        out = BatchCertifier(max_workers=1).run(
            [global_query(layers, box, 0.01, epsilon=1e6, tag="g")]
        )
        assert out[0].ok
        assert out[0].certificate.method == "presolve"

    def test_undecided_matches_plain_milp(self, layers, centers):
        # A refutable target: presolve answers via the attack gap; the
        # verdict must be consistent with the exact MILP epsilon.
        exact = certify_local_exact(layers, centers[0], 0.05)
        tiny = exact.epsilon * 1e-6
        results = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers[:1], 0.05, epsilon=tiny)
        )
        cert = results[0].certificate
        if cert.method == "presolve":
            assert cert.detail["verdict"] == "refuted"
            assert cert.epsilon > tiny
        else:
            np.testing.assert_allclose(cert.epsilons, exact.epsilons, atol=1e-9)

    def test_split_tier_verdict_matches_monolithic(self, layers, centers):
        """A split query and the plain MILP answer must agree on ε vs ε."""
        exact = certify_local_exact(layers, centers[0], 0.05)
        for factor, expected in ((0.8, "refuted"), (1.2, "certified")):
            queries = local_queries(
                layers, centers[:1], 0.05, epsilon=exact.epsilon * factor,
                split=True, presolve=False,
            )
            results = BatchCertifier(max_workers=1).run(queries)
            cert = results[0].certificate
            assert cert.method == "split"
            assert cert.detail["verdict"] == expected

    def test_split_single_query_granted_leaf_workers(self, layers, monkeypatch):
        import repro.runtime.batch as batch_module

        box = Box.uniform(3, 0.0, 1.0)
        query = global_query(
            layers, box, 0.05, exact=True, epsilon=0.05, split=True,
            presolve=False,
        )
        granted = []
        real_run_split = batch_module._run_split

        def run_split(dispatched):
            granted.append(dispatched.split_workers)
            return real_run_split(dispatched)

        monkeypatch.setattr(batch_module, "_run_split", run_split)
        results = BatchCertifier(max_workers=2).run([query])
        assert results[0].ok
        assert results[0].certificate.method == "split"
        assert granted == [2]  # the pool budget moved to leaves
        assert query.split_workers is None  # on a copy, not the caller's query

    def test_split_default_time_limit_unlimited(self, layers, centers):
        """A split query without a time limit must never be interrupted
        (parity with the unlimited monolithic certify_local_exact)."""
        queries = local_queries(
            layers, centers[:1], 0.05, epsilon=1e-6, split=True,
            presolve=False,
        )
        results = BatchCertifier(max_workers=1).run(queries)
        assert results[0].ok
        assert results[0].certificate.detail["verdict"] != "undecided"
        assert results[0].certificate.exact

    def test_split_knobs_plumb_through(self, layers, centers):
        queries = local_queries(
            layers, centers[:1], 0.05, epsilon=1e-6, split=True,
            presolve=False, max_domains=5, split_depth=1,
        )
        assert queries[0].max_domains == 5
        assert queries[0].split_depth == 1
        results = BatchCertifier(max_workers=1).run(queries)
        cert = results[0].certificate
        assert cert.detail["verdict"] == "refuted"
        assert cert.detail["domains"] <= 5 + 2  # budget + final bisection

    def test_workers_parity_with_presolve(self, layers, centers):
        queries = lambda: local_queries(layers, centers, 0.05, epsilon=0.05)  # noqa: E731
        serial = BatchCertifier(max_workers=1).run(queries())
        fanned = BatchCertifier(max_workers=2).run(queries())
        for a, b in zip(serial, fanned):
            assert a.ok and b.ok
            assert a.certificate.method == b.certificate.method
            np.testing.assert_allclose(
                a.certificate.epsilons, b.certificate.epsilons, atol=1e-9
            )


@pytest.mark.parametrize("workers", [1, 2])
class TestParity:
    """Batch answers must equal the serial certification functions."""

    def test_local_methods(self, layers, centers, workers):
        serial = {
            "exact": [certify_local_exact(layers, c, 0.05) for c in centers],
            "nd": [certify_local_nd(layers, c, 0.05, window=1) for c in centers],
            "lpr": [certify_local_lpr(layers, c, 0.05) for c in centers],
        }
        for method, refs in serial.items():
            queries = local_queries(layers, centers, 0.05, method=method, window=1)
            results = BatchCertifier(max_workers=workers).run(queries)
            assert [r.index for r in results] == [0, 1, 2]
            for res, ref in zip(results, refs):
                assert res.ok, res.error
                np.testing.assert_allclose(
                    res.certificate.epsilons, ref.epsilons, atol=1e-7
                )

    def test_global(self, layers, workers):
        box = Box.uniform(3, 0.0, 1.0)
        ref = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=2)
        ).certify(box, 0.01)
        out = BatchCertifier(max_workers=workers).run(
            [global_query(layers, box, 0.01, refine_count=2, tag="g")]
        )
        assert out[0].ok and out[0].tag == "g"
        np.testing.assert_allclose(out[0].certificate.epsilons, ref.epsilons, atol=1e-7)


class TestEngineMechanics:
    def test_empty_batch(self):
        assert BatchCertifier().run([]) == []

    def test_failure_captured_not_raised(self, layers, centers):
        bad = CertificationQuery(
            kind="local-exact",
            layers=layers,
            delta=0.05,
            center=np.ones(7),  # wrong input dimension
            tag="bad",
        )
        good = local_queries(layers, centers[:1], 0.05)
        results = BatchCertifier(max_workers=2).run([bad] + good)
        assert not results[0].ok
        assert "Traceback" in results[0].error
        assert results[0].certificate is None
        assert results[1].ok, results[1].error

    def test_progress_callback_and_ordering(self, layers, centers):
        queries = local_queries(layers, centers, 0.05, method="lpr")
        seen = []
        results = BatchCertifier(max_workers=2).run(
            queries, progress=lambda done, total, r: seen.append((done, total, r.tag))
        )
        assert [s[0] for s in seen] == [1, 2, 3]  # monotone completion count
        assert all(s[1] == 3 for s in seen)
        # Deterministic output order regardless of completion order.
        assert [r.tag for r in results] == ["sample[0]", "sample[1]", "sample[2]"]

    def test_elapsed_populated(self, layers, centers):
        results = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers[:1], 0.05, method="lpr")
        )
        assert results[0].elapsed > 0


class TestParallelSolveMany:
    def test_matches_serial(self, layers):
        from repro.encoding.single import encode_single_network

        enc = encode_single_network(layers, Box.uniform(3, 0.0, 1.0))
        objectives = []
        for handle in enc.output:
            expr = handle.to_expr() if not hasattr(handle, "coeffs") else handle
            objectives.extend([(expr, "min"), (expr, "max")])
        serial = enc.model.solve_many(objectives)
        fanned = parallel_solve_many(
            enc.model, objectives, max_workers=2
        )
        assert len(fanned) == len(serial)
        for a, b in zip(fanned, serial):
            assert a.status == b.status
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_serial_fan_out_exports_once(self, layers, monkeypatch):
        from repro.encoding.single import encode_single_network
        from repro.milp.model import Model

        enc = encode_single_network(layers, Box.uniform(3, 0.0, 1.0))
        objectives = []
        for handle in enc.output:
            expr = handle.to_expr() if not hasattr(handle, "coeffs") else handle
            objectives.extend([(expr, "min"), (expr, "max")])
        serial = enc.model.solve_many(objectives)
        exports = []
        real_export = Model.to_standard_form

        def export(model, *args, **kwargs):
            exports.append(model.name)
            return real_export(model, *args, **kwargs)

        monkeypatch.setattr(Model, "to_standard_form", export)
        inline = parallel_solve_many(
            enc.model, objectives, max_workers=1
        )
        assert len(exports) == 1  # the inline solve_many's own session
        for a, b in zip(inline, serial):
            assert a.status == b.status
            assert a.objective == b.objective

    def test_fan_out_exports_nothing_in_the_parent(self, layers, monkeypatch, tmp_path):
        import os

        from repro.encoding.single import encode_single_network
        from repro.milp.model import Model

        enc = encode_single_network(layers, Box.uniform(3, 0.0, 1.0))
        objectives = []
        for handle in enc.output:
            expr = handle.to_expr() if not hasattr(handle, "coeffs") else handle
            objectives.extend([(expr, "min"), (expr, "max")])
        serial = enc.model.solve_many(objectives)
        log = tmp_path / "exports.log"
        real_export = Model.to_standard_form

        def export(model, *args, **kwargs):
            with open(log, "a") as fh:  # forked workers inherit the spy
                fh.write(f"{os.getpid()}\n")
            return real_export(model, *args, **kwargs)

        monkeypatch.setattr(Model, "to_standard_form", export)
        fanned = parallel_solve_many(
            enc.model, objectives, max_workers=2
        )
        pids = log.read_text().split()
        assert str(os.getpid()) not in pids
        assert len(pids) == 2  # one export per worker chunk
        for a, b in zip(fanned, serial):
            assert a.status == b.status
            assert a.objective == b.objective

    @pytest.mark.parametrize("dnn_id", [3, 4, 5])
    def test_stack_size_from_model_matches_export(self, dnn_id, tmp_path, monkeypatch):
        """The unexported nonzero count both stack sizes read is the export's."""
        from repro.zoo import get_network

        net = get_network(dnn_id, cache_dir=tmp_path).network
        models = []
        real_solve = GlobalRobustnessCertifier._solve

        def solve(self, model, objectives):
            models.append(model)
            return real_solve(self, model, objectives)

        monkeypatch.setattr(GlobalRobustnessCertifier, "_solve", solve)
        GlobalRobustnessCertifier(net, CertifierConfig(window=2)).certify(
            Box.uniform(7, 0.0, 1.0), 0.001
        )
        assert {m.name for m in models} == {"itne", "first-copy"}
        for model in models:
            _, a_ub, _, a_eq, _, _, _ = model.to_standard_form(sparse=True)
            assert model.num_nonzeros == a_ub.nnz + a_eq.nnz

    def test_single_objective_short_circuits(self, layers):
        from repro.encoding.single import encode_single_network

        enc = encode_single_network(layers, Box.uniform(3, 0.0, 1.0))
        handle = enc.output[0]
        expr = handle.to_expr() if not hasattr(handle, "coeffs") else handle
        out = parallel_solve_many(enc.model, [(expr, "max")], max_workers=4)
        assert len(out) == 1 and out[0].is_optimal

    def test_lp_only_certifier_workers_are_bit_identical(self, monkeypatch):
        """Chunks fall on stack boundaries, so fan-out changes no bit."""
        import repro.runtime.batch as batch_module
        from repro.milp.session import objectives_per_stack

        rng = np.random.default_rng(5)
        dims = [7, 40, 40, 2]
        wide = [
            AffineLayer(
                rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
                0.1 * rng.standard_normal(dims[i + 1]),
                relu=i < 2,
            )
            for i in range(3)
        ]
        fanned_layers = []
        fanned_models = []
        real_fan_out = batch_module.parallel_solve_many

        def fan_out(model, objectives, **kwargs):
            stack = objectives_per_stack(model)
            fanned_layers.append([len(objectives), stack])
            fanned_models.append(model.name)
            return real_fan_out(model, objectives, **kwargs)

        monkeypatch.setattr(batch_module, "parallel_solve_many", fan_out)
        box = Box.uniform(7, 0.0, 1.0)
        serial = GlobalRobustnessCertifier(
            wide, CertifierConfig(window=2)
        ).certify(box, 0.01)
        fanned = GlobalRobustnessCertifier(
            wide, CertifierConfig(window=2, workers=2)
        ).certify(box, 0.01)
        # At least one layer spans several stacks, so two workers each
        # solved some of them.
        assert any(count > stack for count, stack in fanned_layers)
        # Both per-layer models fan out: Δy over ITNE, y over the first copy.
        assert {"itne", "first-copy"} <= set(fanned_models)
        assert np.array_equal(fanned.epsilons, serial.epsilons)
        for i in range(1, len(wide) + 1):
            got = fanned.detail["range_table"].layer(i)
            want = serial.detail["range_table"].layer(i)
            for name in ("y", "dy", "x", "dx"):
                assert np.array_equal(getattr(got, name).lo, getattr(want, name).lo)
                assert np.array_equal(getattr(got, name).hi, getattr(want, name).hi)

    def test_certifier_workers_match_serial(self, layers):
        box = Box.uniform(3, 0.0, 1.0)
        serial = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=2)
        ).certify(box, 0.02)
        fanned = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=2, workers=2)
        ).certify(box, 0.02)
        np.testing.assert_allclose(fanned.epsilons, serial.epsilons, atol=1e-9)


class TestPoolLifecycle:
    """Pool workers are forked once per process and key, then reused."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Run a batch in pool workers; return the pids that served it.

        Fault-free: under a fault plan (the chaos job's) no pool is reused.
        """
        monkeypatch.setattr(batch_mod, "_execute_query", _execute_in_worker)

        def run(engine, queries):
            results = engine.run(queries)
            assert all(r.ok and not r.degraded for r in results)
            pids = {r.certificate.detail["pid"] for r in results}
            assert os.getpid() not in pids  # pool workers, not inline
            return pids

        saved = faults.active_plan()
        faults.clear()
        yield run
        faults.install(saved)

    def test_batches_reuse_the_worker_processes(self, layers, centers, served):
        first = served(
            BatchCertifier(max_workers=2),
            local_queries(layers, centers, 0.05, method="lpr"),
        )
        second = served(
            BatchCertifier(max_workers=2),
            local_queries(layers, centers, 0.05, method="lpr"),
        )
        assert second <= first

    def test_watchdog_killed_pool_is_replaced(self, layers, centers, served):
        queries = local_queries(layers, centers, 0.05, method="lpr")
        before = served(BatchCertifier(max_workers=2), queries)
        hung = local_queries(layers, centers[:2], 0.05, method="lpr")
        hung[0] = replace(hung[0], tag="hang")
        engine = BatchCertifier(
            max_workers=2, query_timeout=0.5, retry=RetryPolicy(base_delay=0.001)
        )
        results = engine.run(hung)
        assert results[0].degraded and results[1].ok
        assert engine.fault_stats["workers_killed"] == 1
        assert engine.fault_stats["pool_rebuilds"] == 1
        after = served(BatchCertifier(max_workers=2), queries)
        assert not after & before

    def test_reused_pool_holds_no_earlier_start_marker(
        self, layers, centers, served
    ):
        # A stale (index, pid) marker would point this call's watchdog
        # at whichever worker ran that index last time.
        served(
            BatchCertifier(max_workers=2),
            local_queries(layers, centers, 0.05, method="lpr"),
        )
        key, _, sink = batch_mod._POOL
        sink.put((0, 1))
        pool, taken = batch_mod._take_pool(key)
        drained = sink.empty()
        batch_mod._close_pool(pool, sink)
        assert taken is sink and drained

    def test_dead_idle_worker_costs_the_next_call_no_rebuild(
        self, layers, centers, served
    ):
        queries = local_queries(layers, centers, 0.05, method="lpr")
        before = served(BatchCertifier(max_workers=2), queries)
        victim = min(before)
        os.kill(victim, signal.SIGKILL)  # e.g. the OOM killer, between calls
        assert not _wait_gone([victim])
        engine = BatchCertifier(max_workers=2)
        after = served(engine, queries)
        assert engine.fault_stats["pool_rebuilds"] == 0
        assert victim not in after

    def test_interpreter_exit_joins_the_workers(self):
        with _pooled_subprocess() as proc:
            line = proc.stdout.readline()  # the batch is done
            t0 = time.perf_counter()
            code = proc.wait(timeout=120)
            exit_s = time.perf_counter() - t0
            assert code == 0, proc.stderr.read()
        assert exit_s < 5.0
        pids = json.loads(line)
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_killed_parent_leaves_no_idle_workers(self):
        with _pooled_subprocess("wait") as proc:
            line = proc.stdout.readline()  # the batch is done, pool idle
            proc.kill()  # SIGKILL: no pool shutdown, no exit hooks
            proc.wait(timeout=10)
            assert line, proc.stderr.read()
        pids = json.loads(line)
        assert pids
        orphans = _wait_gone(pids)
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)  # leave nothing behind on failure
        assert not orphans
