# Developer entry points. Everything here is also runnable directly —
# these targets just pin the invocations CI uses (see
# .github/workflows/ci.yml) so local runs match the gates.

PYTHON ?= python
BASE_REF ?= origin/main
LINT_PATHS := src benchmarks tests

.PHONY: test test-sanitize test-chaos lint lint-diff lint-sarif ratchet bench-smoke bench-gate perfbench-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# CI sanitized subset: the soundness-critical suites with every runtime
# contract check on (REPRO_SANITIZE=1).
test-sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src \
		$(PYTHON) -m pytest -x -q tests/bounds tests/milp tests/certify tests/analysis

# CI chaos job: runtime + certify suites with every worker process
# raising one injected fault on its first query and on its first split
# leaf, then the fault suite itself env-free.
test-chaos:
	REPRO_FAULTS="batch.worker:raise@1;split.leaf:raise@1" PYTHONPATH=src \
		$(PYTHON) -m pytest -x -q tests/runtime tests/certify
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/runtime/test_faults.py

# Full analysis gate: per-node rules + RPR101-103/RPR105 flow rules (CFG /
# dataflow / call graph) with the shrink-only baseline applied.
lint:
	$(PYTHON) -m tools.analysis --flow $(LINT_PATHS)

# The blocking PR gate: findings on lines changed vs BASE_REF only.
lint-diff:
	$(PYTHON) -m tools.analysis --flow --diff $(BASE_REF) $(LINT_PATHS)

# Full run + SARIF report (what CI uploads to code scanning).
lint-sarif:
	$(PYTHON) -m tools.analysis --flow --sarif lint.sarif $(LINT_PATHS)

ratchet:
	$(PYTHON) -m tools.analysis --ratchet

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_encoding --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_bounds --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_splitting --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_batch_bounds --smoke
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_faults --smoke

# CI benchmark gate: the five smoke runs above, then compare_bench on
# the three committed baselines (copied to a temp dir first).  Fails on
# a >20% drop of a recorded speedup/tightness ratio and on ANY change of
# a verdict count.  NOTE: the smoke runs merge their smoke_* keys into
# benchmarks/BENCH_{splitting,batch_bounds,faults}.json, so this target
# rewrites those three committed files; `git checkout` them afterwards
# unless the new numbers are meant to be committed.
GATED_BENCHES := splitting batch_bounds faults

bench-gate:
	set -e; base=$$(mktemp -d); trap 'rm -rf "$$base"' EXIT; \
	for b in $(GATED_BENCHES); do cp benchmarks/BENCH_$$b.json "$$base"/; done; \
	$(MAKE) --no-print-directory bench-smoke PYTHON=$(PYTHON); \
	for b in $(GATED_BENCHES); do \
		PYTHONPATH=src $(PYTHON) -m benchmarks.compare_bench \
			"$$base"/BENCH_$$b.json benchmarks/BENCH_$$b.json; \
	done

# CI perfbench job: every end-to-end workload briefly, traced.  A run
# exits non-zero only when one of its correctness checks fails
# ("correct": false); its timings are not gated here, because shared
# runners are too noisy for the benchmark's bounds.
PERFBENCH_WORKLOADS := alg1-lp alg1-refine local-batch

perfbench-smoke:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seconds 5 --trace 1 || exit 1; \
	done
