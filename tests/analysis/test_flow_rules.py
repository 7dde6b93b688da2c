"""Flow rules: must-flag / must-pass fixtures, waivers, profiles."""

import pytest

from tools.analysis import ENGINE_CODE, lint_source, lint_sources
from tools.analysis.rules_flow import ALL_FLOW_RULES


def codes(diagnostics):
    return [d.code for d in diagnostics]


def lint(source, relpath="src/repro/certify/example.py"):
    return lint_source(source, relpath, relpath, flow=True)


BOX_PREAMBLE = (
    "from dataclasses import dataclass\n"
    "\n"
    "@dataclass\n"
    "class Box:\n"
    "    lo: object\n"
    "    hi: object\n"
    "\n"
    "    def __post_init__(self):\n"
    "        self.lo = self.lo.copy()\n"
    "        self.hi = self.hi.copy()\n"
    "\n"
)

# One (code, relpath, must_flag, must_pass) fixture pair per flow rule.
FLOW_FIXTURES = [
    (
        "RPR101",
        "src/repro/bounds/example.py",
        # Constructor called with the directions swapped.
        BOX_PREAMBLE + "def swapped(box):\n    return Box(box.hi, box.lo)\n",
        # Straight copy plus direction-neutral width math.
        BOX_PREAMBLE
        + "def widened(box):\n"
        + "    width = box.hi - box.lo\n"
        + "    return Box(box.lo.copy(), box.hi.copy()), width\n",
    ),
    (
        "RPR102",
        "src/repro/certify/example.py",
        # Accepts time_limit, then solves without it.
        "def run(session, time_limit=None):\n"
        "    return session.solve()\n",
        # Forwarding a *derived* value counts as threading.
        "def run(session, time_limit=None):\n"
        "    per_solve = None if time_limit is None else time_limit / 2\n"
        "    return session.solve(time_limit=per_solve)\n",
    ),
    (
        "RPR103",
        "src/repro/runtime/example.py",
        # An early return skips the close.
        "def leaky(model, flag):\n"
        "    session = open_session(model)\n"
        "    if flag:\n"
        "        return None\n"
        "    session.close()\n"
        "    return None\n",
        # finally post-dominates every path, early return included.
        "def tight(model, flag):\n"
        "    session = open_session(model)\n"
        "    try:\n"
        "        if flag:\n"
        "            return None\n"
        "        return session.solve()\n"
        "    finally:\n"
        "        session.close()\n",
    ),
    (
        "RPR105",
        "src/repro/runtime/example.py",
        # The submitted worker mutates a module-level container.
        "RESULTS = []\n"
        "\n"
        "def worker(x):\n"
        "    RESULTS.append(x)\n"
        "    return x\n"
        "\n"
        "def run(pool, xs):\n"
        "    return list(pool.map(worker, xs))\n",
        # A pure worker: locals only.
        "def worker(x):\n"
        "    doubled = x * 2\n"
        "    return doubled\n"
        "\n"
        "def run(pool, xs):\n"
        "    return list(pool.map(worker, xs))\n",
    ),
]


class TestFlowFixtures:
    @pytest.mark.parametrize(
        "code,relpath,bad,good", FLOW_FIXTURES, ids=[f[0] for f in FLOW_FIXTURES]
    )
    def test_must_flag(self, code, relpath, bad, good):
        assert code in codes(lint(bad, relpath))

    @pytest.mark.parametrize(
        "code,relpath,bad,good", FLOW_FIXTURES, ids=[f[0] for f in FLOW_FIXTURES]
    )
    def test_must_pass(self, code, relpath, bad, good):
        assert lint(good, relpath) == []

    def test_every_flow_rule_has_a_fixture_pair(self):
        assert {f[0] for f in FLOW_FIXTURES} == {
            r.CODE for r in ALL_FLOW_RULES
        }

    def test_flow_rules_off_without_flow_flag(self):
        code, relpath, bad, _good = FLOW_FIXTURES[0]
        assert lint_source(bad, relpath, relpath, flow=False) == []


class TestBoundDirectionTaint:
    def test_keyword_sink_needs_no_resolution(self):
        src = "def f(box):\n    update(lo=box.hi)\n"
        assert "RPR101" in codes(lint(src, "src/repro/bounds/example.py"))

    def test_attribute_store_sink(self):
        src = "def f(box, other):\n    box.hi = other.lo\n"
        assert "RPR101" in codes(lint(src, "src/repro/bounds/example.py"))

    def test_cross_file_positional_resolution(self):
        producer = (
            "src/repro/bounds/prod.py",
            "def clamp(lo, hi):\n    return lo, hi\n",
            None,
        )
        consumer = (
            "src/repro/certify/cons.py",
            "from repro.bounds.prod import clamp\n"
            "\n"
            "def f(box):\n"
            "    return clamp(box.hi, box.lo)\n",
            None,
        )
        diags = lint_sources([producer, consumer], flow=True)
        assert "RPR101" in codes(diags)
        assert all(d.path != producer[0] for d in diags)

    def test_mixed_taint_never_flags(self):
        # Intersection idiom: maximum of lows, minimum of highs.
        src = (
            BOX_PREAMBLE
            + "def intersect(a, b):\n"
            + "    import numpy as np\n"
            + "    return Box(np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi))\n"
        )
        assert lint(src, "src/repro/bounds/example.py") == []

    def test_negation_idiom_not_flagged(self):
        # Lower bound of -x is -hi(x): arithmetic legitimately crosses.
        src = BOX_PREAMBLE + "def negate(b):\n    return Box(-b.hi, -b.lo)\n"
        assert lint(src, "src/repro/bounds/example.py") == []

    def test_out_of_scope_path_exempt(self):
        src = BOX_PREAMBLE + "def swapped(box):\n    return Box(box.hi, box.lo)\n"
        assert lint(src, "src/repro/milp/example.py") == []


class TestDeadlineThreading:
    def test_name_call_to_deadline_taking_function(self):
        src = (
            "def inner(x, deadline=None):\n"
            "    return x\n"
            "\n"
            "def outer(x, deadline=None):\n"
            "    return inner(x)\n"
        )
        assert "RPR102" in codes(lint(src))

    def test_forwarding_to_name_call_passes(self):
        src = (
            "def inner(x, deadline=None):\n"
            "    return x\n"
            "\n"
            "def outer(x, deadline=None):\n"
            "    return inner(x, deadline=deadline)\n"
        )
        assert lint(src) == []

    def test_resolved_callee_without_deadline_param_is_skipped(self):
        src = (
            "def helper(x):\n"
            "    return x\n"
            "\n"
            "def outer(x, deadline=None):\n"
            "    return helper(x)\n"
        )
        assert lint(src) == []

    def test_functions_without_deadline_params_unconstrained(self):
        assert lint("def f(session):\n    return session.solve()\n") == []


class TestResourceLifecycle:
    def test_never_closed(self):
        src = (
            "def leaky(model):\n"
            "    session = open_session(model)\n"
            "    return session.solve()\n"
        )
        diags = lint(src, "src/repro/runtime/example.py")
        assert codes(diags) == ["RPR103"]
        assert "never closed" in diags[0].message

    def test_with_statement_passes(self):
        src = (
            "def tight(model):\n"
            "    with open_session(model) as session:\n"
            "        return session.solve()\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_ownership_escape_via_return_passes(self):
        src = (
            "def factory(model):\n"
            "    session = open_session(model)\n"
            "    return session\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_ownership_escape_via_attribute_store_passes(self):
        src = (
            "def attach(self, model):\n"
            "    session = open_session(model)\n"
            "    self.session = session\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_close_on_every_branch_passes(self):
        src = (
            "def forked(model, flag):\n"
            "    session = open_session(model)\n"
            "    if flag:\n"
            "        session.close()\n"
            "    else:\n"
            "        session.shutdown()\n"
            "    return flag\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_pool_types_are_tracked_too(self):
        src = (
            "def fan_out(jobs):\n"
            "    pool = ProcessPoolExecutor(max_workers=2)\n"
            "    return list(pool.map(len, jobs))\n"
        )
        assert "RPR103" in codes(lint(src, "src/repro/runtime/example.py"))


class TestWorkerPurity:
    def test_global_write(self):
        src = (
            "COUNT = 0\n"
            "\n"
            "def worker(x):\n"
            "    global COUNT\n"
            "    COUNT = COUNT + 1\n"
            "    return x\n"
            "\n"
            "def run(pool, xs):\n"
            "    return list(pool.map(worker, xs))\n"
        )
        assert "RPR105" in codes(lint(src, "src/repro/runtime/example.py"))

    def test_transitive_impurity_through_callee(self):
        src = (
            "CACHE = {}\n"
            "\n"
            "def helper(x):\n"
            "    CACHE[x] = True\n"
            "\n"
            "def worker(x):\n"
            "    helper(x)\n"
            "    return x\n"
            "\n"
            "def run(pool, xs):\n"
            "    return list(pool.map(worker, xs))\n"
        )
        assert "RPR105" in codes(lint(src, "src/repro/runtime/example.py"))

    def test_local_shadowing_is_pure(self):
        src = (
            "CACHE = {}\n"
            "\n"
            "def worker(x):\n"
            "    CACHE = {}\n"
            "    CACHE[x] = True\n"
            "    return CACHE\n"
            "\n"
            "def run(pool, xs):\n"
            "    return list(pool.map(worker, xs))\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_unresolved_worker_is_skipped(self):
        src = (
            "def run(pool, fns, xs):\n"
            "    return list(pool.map(fns[0], xs))\n"
        )
        assert lint(src, "src/repro/runtime/example.py") == []


class TestFlowWaivers:
    WAIVED = (
        "def run(session, time_limit=None):\n"
        "    # repro-lint: ignore[RPR102] — budget enforced by the caller's deadline loop\n"
        "    return session.solve()\n"
    )

    def test_flow_waiver_round_trip(self):
        assert lint(self.WAIVED) == []

    def test_removing_the_waiver_reintroduces_the_diagnostic(self):
        stripped = "\n".join(
            line for line in self.WAIVED.splitlines() if "repro-lint" not in line
        )
        assert "RPR102" in codes(lint(stripped))

    def test_stale_flow_waiver_is_an_error(self):
        src = (
            "def run(session, time_limit=None):\n"
            "    # repro-lint: ignore[RPR102] — nothing to suppress\n"
            "    return session.solve(time_limit=time_limit)\n"
        )
        diags = lint(src)
        assert codes(diags) == [ENGINE_CODE]
        assert "stale" in diags[0].message


class TestProfiles:
    def test_flow_rules_on_for_tests(self):
        code, _relpath, bad, _good = FLOW_FIXTURES[1]  # RPR102
        relpath = "tests/certify/test_example.py"
        assert code in codes(lint(bad, relpath))

    def test_per_node_exemptions_for_tests(self):
        src = "def f(x):\n    return x == 0.0\n"
        relpath = "tests/certify/test_example.py"
        assert lint_source(src, relpath, relpath) == []
        assert "RPR001" in codes(lint_source(src, "src/repro/a.py", "src/repro/a.py"))

    def test_diagnostics_carry_enclosing_symbol(self):
        src = (
            "class Runner:\n"
            "    def run(self, session, time_limit=None):\n"
            "        return session.solve()\n"
        )
        diags = lint(src)
        assert [d.symbol for d in diags] == ["Runner.run"]
