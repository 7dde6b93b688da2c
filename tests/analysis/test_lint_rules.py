"""Lint pack: must-flag / must-pass fixtures per rule, waivers, meta-lint."""

import subprocess
import sys

import pytest

from tools.analysis import (
    ENGINE_CODE,
    FLOW_CODES,
    KNOWN_CODES,
    NODE_CODES,
    lint_paths,
    lint_source,
)
from tools.analysis.rules import ALL_RULES


def codes(diagnostics):
    return [d.code for d in diagnostics]


def lint(source, relpath="src/repro/example.py"):
    return lint_source(source, relpath, relpath)


# One (code, relpath, must_flag, must_pass) fixture pair per rule.
RULE_FIXTURES = [
    (
        "RPR001",
        "src/repro/certify/example.py",
        "def f(x):\n    return x == 0.0\n",
        "from repro.tol import near_zero\n\ndef f(x):\n    return near_zero(x)\n",
    ),
    (
        "RPR002",
        "src/repro/bounds/example.py",
        "class Box:\n"
        "    def __init__(self, lo):\n"
        "        self.lo = lo\n",
        "import numpy as np\n\n"
        "class Box:\n"
        "    def __init__(self, lo):\n"
        "        self.lo = np.array(lo, copy=True)\n",
    ),
    (
        "RPR003",
        "src/repro/certify/example.py",
        "from repro.milp.scipy_backend import ScipyBackend\n",
        "from repro.milp import open_session\n\nsession = open_session(model)\n",
    ),
    (
        "RPR004",
        "src/repro/runtime/example.py",
        "import time\n\ndeadline = time.time() + 5\n",
        "import time\n\nstart = time.perf_counter()\n",
    ),
    (
        "RPR005",
        "src/repro/runtime/example.py",
        "try:\n    risky()\nexcept Exception:\n    pass\n",
        "try:\n    risky()\nexcept ValueError:\n    pass\n",
    ),
    (
        "RPR006",
        "src/repro/bounds/example.py",
        "import numpy as np\n\nlo = np.zeros(3, dtype=np.float32)\n",
        "import numpy as np\n\nlo = np.zeros(3, dtype=float)\n",
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "code,relpath,bad,good", RULE_FIXTURES, ids=[f[0] for f in RULE_FIXTURES]
    )
    def test_must_flag(self, code, relpath, bad, good):
        assert code in codes(lint(bad, relpath))

    @pytest.mark.parametrize(
        "code,relpath,bad,good", RULE_FIXTURES, ids=[f[0] for f in RULE_FIXTURES]
    )
    def test_must_pass(self, code, relpath, bad, good):
        assert lint(good, relpath) == []

    def test_every_rule_has_a_fixture_pair(self):
        assert {f[0] for f in RULE_FIXTURES} == {r.CODE for r in ALL_RULES}

    def test_rule_codes_unique_and_known(self):
        rule_codes = [r.CODE for r in ALL_RULES]
        assert len(rule_codes) == len(set(rule_codes))
        assert set(rule_codes) == set(NODE_CODES)
        assert NODE_CODES | FLOW_CODES | {ENGINE_CODE} == KNOWN_CODES
        assert not NODE_CODES & FLOW_CODES


class TestRuleScoping:
    def test_rpr001_constraint_builder_exempt(self):
        src = "model.add_constr(x == 0.0)\nmodel.add_constraint(y == 1.0)\n"
        assert lint(src) == []

    def test_rpr001_signed_literal(self):
        assert "RPR001" in codes(lint("ok = x != -0.0\n"))

    def test_rpr002_scalar_annotated_param_exempt(self):
        src = (
            "class ConstraintBlock:\n"
            "    def __init__(self, name: str):\n"
            "        self.name = name\n"
        )
        assert lint(src) == []

    def test_rpr002_dataclass_without_post_init(self):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class Box:\n"
            "    lo: object\n"
        )
        assert "RPR002" in codes(lint(src, "src/repro/bounds/example.py"))

    @pytest.mark.parametrize("cls", ["BatchedBox", "BatchedLayerBounds"])
    def test_rpr002_covers_batched_containers(self, cls):
        # The batched (Q, n) stacks alias caller arrays just as silently
        # as the scalar containers the rule was written for.
        src = (
            f"class {cls}:\n"
            "    def __init__(self, lo):\n"
            "        self.lo = lo\n"
        )
        assert "RPR002" in codes(lint(src, "src/repro/bounds/example.py"))

    def test_rpr003_allowed_inside_milp(self):
        src = "from repro.milp.scipy_backend import ScipyBackend\n"
        assert lint(src, "src/repro/milp/session.py") == []

    def test_rpr004_from_import(self):
        assert "RPR004" in codes(lint("from time import time\n"))

    def test_rpr005_tuple_with_broad_member(self):
        src = "try:\n    risky()\nexcept (ValueError, Exception):\n    pass\n"
        assert "RPR005" in codes(lint(src))

    def test_rpr006_out_of_scope_path_exempt(self):
        src = "import numpy as np\n\nlo = np.float32(1.0)\n"
        assert lint(src, "src/repro/runtime/example.py") == []

    def test_rpr006_astype(self):
        src = "x = y.astype('float32')\n"
        assert "RPR006" in codes(lint(src, "src/repro/encoding/example.py"))


WAIVED = (
    "def f(x):\n"
    "    # repro-lint: ignore[RPR001] — structural exact-zero check, audited\n"
    "    return x == 0.0\n"
)


class TestWaivers:
    def test_round_trip_standalone_comment(self):
        assert lint(WAIVED) == []

    def test_round_trip_trailing_comment(self):
        src = (
            "def f(x):\n"
            "    return x == 0.0  # repro-lint: ignore[RPR001] — audited\n"
        )
        assert lint(src) == []

    def test_removing_the_waiver_reintroduces_the_diagnostic(self):
        # The acceptance property: a waiver-less hit makes lint non-zero.
        stripped = "\n".join(
            line for line in WAIVED.splitlines() if "repro-lint" not in line
        )
        assert "RPR001" in codes(lint(stripped))

    def test_waiver_without_reason_is_an_error(self):
        src = (
            "def f(x):\n"
            "    # repro-lint: ignore[RPR001]\n"
            "    return x == 0.0\n"
        )
        diags = lint(src)
        assert ENGINE_CODE in codes(diags)
        assert any("reason" in d.message for d in diags)

    def test_stale_waiver_is_an_error(self):
        src = "# repro-lint: ignore[RPR001] — nothing here to suppress\nx = 1\n"
        diags = lint(src)
        assert codes(diags) == [ENGINE_CODE]
        assert "stale" in diags[0].message

    def test_unknown_code_is_an_error(self):
        src = (
            "def f(x):\n"
            "    # repro-lint: ignore[RPR999] — no such rule\n"
            "    return x == 0.0\n"
        )
        diags = lint(src)
        assert ENGINE_CODE in codes(diags)
        assert any("unknown" in d.message for d in diags)

    def test_waiver_only_covers_its_own_line(self):
        src = (
            "def f(x):\n"
            "    # repro-lint: ignore[RPR001] — covers next line only\n"
            "    a = x == 0.0\n"
            "    b = x == 1.0\n"
            "    return a or b\n"
        )
        diags = lint(src)
        assert codes(diags) == ["RPR001"]
        assert diags[0].line == 4

    def test_docstring_mention_is_not_a_waiver(self):
        src = '"""Docs: use `# repro-lint: ignore[RPR001] — why` to waive."""\n'
        assert lint(src) == []

    def test_multi_code_waiver(self):
        src = (
            "import numpy as np\n"
            "# repro-lint: ignore[RPR001, RPR006] — fixture exercising both\n"
            "x = np.float32(1.0) == 0.0\n"
        )
        assert lint(src, "src/repro/bounds/example.py") == []


class TestSatelliteRegressions:
    """Reverting any satellite fix must make the lint exit non-zero."""

    def test_expr_waiver_is_load_bearing(self):
        with open("src/repro/milp/expr.py", encoding="utf-8") as handle:
            source = handle.read()
        reverted = "\n".join(
            line
            for line in source.splitlines()
            if "repro-lint: ignore[RPR001]" not in line
        )
        relpath = "src/repro/milp/expr.py"
        assert "RPR001" in codes(lint_source(reverted, relpath, relpath))

    def test_layerbounds_copy_fix_is_load_bearing(self):
        with open("src/repro/bounds/propagator.py", encoding="utf-8") as handle:
            source = handle.read()
        # Reverting the RPR002 satellite fix = deleting __post_init__.
        reverted = source.replace("def __post_init__", "def _disabled_post_init")
        relpath = "src/repro/bounds/propagator.py"
        assert "RPR002" in codes(lint_source(reverted, relpath, relpath))

    def test_batched_copy_guard_is_load_bearing(self):
        # Same revert probe for the batched containers: deleting their
        # defensive-copy __post_init__ must trip RPR002.
        with open("src/repro/bounds/batched.py", encoding="utf-8") as handle:
            source = handle.read()
        reverted = source.replace("def __post_init__", "def _disabled_post_init")
        relpath = "src/repro/bounds/batched.py"
        assert "RPR002" in codes(lint_source(reverted, relpath, relpath))

    def test_registry_fix_is_load_bearing(self):
        # The import shape tests use to patch solver internals.
        # Test paths now carry the relaxed profile (RPR003 exempt there),
        # so the property is asserted on a src path instead.
        src = "from repro.milp import scipy_backend\n"
        relpath = "src/repro/certify/example.py"
        assert "RPR003" in codes(lint_source(src, relpath, relpath))
        # ... and the relaxed test profile really is relaxed.
        test_relpath = "tests/milp/test_session.py"
        assert lint_source(src, test_relpath, test_relpath) == []

    def test_batch_waiver_is_load_bearing(self):
        with open("src/repro/runtime/batch.py", encoding="utf-8") as handle:
            source = handle.read()
        reverted = "\n".join(
            line
            for line in source.splitlines()
            if "repro-lint: ignore[RPR005]" not in line
        )
        relpath = "src/repro/runtime/batch.py"
        assert "RPR005" in codes(lint_source(reverted, relpath, relpath))


class TestMetaLint:
    def test_src_and_benchmarks_are_clean(self):
        # The CI gate, in-process: the shipped tree lints clean, and (by
        # the stale-waiver rule) every committed waiver suppresses at
        # least one diagnostic.
        assert lint_paths(["src", "benchmarks"]) == []

    def test_cli_exit_codes(self, tmp_path):
        clean = subprocess.run(
            [sys.executable, "-m", "tools.analysis", "src", "benchmarks"],
            capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1.0 == y\n")
        dirty = subprocess.run(
            [sys.executable, "-m", "tools.analysis", str(bad)],
            capture_output=True, text=True,
        )
        assert dirty.returncode == 1
        assert "RPR001" in dirty.stdout

    def test_cli_list_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.analysis", "--list-rules"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for rule in ALL_RULES:
            assert rule.CODE in result.stdout

    def test_syntax_error_reported_not_raised(self):
        diags = lint("def broken(:\n")
        assert codes(diags) == [ENGINE_CODE]
        assert "parse" in diags[0].message
