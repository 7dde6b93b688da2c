"""Shared fixtures for the benchmark suite.

Every benchmark prints the table/figure rows it regenerates (run pytest
with ``-s`` to see them inline; they are also appended to
``benchmarks/results.txt``) and dumps a machine-readable
``BENCH_<name>.json`` (timings + problem sizes) next to it, so the
performance trajectory can be tracked across PRs.  Set
``REPRO_BENCH_FULL=1`` to run the slow variants (larger Table I rows,
longer simulations).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

RESULTS_PATH = Path(__file__).parent / "results.txt"
BENCH_DIR = Path(__file__).parent


def full_mode() -> bool:
    """Whether the slow benchmark variants are enabled."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def _jsonable(value):
    """Fallback encoder: numpy scalars/arrays to plain Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def write_bench_json(name: str, payload: dict) -> Path:
    """Write (or merge into) ``benchmarks/BENCH_<name>.json``.

    Merging lets one bench module report several test functions into a
    single file.  Also callable from the standalone ``--smoke`` mains,
    outside pytest.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            pass  # stale/corrupt file: overwrite
    # Fresh metadata wins over whatever a stale file claims.
    data.update({"benchmark": name, "full_mode": full_mode()})
    data.update(payload)
    path.write_text(json.dumps(data, indent=2, default=_jsonable) + "\n")
    return path


@pytest.fixture(scope="session")
def report():
    """Callable that prints a block and appends it to results.txt."""
    RESULTS_PATH.write_text("")

    def emit(block: str) -> None:
        print("\n" + block)
        with RESULTS_PATH.open("a") as fh:
            fh.write(block + "\n\n")

    return emit


@pytest.fixture(scope="session")
def json_report():
    """Callable ``(name, payload) -> Path`` writing ``BENCH_<name>.json``.

    Each call merges into the named file (see :func:`write_bench_json`);
    the JSON files of benchmarks that did not run are left untouched, so
    a run never removes the committed ``compare_bench`` baselines.
    """
    return write_bench_json
