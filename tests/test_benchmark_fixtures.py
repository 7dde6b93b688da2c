"""The benchmark suite's ``json_report`` fixture leaves other files alone.

``benchmarks/BENCH_*.json`` holds committed ``compare_bench`` baselines
next to the files a benchmark run writes.  Running one benchmark must
write its own JSON and leave every other one byte-identical.
"""

import shutil
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"

DUMMY_BENCH = '''
def test_dummy(json_report):
    json_report("dummy", {"value": 1})
'''


def test_json_report_keeps_other_bench_files(tmp_path):
    # A copy of the benchmark conftest writes next to itself, so the
    # run below touches tmp_path only.
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_dummy.py").write_text(DUMMY_BENCH)
    other = tmp_path / "BENCH_other.json"
    other.write_text('{"benchmark": "other", "speedup": 3.0}\n')
    before = other.read_bytes()

    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_dummy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )

    assert run.returncode == 0, run.stdout + run.stderr
    assert other.read_bytes() == before
    assert '"value": 1' in (tmp_path / "BENCH_dummy.json").read_text()
