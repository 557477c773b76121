"""The benchmark's small traced round runs against the package in this tree.

``bench/`` calls into the package (``cli.build_detector``, ``DetectorGrid``,
the reference detectors' one-threshold wrappers and their row shapes, the
``pnc.TraceRow`` fields), so a change there that breaks the benchmark fails
here rather than only when the benchmark runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["demo_grid", "long_stream", "model_fit"])
def test_small_traced_benchmark_round_is_correct(tmp_path, workload):
    # a copy, so the round's work directory and caches stay out of the tree
    for part in ("src", "bench", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    # bench/run.py puts the copy's src first on the workers' path
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", "1", "--small"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, out.stdout
    assert last["failed"] == 0, out.stdout
