"""Self-test of the benchmark: tiny runs of all four workloads.

    python3 -m pytest bench -q

Every check passes at the tiny sizes, counts repeat exactly across two
traced runs, each workload's layer self-times sum to no more than its traced
wall time, and the tracer leaves andlab as it found it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench._import_andlab()

from tracer import LAYERS  # noqa: E402
from workloads import TINY  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TIME_UNITS = ("s", "ms")


def _exact(metrics):
    """The metrics that are counts, or ratios of counts."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in TIME_UNITS and not k.endswith(".share")
            and k != "trace.overhead"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_runs(name, tmp_path):
    runs = [bench.run(name, 3, 0, True, TINY[name], str(tmp_path)) for _ in range(2)]
    for r in runs:
        assert r["attempted"] > 0 and r["failed"] == 0
        metrics = r["traced"]["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
        layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        assert 0.0 < layer_self <= r["traced"]["wall_s"]
    assert _exact(runs[0]["traced"]["metrics"]) == _exact(runs[1]["traced"]["metrics"])
    assert runs[0]["digest"] == runs[1]["digest"]


def test_tracer_restores_andlab(tmp_path):
    from andlab import configs, msa, potential
    import numpy as np
    before = (configs.neighbors, msa.neighbors, potential.HaarHull.value, np.linalg.eigh)
    bench.run("dominated", 1, 0, True, TINY["dominated"], str(tmp_path))
    after = (configs.neighbors, msa.neighbors, potential.HaarHull.value, np.linalg.eigh)
    assert after == before


def test_result_line_at_default_seed():
    """The command prints the end-to-end metrics, and the default seed
    matches the stored reference digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dominated", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_refuses_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, with no result."""
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(bench.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "dominated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
