"""Tests for the benchmark runner itself (not part of the package's suite).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import Yardstick, calculus_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _tiny(workload, trace, cwd=ROOT):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny", cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {tuple(line.split()[1:4:2]) for line in lines if line.startswith("metric ")}
    assert set(wanted.items()) <= printed
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def _copy_bench(dest: Path) -> None:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def test_altered_expected_digest_counts_as_failed(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    table = tmp_path / "bench" / "expected.json"
    expected = json.loads(table.read_text())
    expected["classify"]["5,2,K0,3"] = "0" * 16
    table.write_text(json.dumps(expected))
    lines, result = _tiny("sweep", 0, cwd=tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1
    frac = next(float(line.split()[2]) for line in lines if line.startswith("metric failed_frac "))
    assert frac > 0
    assert frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_calculus_inputs_follow_the_seed():
    assert calculus_inputs("full", 7) == calculus_inputs("full", 7)
    assert calculus_inputs("full", 7) != calculus_inputs("full", 8)
    for part in ("slopes", "paths", "lenses"):
        assert calculus_inputs("tiny", 1)[part] != calculus_inputs("tiny", 2)[part]


def test_fails_without_the_package(tmp_path):
    _copy_bench(tmp_path)
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_yardstick_scales_a_long_call_by_its_own_samples():
    yardstick = Yardstick()
    yardstick.samples = [0.002] * 30 + [0.001] * 30
    yardstick.sample_call = [1] * 30 + [-1] * 30
    # call 1 holds enough samples of its own; call 0 gets the overall speed
    assert yardstick.scales(2) == pytest.approx([0.06 / 0.09, 0.5])


def test_handler_time_counts_only_runs_inside_the_call():
    yardstick = Yardstick()
    yardstick.handler_runs = [(0.5, 0.1), (1.0, 0.2), (2.0, 0.3)]
    assert yardstick.handler_time(0, 0.9, 2.0) == pytest.approx(0.2)
    assert yardstick.handler_time(2, 0.0, 3.0) == pytest.approx(0.3)
