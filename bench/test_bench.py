"""Tests of the benchmark itself: its gates, its tracer and its contract.

    python3 -m pytest bench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent


# -- gates --------------------------------------------------------------------


@pytest.fixture(scope="module")
def pf7_lines():
    """All parking functions of length 7 in lexicographic order, built
    without the package: sorted letters v_(i) <= i."""
    return ["".join(map(str, w))
            for w in itertools.product(range(1, 8), repeat=7)
            if all(v <= i for i, v in enumerate(sorted(w), 1))]


def verify_report(flip=None):
    results = [{"suite": "s", "check": f"c{i}", "ok": i != flip}
               for i in range(workloads.VERIFY_CHECKS)]
    return json.dumps({"schema": "parkhopf/1", "ok": flip is None,
                       "max_n": 7, "results": results}, indent=2)


def kernels_output(**override):
    values = {"primitive_dimension": "132",
              "tridendriform_span_dimension": "197",
              "count_normal_forms": "20793",
              "super_narayana_count": "42 + 84q + t",
              "super_narayana_sym": "42 + 84q + t", **override}
    return "".join(json.dumps({"call": name, "value": value}) + "\n"
                   for name, value in values.items())


def test_enumerate_gate(pf7_lines):
    assert len(pf7_lines) == 8 ** 6
    good = "\n".join(pf7_lines) + "\n"
    assert workloads.gate_enumerate(good) == []
    dropped = pf7_lines[:1000] + pf7_lines[1001:]
    assert workloads.gate_enumerate("\n".join(dropped) + "\n")
    swapped = list(pf7_lines)
    swapped[5], swapped[6] = swapped[6], swapped[5]
    assert workloads.gate_enumerate("\n".join(swapped) + "\n")
    not_parking = pf7_lines[:-1] + ["7777777"]
    assert workloads.gate_enumerate("\n".join(not_parking) + "\n")


def test_verify_gate():
    assert workloads.gate_verify(verify_report()) == []
    assert workloads.gate_verify(verify_report(flip=3))
    report = json.loads(verify_report())
    report["ok"] = False
    assert workloads.gate_verify(json.dumps(report))
    report = json.loads(verify_report())
    report["results"].pop()
    assert workloads.gate_verify(json.dumps(report))
    assert workloads.gate_verify("not json")


def test_kernels_gate():
    assert workloads.gate_kernels(kernels_output()) == []
    assert workloads.gate_kernels(kernels_output(count_normal_forms="20792"))
    assert workloads.gate_kernels(kernels_output(primitive_dimension="131"))
    assert workloads.gate_kernels(kernels_output(super_narayana_sym="42"))


def test_exit_code_and_stderr_fail_a_run():
    out = kernels_output().encode()
    assert workloads.check("kernels", 0, out, b"") == []
    assert workloads.check("kernels", 1, out, b"")
    assert workloads.check("kernels", 0, out, b"Traceback ...")
    assert workloads.check("setup", 0, b"", b"") == []
    assert workloads.check("setup", 0, b"stray output", b"")


def test_failed_run_counts_in_ok_ratio():
    good = {"errors": [], "wall_s": 1.0, "cpu_s": 1.0, "first_output_s": 1.0,
            "peak_rss_mb": 10.0, "setup_s": 0.1,
            "burst_s": run.REFERENCE_BURST_S,
            "first_output_burst_s": run.REFERENCE_BURST_S}
    bad = dict(good, errors=["line 3 does not increase"], wall_s=9.0)
    values = run.e2e_metrics([good, bad, good, good], [])
    assert values["ok_ratio"] == 0.75
    assert values["wall_s"] == 1.0


def test_times_are_scaled_to_the_reference_speed():
    sample = {"errors": [], "wall_s": 3.0, "cpu_s": 2.0,
              "first_output_s": 1.0, "peak_rss_mb": 10.0, "setup_s": 0.3,
              "burst_s": 2 * run.REFERENCE_BURST_S,
              "first_output_burst_s": run.REFERENCE_BURST_S}
    values = run.e2e_metrics([sample], [])
    slower = 2 ** run.SPEED_EXPONENT
    assert values["wall_s"] == pytest.approx(3.0 / slower)
    assert values["cpu_s"] == pytest.approx(2.0 / slower)
    assert values["first_output_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.3 / slower)
    assert values["peak_rss_mb"] == 10.0


# -- the real program ---------------------------------------------------------


def test_two_traced_runs_give_identical_counters():
    env = run.child_env(0)
    first, second = (run.spawn("enumerate", True, f"test-{i}", env)
                     for i in range(2))
    assert first["errors"] == [] and second["errors"] == []
    for key in ("counters", "calls", "spans"):
        assert first["trace"][key] == second["trace"][key]
    values, errors = run.layer_metrics([first], [first, second])
    assert errors == []
    assert values["combinat.items"] == 8 ** 6 + 429
    assert values["cli.stdout_bytes"] == 8 ** 7


def test_untraced_run_passes_its_gate():
    sample = run.spawn("enumerate", False, "test", run.child_env(0))
    assert sample["errors"] == []
    assert 0 < sample["setup_s"] < sample["first_output_s"] <= sample["wall_s"]
    assert sample["trace"] is None


# -- the contract -------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
