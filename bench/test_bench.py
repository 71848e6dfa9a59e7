"""Tests of the benchmark harness itself: ``python3 -m pytest bench``.

They check the metric catalogue against BENCHMARK.json, the tracer's
self-time arithmetic, the reference checks, the speed probe and its
scaling, and (on A2, in a few seconds) that two traced runs repeat every
deterministic counter exactly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import pytest

import run
import tracer


def test_catalogue_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(json.loads(run.REFERENCE.read_text())) == set(run.WORKLOADS) | set(run.SMOKE_WORKLOADS)


def test_self_time_is_span_minus_children():
    t = tracer.Tracer()

    def inner():
        return sum(range(20_000))

    inner = t.span("cohomology.cup", inner)

    def outer():
        return inner() + inner()

    outer = t.span("richardson.csm_richardson", outer)
    outer()
    outer()
    stats = t.span_stats()
    cup, rich = stats["cohomology.cup"], stats["richardson.csm_richardson"]
    assert cup["calls"] == 4 and rich["calls"] == 2
    assert cup["self_s"] == pytest.approx(cup["total_s"])
    assert rich["self_s"] == pytest.approx(rich["total_s"] - cup["total_s"])
    assert list(t.parent) == [-1, 0, 0, -1, 3, 3]


def test_meta_time_excludes_tables_and_suites_only():
    t = tracer.Tracer()
    suite = t.span("verify.run_suite", lambda: sum(range(50_000)))
    assoc = t.span("boxproduct.associativity_status", lambda: sum(range(50_000)))
    top = t.span("verify.run_verification", lambda: (suite(), assoc()))
    top()
    stats = t.span_stats()
    metrics = t.layer_metrics()
    expected = stats["verify.run_verification"]["total_s"] - stats["verify.run_suite"]["total_s"]
    assert metrics["verify.meta_s"] == pytest.approx(expected)
    assert metrics["verify.meta_s"] > stats["boxproduct.associativity_status"]["total_s"]


def test_spans_round_trip(tmp_path):
    t = tracer.Tracer()
    f = t.span("cache.load", lambda: None)
    f()
    f()
    path = tmp_path / "x.spans"
    t.write_spans(path)
    back = tracer.read_spans(path)
    assert back["names"] == ["cache.load"]
    assert list(back["parent"]) == [-1, -1]
    assert list(back["start"]) == list(t.start) and list(back["end"]) == list(t.end)


def test_report_digest_ignores_timings_only():
    report = {"exit_code": 0, "suites": {"conjB": {"instances": 4}}, "timings": {"total_s": 1.0}}
    same = dict(report, timings={"total_s": 2.0})
    other = dict(report, exit_code=1)
    assert run.report_digest(report) == run.report_digest(same)
    assert run.report_digest(report) != run.report_digest(other)


def test_reference_checks(tmp_path):
    ref = {"table_exit": 0, "verify_exit": 0,
           "table_checksums": {"csm": "a" * 64, "structure": "b" * 64}}
    out = f"csm table for A2: computed, checksum {'a' * 64}\n" \
          f"structure table for A2: computed, checksum {'b' * 64}\n"
    assert run.check_table(out, 0, ref) is None
    assert "exit code" in run.check_table(out, 3, ref)
    assert "cache hit" in run.check_table(out.replace("computed", "cache hit"), 0, ref)
    assert "differ" in run.check_table(out.replace("a" * 64, "c" * 64), 0, ref)

    report = {"options": {"table_checksums": ref["table_checksums"]}, "timings": {}}
    ref["report_sha256"] = run.report_digest(report)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert run.check_report(path, 0, ref) is None
    assert "exit code" in run.check_report(path, 1, ref)
    path.write_text(json.dumps(dict(report, exit_code=0)))
    assert "outside" in run.check_report(path, 0, ref)
    assert "no readable report" in run.check_report(tmp_path / "missing.json", 0, ref)


def test_spread_uses_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    med, q1, q3, rel = run.spread(values)
    want = statistics.quantiles(values, n=4)
    assert (q1, q3) == (want[0], want[2])
    assert rel == pytest.approx((want[2] - want[0]) / statistics.median(values))
    assert run.spread([2.0]) == (2.0, 2.0, 2.0, 0.0)


def test_traced_counters_repeat_exactly():
    w = run.SMOKE_WORKLOADS["a2-pairs"]
    ref = run.load_reference()[w.name]
    runs = [{"workload": w.name, "trace": 1, "result": run.run_once(w, ref, seed, 1.0, True)}
            for seed in (1, 2)]
    assert all(r["result"]["correct"] for r in runs)
    assert run.counter_mismatches(runs) == []
    metrics = runs[0]["result"]["metrics"]
    assert metrics["verify.instances"]["value"] > 0
    assert metrics["richardson.class_calls"]["value"] >= metrics["richardson.distinct_classes"]["value"] > 0


def test_scaled_times_use_the_probe_of_the_step_or_of_its_kind():
    fast = run.Step("verify", 10.0, 0.0, 0.0, probes=[0.0005] * run.MIN_PROBES)
    slow = run.Step("verify", 20.0, 0.0, 0.0, probes=[0.001] * run.MIN_PROBES)
    assert run.scaled_times([fast, slow]) == pytest.approx([20.0, 20.0])
    short = run.Step("table", 0.2, 0.0, 0.0, probes=[0.002])
    other = run.Step("table", 0.3, 0.0, 0.0, probes=[0.002] * 3)
    assert run.scaled_times([short, other]) == pytest.approx([0.1, 0.15])
    assert run.scaled_times([run.Step("table", 0.2, 0.0, 0.0)]) == [0.2]


def test_probe_runs_the_cli_and_records_samples(tmp_path):
    samples = tmp_path / "probes"
    args = ["table", "--type", "A", "--rank", "2", "--cache-dir", str(tmp_path / "cache")]
    done = subprocess.run([sys.executable, str(run.BENCH / "probe.py"), "--samples", str(samples),
                           "--", *args], capture_output=True, text=True, timeout=120)
    ref = run.load_reference()["a2-pairs"]
    assert run.check_table(done.stdout, done.returncode, ref) is None
    assert samples.exists()
    assert all(0 < float(x) < 1 for x in samples.read_text().split())
