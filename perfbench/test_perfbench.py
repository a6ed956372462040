"""Self-tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qcollapse import hybrid  # noqa: E402

UNIT_RE = r"[A-Za-z0-9_/%.-]{1,16}"


def fake_clock(*times):
    return iter(times).__next__


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 6.5, 10.0))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    totals = tracer.summary()["spans"]
    assert totals["a"]["total_s"] == 10.0
    assert totals["a"]["self_s"] == pytest.approx(10.0 - 2.0 - 2.5)
    assert totals["b"]["self_s"] == 2.0 and totals["c"]["self_s"] == 2.5
    assert tracer.summary()["edges"] == {"a>b": 1, "a>c": 1}


def test_counters_are_kept_out_of_layer_times():
    tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 2.0, 5.0, 6.0))

    def after(t, args, kwargs, result):
        t.add("calls.seen")

    inner = tracer.traced(lambda: 7, "inner", after)
    outer = tracer.traced(inner, "outer")
    assert outer() == 7
    summary = tracer.summary()
    # outer 0..6 holds inner 1..2 and a counters span 2..5.
    assert summary["spans"]["outer"]["total_s"] == 3.0
    assert summary["spans"]["outer"]["self_s"] == 2.0
    assert summary["spans"][spans.COUNTERS_SPAN]["total_s"] == 3.0
    assert summary["counters"] == {"calls.seen": 1}


def test_errors_are_recorded_and_stack_unwinds():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.traced(boom, "boom")()
    assert tracer.summary()["spans"]["boom"]["errors"] == {"ValueError": 1}


def test_wrap_and_restore_put_originals_back():
    originals = [getattr(m, a) for m, a, _ in layers.WRAP_POINTS]
    tracer = spans.Tracer()
    layers.install(tracer)
    assert all(getattr(m, a) is not o for (m, a, _), o in zip(layers.WRAP_POINTS, originals))
    tracer.restore()
    assert all(getattr(m, a) is o for (m, a, _), o in zip(layers.WRAP_POINTS, originals))


def test_merge_adds_summaries():
    part = {"spans": {"x": {"calls": 2, "total_s": 1.0, "self_s": 0.5, "errors": {"E": 1}}},
            "edges": {"a>x": 2}, "counters": {"k": 3}, "maxima": {"m": 4}}
    total = spans.merge(spans.merge(spans.empty_summary(), part), part)
    assert total["spans"]["x"] == {"calls": 4, "total_s": 2.0, "self_s": 1.0, "errors": {"E": 2}}
    assert total["edges"] == {"a>x": 4} and total["counters"] == {"k": 6}
    assert total["maxima"] == {"m": 4}


# -- percentiles ------------------------------------------------------------


def test_percentiles_and_sample_counts():
    lat = report.latency_summary([float(x) for x in range(1, 101)])
    assert lat["n"] == 100
    assert lat["p50"] == pytest.approx(50.5) and lat["p50_beyond"] == 50
    assert lat["p90"] == pytest.approx(90.1) and lat["p90_beyond"] == 10


def test_percentiles_of_few_samples():
    lat = report.latency_summary([4.0])
    assert lat == {"n": 1, "p50": 4.0, "p50_beyond": 0, "p90": 4.0, "p90_beyond": 0}
    lat = report.latency_summary([3.0, 1.0, 2.0])
    assert lat["p50"] == 2.0 and lat["p90"] == pytest.approx(2.8) and lat["p90_beyond"] == 1
    with pytest.raises(ValueError):
        report.percentile([], 0.5)


def test_harrell_davis_quantiles():
    assert report.harrell_davis([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert report.harrell_davis([5.0], 0.9) == 5.0
    assert report.harrell_davis([float(x) for x in range(1, 12)], 0.5) == pytest.approx(6.0)
    # Close to the true quantile of a large uniform sample, and between the
    # order statistics a plain percentile would pick for a small one.
    assert report.harrell_davis([i / 1000 for i in range(1001)], 0.9) == pytest.approx(0.9, abs=1e-3)
    few = [float(x) for x in range(1, 21)]
    assert 17.0 < report.harrell_davis(few, 0.9) < 20.0
    with pytest.raises(ValueError):
        report.harrell_davis([], 0.9)


def test_latency_is_taken_per_world_and_combined_geometrically():
    # Two worlds alternating: world 0 takes 10 or 20 ms, world 1 100 times that.
    times = [(0.010, 1.0)] * 10 + [(0.020, 2.0)] * 10
    outcomes = [workloads.Outcome(t, True, "", "") for pair in times for t in pair]
    values, raw, latency = report.request_values(outcomes, [1.0] * 40, n_worlds=2)
    assert [lat["n"] for lat in latency["worlds"]] == [20, 20]
    assert [lat["p50"] for lat in latency["worlds"]] == pytest.approx([15.0, 1500.0])
    assert values["request_ms.p50"] == pytest.approx(150.0)
    # Relative to their world's median, requests take 2/3 or 4/3: pooled p90 is 4/3.
    assert latency["relative"]["n"] == 40 and latency["relative"]["p90_beyond"] == 0
    assert latency["relative"]["p90"] == pytest.approx(4 / 3)
    assert values["request_ms.p90"] == pytest.approx(150.0 * latency["relative"]["p90_hd"])
    assert 1.0 < latency["relative"]["p90_hd"] <= 4 / 3
    assert values["requests_per_s"] == pytest.approx(40 / 30.3)
    assert raw == values


def test_each_cli_process_is_a_latency_sample():
    # A request rerun after exit 3 gives two samples and counts once.
    outcomes = [workloads.Outcome(0.2, True, "", "", processes=(0.1, 0.1)),
                workloads.Outcome(0.1, True, "", "")]
    values, _, latency = report.request_values(outcomes, [1.0, 1.0], n_worlds=1)
    assert latency["worlds"][0]["n"] == 3
    assert values["request_ms.p50"] == pytest.approx(100.0)
    assert values["requests_per_s"] == pytest.approx(2 / 0.3)


def test_speed_factor_scales_each_request():
    # The second half of the run is twice as slow, and the reference says so.
    outcomes = [workloads.Outcome(t, True, "", "") for t in (0.1, 0.1, 0.2, 0.2)]
    values, raw, _ = report.request_values(outcomes, [1.0, 1.0, 0.5, 0.5], n_worlds=1)
    assert values["request_ms.p50"] == pytest.approx(100.0)
    assert values["requests_per_s"] == pytest.approx(10.0)
    assert raw["request_ms.p50"] == pytest.approx(150.0)
    assert raw["requests_per_s"] == pytest.approx(4 / 0.6)


# -- metric names -----------------------------------------------------------


def test_metric_names_are_valid():
    assert report.valid_name("request_ms.p50") and report.valid_name("cli.import_s")
    for bad in ("", ".hidden", "a b", "x/y", "p50%", "é", "a" * 65):
        assert not report.valid_name(bad), bad
    for name in [*report.END_TO_END, *layers.PER_LAYER_UNITS]:
        assert report.valid_name(name), name


def test_benchmark_json_matches_the_metrics_printed():
    import re

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(report.END_TO_END)
    for name, (unit, better) in report.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
        assert 0 < e2e[name]["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for unit in [*per_layer.values(), *(m["unit"] for m in e2e.values())]:
        assert re.fullmatch(UNIT_RE, unit), unit
    assert set(layers.layer_values(spans.empty_summary(), 1)) | {
        "cli.import_s", "cli.interpreter_s", "trace.overhead_pct"} == set(per_layer)


# -- failure counting -------------------------------------------------------


def first_hexmap_conflict(workload, seed):
    """Outcomes of the hexmap requests up to the first that failed."""
    hexmap = next(j for j, w in enumerate(workload.worlds) if w.label.startswith("hexmap"))
    n = len(workload.worlds)
    outcomes = []
    for index in range(hexmap, 200 * n, n):
        outcomes.append(workload.run(index, seed))
        if not outcomes[-1].ok:
            return index, outcomes
    raise AssertionError("no hexmap conflict in 200 instances")


def test_hexmap_conflict_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "HWFC_RESTARTS", 0)
    workload = workloads.hwfc_worlds()
    index, outcomes = first_hexmap_conflict(workload, seed=2)
    conflict = outcomes[-1]
    assert (conflict.ok, conflict.reason, conflict.gate_error) == (False, "RestartsExhaustedError", None)
    n = len(outcomes)
    values, _, latency = report.request_values(outcomes, [1.0] * n, n_worlds=1)
    assert values["ok_fraction"] == pytest.approx((n - 1) / n)
    seconds = sum(o.seconds for o in outcomes)
    assert values["requests_per_s"] == pytest.approx((n - 1) / seconds)
    assert latency["worlds"][0]["n"] == n


def test_hexmap_conflict_is_restarted_and_traced(monkeypatch):
    workload = workloads.hwfc_worlds()
    monkeypatch.setattr(workloads, "HWFC_RESTARTS", 0)
    index, _ = first_hexmap_conflict(workload, seed=2)
    monkeypatch.setattr(workloads, "HWFC_RESTARTS", 10)
    [outcome] = workload.trace([index], seed=2)
    assert outcome.ok
    values = layers.layer_values(workload.trace_summary(), 1)
    assert values["hybrid.conflicts"] >= 1


def test_validator_violation_counts_as_failed():
    workload = workloads.hwfc_worlds()
    world = workload.worlds[0]
    world.validator = lambda instance: ["forced violation"]
    outcome = workload.run(0, seed=1)
    assert (outcome.ok, outcome.reason, outcome.gate_error) == (False, "validator", None)


def cli_outcome(tmp_path, text):
    config = tmp_path / "case.yaml"
    config.write_text(text)
    workload = workloads.CliWorkload(ROOT, tmp_path)
    workload.worlds = [config]
    return workload.run(0, seed=1)


def test_cli_conflict_exit_counts_as_failed(tmp_path):
    outcome = cli_outcome(tmp_path, """
seed: 3
mode: qwfc
order: [2, 1]
topology: {type: grid2d, width: 2, height: 1}
alphabet: [a, b]
rules:
  - {value: a, pattern: {right: b, left: b}}
""")
    assert (outcome.ok, outcome.reason, outcome.gate_error) == (False, "exit 3", None)


def test_cli_conflict_exit_is_retried_with_the_next_seed(tmp_path, monkeypatch):
    seeds = []

    def fake_run(command, **kwargs):
        seeds.append(int(command[command.index("--seed") + 1]))
        if len(seeds) < 3:
            return subprocess.CompletedProcess(command, 3, "", "conflict\n")
        return subprocess.CompletedProcess(command, 0, "mode=hwfc validator_violations=0\n", "")

    monkeypatch.setattr(workloads.subprocess, "run", fake_run)
    workload = workloads.CliWorkload(ROOT, tmp_path)
    outcome = workload.run(4, seed=7)
    assert outcome.ok and len(outcome.latencies) == 3
    assert outcome.seconds == pytest.approx(sum(outcome.latencies))
    assert seeds == [workloads.request_seed(7, 4, attempt) for attempt in range(3)]
    assert seeds[0] == workloads.request_seed(7, 4)


def test_cli_undocumented_exit_fails_the_gate(tmp_path):
    outcome = cli_outcome(tmp_path, "seed: 1\n")
    assert (outcome.ok, outcome.reason) == (False, "exit 2")
    assert outcome.gate_error is not None


def test_cli_summary_with_violations_counts_as_failed(tmp_path):
    proc = subprocess.CompletedProcess([], 0, "mode=hwfc seed=1 validator_violations=2 wall_time=0.1s\n", "")
    outcome = workloads.CliWorkload.check(0, "x", proc, tmp_path / "none", 0.1)
    assert (outcome.ok, outcome.reason, outcome.gate_error) == (False, "validator", None)


# -- digests ----------------------------------------------------------------


def test_request_outputs_repeat_and_depend_on_the_seed():
    workload = workloads.qwfc_exact()
    first = [workload.run(i, seed=5).digest for i in range(len(workload.worlds))]
    again = [workload.run(i, seed=5).digest for i in range(len(workload.worlds))]
    other = [workload.run(i, seed=6).digest for i in range(len(workload.worlds))]
    assert first == again
    assert first != other


def test_stored_digest_mismatch_is_reported(tmp_path):
    assert report.check_stored_digest(tmp_path, "w|1|code", "aa") is None
    assert report.check_stored_digest(tmp_path, "w|1|code", "aa") is None
    assert report.check_stored_digest(tmp_path, "w|1|code", "bb") is not None
    assert report.check_stored_digest(tmp_path, "w|2|code", "bb") is None


def test_hwfc_is_traced_where_hybrid_looks_it_up():
    workload = workloads.hwfc_worlds()
    original = hybrid.build_circuit
    workload.trace(range(len(workload.worlds)), seed=1)
    assert hybrid.build_circuit is original
    values = layers.layer_values(workload.trace_summary(), len(workload.worlds))
    blocks = [len(w.partitioning.blocks) for w in workload.worlds]
    assert values["hybrid.blocks_per_instance"] <= sum(blocks) / len(blocks)
    assert values["quantum.build_circuit.calls"] > 0
    assert values["usecases.validator.time_s"] > 0
    assert values["classic.cwfc_generate.time_s"] == 0


# -- known defects --------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="cwfc's minimum-entropy order places upper voxels "
                   "before the ones below, and the voxel rules only look down")
def test_cwfc_voxel_skyline_breaks_its_validator():
    # Why cwfc-worlds has no voxel world.  When this passes, put one back.
    from qcollapse.usecases import voxel_skyline_usecase

    workload = workloads.InProcessWorkload(
        [workloads.World("voxels-6x6x6", voxel_skyline_usecase(6, 6, 6))],
        workloads.cwfc_request,
    )
    outcomes = [workload.run(i, seed=1) for i in range(4)]
    assert [o.reason for o in outcomes] == [""] * 4
