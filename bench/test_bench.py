"""Tests of the benchmark's own logic: digests, self times, percentiles, metric names."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
from checks import Result
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent


def _orbit_results(outputs: list[str]) -> list[Result]:
    return [
        Result(Op("orbit", 0, pos, ("orbit", "f.fc", "--start", f"x{pos}"), 0, f"x{pos}"), 0, out, 0.001)
        for pos, out in enumerate(outputs)
    ]


def test_altered_output_trips_the_digest_and_counts_as_failed():
    outputs = ["start: x0\ndepth: 0\n", "start: x1\ndepth: 1\n"]
    pinned = {"orbit": [checks.digest(outputs)]}

    good = _orbit_results(outputs)
    checks.check_digests(good, pinned)
    assert [r.failure for r in good] == [None, None]

    bad = _orbit_results([outputs[0], outputs[1].replace("depth: 1", "depth: 2")])
    checks.check_digests(bad, pinned)
    failed = sum(1 for r in bad if r.failure)
    assert failed == 2  # the whole bucket is suspect
    assert failed / len(bad) > 0  # fail_ratio rises


def test_digest_ignores_execution_order_within_a_bucket():
    results = _orbit_results(["a\n", "b\n", "c\n"])
    assert checks.bucket_digests(results) == checks.bucket_digests(results[::-1])


def test_violation_and_nonzero_exit_fail():
    verify = Result(Op("verify", 0, 0, ("verify", "f.fc"), 0), 0, "x: VIOLATION  (d)\n", 0.1)
    crashed = Result(Op("classify", 0, 0, ("classify", "f.fc"), 0), 1, "", 0.1)
    checks.check_outputs([verify, crashed], expected={})
    assert verify.failure == "theorem VIOLATION"
    assert crashed.failure.startswith("exit code 1")


def test_gallery_expectation_and_oracle_checks():
    classify = Result(Op("classify", 0, 0, ("classify", "f.fc"), 0), 0, "regular: true\nrecurrent: false  [r: x]\n", 0.1)
    checks.check_outputs([classify], expected={"regular": False})
    assert "regular" in classify.failure

    out = "start: x\ndirection: both\ndepth: 1\nself_readded: false\n  s  (round 1)\n  x  (seed)\n"
    orbit = _orbit_results([out])
    checks.check_outputs(orbit, {}, oracle=lambda op: (frozenset({"x", "s"}), False))
    assert orbit[0].failure is None
    orbit = _orbit_results([out])
    checks.check_outputs(orbit, {}, oracle=lambda op: (frozenset({"x"}), False))
    assert "naive oracle" in orbit[0].failure


def test_self_time_is_span_minus_children():
    # root 0..10 with children 1..4 and 5..9; the second child has a child 6..8
    spans = [
        ["cli.classify", 0.0, 10.0, -1],
        ["model.validate", 1.0, 4.0, 0],
        ["classify.ext", 5.0, 9.0, 0],
        ["orbits.extended_orbit", 6.0, 8.0, 2],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {
        "cli.classify": 3.0,
        "model.validate": 3.0,
        "classify.ext": 2.0,
        "orbits.extended_orbit": 2.0,
    }
    assert sum(selfs.values()) == 10.0  # self times add up to the root span
    assert tracing.self_times(spans, lo=2, hi=4) == {"classify.ext": 2.0, "orbits.extended_orbit": 2.0}


def test_cache_hit_ratio_counts_calls_that_skip_the_engine():
    spans = [
        ["classify.ext", 0.0, 3.0, -1],
        ["orbits.extended_orbit", 1.0, 2.0, 0],
        ["classify.ext", 3.0, 3.5, -1],
        ["classify.ext", 4.0, 4.5, -1],
    ]
    m = tracing.layer_metrics(spans, Counter())
    assert m["classify.ext.calls"] == 3
    assert m["classify.ext.hit_ratio"] == pytest.approx(2 / 3)


def test_percentiles_state_their_sample_count():
    samples = [float(i) for i in range(1, 101)]
    summary = checks.latency_summary(samples)
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    with pytest.raises(ValueError, match="99 samples"):
        checks.latency_summary(samples[:99])  # p90 would have fewer than ten beyond it


def test_speed_scales_by_the_samples_around_a_call_and_drops_their_time():
    sp = speed.Speed()
    ref = speed.REF_SECONDS
    sp.at = [0.0, 1.0, 1.05, 2.0]
    sp.took = [ref, 2 * ref, 4 * ref, 8 * ref]
    # a call over 0.98..1.08 holds the samples at 1.0 and 1.05; the one at 0.0
    # and the one at 2.0 are more than PAD away
    assert sp.scale(0.98, 0.1) == pytest.approx((0.1 - 6 * ref) / 3)
    # a call between samples is scaled by those within PAD of it
    assert sp.scale(1.9, 0.05) == pytest.approx(0.05 / 8)


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = [*tracing.layer_metrics([], Counter())]
    layer_names.remove("trace.self_sum_s")
    expected = [
        "workload.ids",
        "workload.bytes",
        *layer_names,
        "trace.overhead_ratio",
        "trace.self_sum_ratio",
        "memory.tracemalloc_peak_mb",
        "scaling.classify_exponent",
    ]
    assert [m["name"] for m in spec["per_layer"]] == expected
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
