"""Self-test of the benchmark: plans are seeded, the checker catches a
corrupted output, and the tracer's layer self times add up.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ncpart, cli = child.import_program()


def execute(requests: list[dict]):
    inputs = child.prepare(requests, ncpart)
    outputs = [child.execute(r, i, inputs, ncpart, cli) for i, r in enumerate(requests)]
    return inputs, outputs


def error_frac(requests: list[dict], outputs: list, failures: dict) -> float:
    """error_frac of a one-pass run, computed as run.py computes it."""
    one_pass = {
        "errors": {},
        "digests": [child.digest(out) for out in outputs],
        "check_failures": failures,
    }
    return sum(len(s) for s in run.failures([one_pass])) / len(requests)


def test_same_seed_same_requests_and_different_seeds_differ():
    for workload in plan.WORKLOADS:
        for seed in range(300):
            assert plan.make_plan(workload, seed)
    for workload in ("walk", "closed"):
        assert plan.make_plan(workload, 7) == plan.make_plan(workload, 7)
        assert plan.make_plan(workload, 7) != plan.make_plan(workload, 8)
    assert plan.make_plan("verify", 7) == plan.make_plan("verify", 8)


def test_walk_plan_shape():
    requests = plan.make_plan("walk", 3)
    assert len(requests) >= 100
    rows = [r for r in requests if r["kind"] != "map"]
    repeats = sum(r["repeat"] for r in rows)
    assert 0.2 <= repeats / len(rows) <= 0.3
    assert any(r["kind"] == "cli" for r in requests)
    assert sum(r["kind"] == "map" for r in requests) == 12


def test_walk_coefficient_bump_is_caught():
    requests = [
        r for r in plan.make_plan("walk", 5)
        if r["kind"] not in ("batch_distribution_rows", "map")
        and (r["args"][0] if r["kind"] != "cli" else r["n"]) <= 9
    ]
    kinds = {r["kind"] for r in requests}
    assert {"iter_nc", "distribution_rows", "joint_rows", "rep_joint_rows", "cli"} <= kinds
    inputs, outputs = execute(requests)
    assert checks.check("walk", requests, outputs, ncpart, inputs) == {}
    assert error_frac(requests, outputs, {}) == 0

    i = next(k for k, r in enumerate(requests) if r["kind"] == "distribution_rows")
    rows = list(outputs[i])
    rows[-1] = rows[-1] + 1
    outputs[i] = rows
    failures = checks.check("walk", requests, outputs, ncpart, inputs)
    assert set(failures) == {i}
    assert error_frac(requests, outputs, failures) > 0


def test_closed_coefficient_bump_is_caught():
    requests = [
        r for r in plan.make_plan("closed", 5)
        if r["kind"] in ("gf_1m", "gf_rho_1b", "gf_joint_1a_1b2", "gf_staircase_joint_rep",
                         "total_occurrences")
        and r["args"][-1 if r["kind"] != "gf_staircase_joint_rep" else -2] <= 18
    ]
    inputs, outputs = execute(requests)
    assert checks.check("closed", requests, outputs, ncpart, inputs) == {}

    series = ncpart.algebra.TruncatedSeries
    for kind in ("gf_joint_1a_1b2", "gf_staircase_joint_rep"):
        i = next(k for k, r in enumerate(requests) if r["kind"] == kind)
        coeffs = list(outputs[i].coeffs)
        coeffs[5] = coeffs[5] + 1
        bumped = list(outputs)
        bumped[i] = series(coeffs)
        failures = checks.check("closed", requests, bumped, ncpart, inputs)
        assert set(failures) == {i}
        assert error_frac(requests, bumped, failures) > 0
    i = next(k for k, r in enumerate(requests) if r["kind"] == "total_occurrences")
    bumped = list(outputs)
    bumped[i] = outputs[i] + 1
    assert set(checks.check("closed", requests, bumped, ncpart, inputs)) == {i}


def test_walk_corrupted_image_is_caught():
    requests = []
    for r in plan.make_plan("walk", 5):
        if r["kind"] == "map" and r["args"][2] == 8 and r["args"][:2] not in [q["args"][:2] for q in requests]:
            requests.append(r)
    assert len(requests) == 9
    inputs, outputs = execute(requests)
    assert checks.check("walk", requests, outputs, ncpart, inputs) == {}
    for i in range(len(requests)):
        images = list(outputs[i])
        images[0] = images[1]
        bumped = list(outputs)
        bumped[i] = images
        assert set(checks.check("walk", requests, bumped, ncpart, inputs)) == {i}


def test_verify_report_checks():
    requests = plan.make_plan("verify", 1)

    def report(cells: int, status: str = "pass") -> dict:
        body = {"status": status, "reports": [{"cells": [{}] * cells}]}
        return {"code": 0 if status == "pass" else 1, "stdout": json.dumps(body)}

    assert checks.check("verify", requests, [report(plan.VERIFY_CELLS)], ncpart, {}) == {}
    assert checks.check("verify", requests, [report(plan.VERIFY_CELLS - 1)], ncpart, {})
    assert checks.check("verify", requests, [report(plan.VERIFY_CELLS, "fail")], ncpart, {})


def test_layer_self_times_sum_to_wall_and_uninstall_restores():
    original = ncpart.formulas.series_sqrt
    trace = tracer.Tracer(ncpart)
    trace.install()
    try:
        assert ncpart.formulas.series_sqrt is not original
        start = time.perf_counter()
        trace.begin_request(0)
        ncpart.formulas.gf_1m(3, 14)
        ncpart.stats.distribution_rows(7, "112")
        trace.end_request()
        wall = time.perf_counter() - start
    finally:
        trace.uninstall()
    assert ncpart.formulas.series_sqrt is original
    layers = trace.metrics(wall)
    assert layers["algebra.series_sqrt.calls"] >= 1
    assert layers["stats.pairs"] == sum(plan.catalan(k) for k in range(8))
    own = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers["formulas.self_s"] > 0 and layers["stats.self_s"] > 0
    assert abs(own + layers["bench.self_s"] - wall) < 1e-9
    assert 0 <= layers["bench.self_s"] < 0.5 * wall

    layers.update(child.workload_counts("closed", [], [], []))
    layers["trace.overhead_frac"] = 0.0
    assert set(layers) == set(run.units("per_layer"))
    passes = [{"setup_s": 0.1, "wall_s": 1.0, "latencies": [0.5, 0.5], "peak_rss_mb": 20.0}]
    assert set(run.end_to_end(passes)) == set(run.units("end_to_end"))
