"""One measured pass, run in a fresh interpreter.

Reads a JSON job from stdin, imports ``ncpart`` from the checkout's ``src``,
sends the plan's requests one at a time (a closed loop with one client),
and prints one JSON result line.  Checks and digests run after the timed
region.  ``run.py`` starts this script once per pass.

Job keys: ``workload``, ``plan``, ``spawn_ns`` (the parent's
``time.monotonic_ns()`` just before it started this process), ``check``
(run the output checks), ``trace`` (record spans), ``spans_path`` (where
spans are written when tracing), ``cache_dir`` (the ``NCPART_CACHE``
directory of a walk pass, listed around each CLI request when tracing).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ncpart from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ncpart
    from ncpart import cli

    origin = Path(ncpart.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ncpart came from {origin}, not from {SRC}")
    return ncpart, cli


def prepare(plan: list[dict], ncpart) -> dict:
    """Inputs the requests need that are made before timing starts: the
    partitions each bijection sweep maps, in its seeded order."""
    sweeps: dict[int, list] = {}
    inputs = {}
    for i, req in enumerate(plan):
        if req["kind"] != "map":
            continue
        n = req["args"][2]
        if n not in sweeps:
            sweeps[n] = list(ncpart.core.iter_nc(n))
        parts = list(sweeps[n])
        random.Random(req["order_seed"]).shuffle(parts)
        inputs[i] = parts
    return inputs


def execute(req: dict, index: int, inputs: dict, ncpart, cli):
    """Send one request; return its output, fully consumed."""
    kind, args = req["kind"], req["args"]
    if kind == "iter_nc":
        return list(ncpart.core.iter_nc(args[0]))
    if kind in ("distribution_rows", "batch_distribution_rows", "joint_rows", "rep_joint_rows"):
        return getattr(ncpart.stats, kind)(*args)
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.entry(list(args[0]))
        return {"code": code, "stdout": out.getvalue()}
    if kind == "map":
        name, params, _ = args
        fn = getattr(ncpart.bijections, name)
        return [fn(pi, *params) for pi in inputs[index]]
    if kind == "total_occurrences":
        return ncpart.formulas.total_occurrences(args[0], args[1])
    if kind == "staircase_series_by_recurrence":
        return ncpart.recurrence.staircase_series_by_recurrence(*args)
    if kind == "gf_staircase_joint_rep":
        m, a, order, v = args
        return ncpart.formulas.gf_staircase_joint_rep(m, a, order, Fraction(v))
    if kind.startswith("gf_"):
        return getattr(ncpart.formulas, kind)(*args)
    raise ValueError(f"unknown request kind {kind!r}")


def canonical(output) -> object:
    """A JSON form of an output that two commits can compare byte for byte."""
    if isinstance(output, (dict, int, str)):
        return output
    if hasattr(output, "to_json_obj"):
        return output.to_json_obj()
    if isinstance(output, list):
        return [canonical(item) for item in output]
    if hasattr(output, "letters"):
        return list(output.letters)
    raise TypeError(f"no canonical form for {type(output).__name__}")


def digest(output) -> str:
    blob = json.dumps(canonical(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def count_files(root: str) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


def run_pass(job: dict) -> dict:
    ncpart, cli = import_program()
    cli.build_parser()
    plan = job["plan"]
    inputs = prepare(plan, ncpart)
    trace = None
    if job["trace"]:
        import tracer

        trace = tracer.Tracer(ncpart)
        trace.install()
    setup_s = (time.monotonic_ns() - job["spawn_ns"]) / 1e9

    cache_dir = job.get("cache_dir")
    listing = trace is not None and cache_dir is not None
    outputs: list = []
    latencies: list[float] = []
    errors: dict[int, str] = {}
    disk: list[tuple[int, float]] = []
    start = time.perf_counter()
    for i, req in enumerate(plan):
        before = count_files(cache_dir) if listing and req["kind"] == "cli" else None
        if trace is not None:
            trace.begin_request(i)
        t0 = time.perf_counter()
        try:
            out = execute(req, i, inputs, ncpart, cli)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if trace is not None:
            trace.end_request()
        if before is not None:
            disk.append((count_files(cache_dir) - before, latencies[-1]))
        outputs.append(out)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "peak_rss_mb": rss_mb,
        "errors": errors,
        "digests": [None if i in errors else digest(out) for i, out in enumerate(outputs)],
    }
    if trace is not None:
        trace.uninstall()
        layers = trace.metrics(wall_s)
        layers.update(workload_counts(job["workload"], plan, outputs, disk))
        result["layers"] = layers
        trace.write(job["spans_path"])
    if job["check"]:
        import checks

        result["check_failures"] = {
            i: why
            for i, why in checks.check(job["workload"], plan, outputs, ncpart, inputs).items()
            if i not in errors
        }
    return result


def workload_counts(workload: str, plan: list[dict], outputs: list, disk: list) -> dict:
    """Per-layer numbers the benchmark reads off its own requests."""
    cells = 0
    if workload == "verify":
        for out in outputs:
            if out is not None:
                report = json.loads(out["stdout"])
                cells += sum(len(r["cells"]) for r in report["reports"])
    writes = sum(w for w, _ in disk)
    cli_rows = [req for req in plan if req["kind"] == "cli" and "n" in req]
    hits = sum(req["n"] + 1 for req in cli_rows) - writes if disk else 0
    return {
        "cli.verify.cells": cells,
        "cli.disk_cache.writes": writes,
        "cli.disk_cache.hits": hits,
        "cli.disk_cache.hit_s": sum(s for w, s in disk if w == 0),
        "cli.disk_cache.miss_s": sum(s for w, s in disk if w > 0),
    }


def main() -> int:
    job = json.loads(sys.stdin.read())
    real_stdout = sys.stdout
    with contextlib.redirect_stdout(io.StringIO()):
        result = run_pass(job)
    real_stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
