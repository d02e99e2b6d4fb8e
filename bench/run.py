"""The ncpart benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {walk,closed,verify} --seed N \\
        --seconds S --trace {0,1}

Load model: a closed loop with one client.  A *pass* sends the seeded plan
(see ``plan.py``) one request at a time in a fresh interpreter
(``child.py``), so the module caches start cold as they do for a CLI user;
passes run one at a time while another typical pass still ends within
``--seconds``, and at least ``MIN_PASSES`` of them.  ``NCPART_CACHE`` is removed from the children's
environment, except that each walk pass points it at a fresh empty
directory that is deleted after the pass.

With ``--trace 0`` every pass is untraced and the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the result holds the per-layer metrics of the traced passes and
the tracing overhead.  The first pass checks its outputs after its timed
region; every later pass must reproduce the first pass's output digests.
A request that raised, failed its check or changed its digest is counted
in ``failed``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name and unit, the environment and the output digest.  Details
of every pass are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from plan import WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

MIN_PASSES = 3
#: No pass starts once this much of a run has gone, so a run ends within
#: the 180 s a run may take even when one pass is slow.
RUN_LIMIT_S = 150.0
PASS_TIMEOUT_S = 170.0

class BenchError(Exception):
    pass


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in data[section]}


def run_pass(workload: str, plan: list[dict], tag: str, *, trace: bool, check: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NCPART_CACHE"}
    cache_dir = None
    if workload == "walk":
        cache_dir = OUT / f"{tag}.cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        env["NCPART_CACHE"] = str(cache_dir)
    job = {
        "workload": workload,
        "plan": plan,
        "check": check,
        "trace": trace,
        "spans_path": str(OUT / f"{tag}.spans.jsonl"),
        "cache_dir": None if cache_dir is None else str(cache_dir),
    }
    try:
        job["spawn_ns"] = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {tag} timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"pass {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(passes: list[dict]) -> list[set[int]]:
    """The failed request indices of each pass.  Only the first pass runs
    the checks; a later pass fails a request whose output differs from the
    first pass's, or that the first pass's check failed."""
    first = passes[0]
    checked = {int(i) for i in first.get("check_failures", {})}
    out = []
    for p in passes:
        failed = {int(i) for i in p["errors"]} | checked
        failed |= {i for i, (a, b) in enumerate(zip(p["digests"], first["digests"])) if a != b}
        out.append(failed)
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Set-up time and memory are medians over the passes.  On a shared host
    the machine's speed flips between a fast and a slow level many times a
    minute, and a median of a few values jumps between the two where a mean
    moves with the share of time spent at each.  So ``wall_s`` is the mean
    over the passes, and the latency percentiles are taken over the plan's
    requests, each at its mean latency across the passes."""
    median = statistics.median
    typical = [statistics.mean(lat) for lat in zip(*(p["latencies"] for p in passes))]
    return {
        "setup_s": median(p["setup_s"] for p in passes),
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "op_p50_s": quantile(typical, 50),
        "op_p90_s": quantile(typical, 90),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
        - 1.0
    )
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncpart" / "__init__.py").is_file():
        print(f"error: no ncpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    start_env = environment()
    plan = make_plan(args.workload, args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    durations: list[float] = []
    began = time.monotonic()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        t0 = time.monotonic()
        result = run_pass(args.workload, plan, f"{name}-pass{k}", trace=traced, check=k == 0)
        result["traced"] = traced
        passes.append(result)
        durations.append(time.monotonic() - t0)
        # Start another pass only if a typical pass ends within the run.
        elapsed = time.monotonic() - began
        enough = len(passes) >= (MIN_PASSES + 1 if args.trace else MIN_PASSES)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed + max(durations) > RUN_LIMIT_S:
            break

    failed_sets = failures(passes)
    attempted = len(plan) * len(passes)
    failed = sum(len(s) for s in failed_sets)
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if args.trace:
        if not traced_passes:
            raise BenchError("the run ended before a traced pass")
        metrics = per_layer(untraced, traced_passes)
        unit = units("per_layer")
    else:
        metrics = end_to_end(untraced)
        unit = units("end_to_end")
    run_digest = hashlib.sha256("".join(d or "-" for d in passes[0]["digests"]).encode()).hexdigest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"start": start_env, "end": environment()},
        "requests": len(plan),
        "passes": [
            {k: v for k, v in p.items() if k != "digests"} for p in passes
        ],
        "digests": passes[0]["digests"],
        "run_digest": run_digest,
        "failed": {str(k): sorted(s) for k, s in enumerate(failed_sets) if s},
        "check_failures": passes[0].get("check_failures", {}),
        "metrics": metrics,
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    end_env = record["environment"]["end"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(plan)} requests")
    print(f"python {start_env['python']} nproc {start_env['nproc']} "
          f"loadavg {start_env['loadavg'][0]:.2f} -> {end_env['loadavg'][0]:.2f}")
    print(f"output digest {run_digest}")
    print(f"error_frac {failed / attempted:.6f} ({failed} of {attempted} requests failed)")
    for why in list(record["check_failures"].items())[:5]:
        print(f"check failed: request {why[0]}: {why[1]}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
