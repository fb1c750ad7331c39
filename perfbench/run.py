"""flatknots benchmark: one workload per call, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flatknots checkout; the library is imported from
``src``.  Every workload runs in a fresh interpreter (``workload.py``), so
no per-process memo carries over from an earlier run.

``--trace 0`` prints the end-to-end metrics.  Every time is scaled to a
nominal host speed by a reference block run between and during the
measured work (``calibrate.py``); the factor is printed on the report
line as ``host_scale`` (raw time = scaled time / host_scale).

* ``setup_s``: median wall time of SETUP_RUNS fresh interpreters that
  import flatknots and build the FR3 catalog; a reference block runs
  before and after each.
* ``ops_per_s``, ``p50_ms``, ``p95_ms``: over the ops of the timed loop.
  The gated tail is p95, not p99: on a shared 2-core VM, bursts of
  contention from other tenants slow runs of consecutive ops, and p99 of
  equiv-scrambled (ops of ~3 ms) spread by 24-39% across runs where p95
  spread by 18%, above the 25% a bound may allow.  p99 is printed on the
  report line and, from the untraced pass, as ``untraced.p99_ms``.
  ``tabulate6`` has one op per run, the whole ``tabulate 6`` command, so
  its ``p50_ms`` is the tabulation wall time.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process, read after the
  first 1000 ops of a closed loop (so it reflects memo growth per unit of
  work, not run length) or after the tabulation.

Ops that raise are counted in ``failed``; ``failed / attempted`` is the
fail ratio.  ``--trace 1`` runs the workload untraced, then traced over the
same ops, requires identical output digests, and prints the per-layer
metrics (see ``tracer.py``) and the tracing overhead.  Spans are written
to ``.perfbench/spans-<workload>.bin``.

Metric names and units are read from ``BENCHMARK.json``.  A failed
correctness gate prints the result with ``"correct": false`` and exits 1.
A checkout without ``src/flatknots`` exits 2 with no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import Calibrator
from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_RUNS = 11
SETUP_CODE = "import flatknots; flatknots.build_fr3_catalog()"
TIME_LIMIT_S = 175.0

class BenchError(Exception):
    """The benchmark could not produce a result."""


def _units() -> tuple[dict, dict]:
    """metric -> unit of the end-to-end and the per-layer metrics."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _env() -> dict:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "flatknots", "__init__.py")):
        raise BenchError(f"no flatknots package under {src}; run from a checkout root")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(env: dict, deadline: float) -> float:
    cal = Calibrator()
    times = []
    for _ in range(SETUP_RUNS):
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, timeout=_remaining(deadline),
        )
        times.append(time.perf_counter() - t0)
        cal.sample()
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times) * cal.scale()


def run_workload(env: dict, deadline: float, args, ops=None, trace_out=None) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=_remaining(deadline)
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def layer_metrics(names, untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    out = {name: layers.get(name, 0) for name in names}
    candidates = layers.get("catalog.candidates", 0)
    yields = layers.get("catalog.enumerate_diagrams.yields", 0)
    out["catalog.yield_ratio"] = yields / candidates if candidates else 0.0
    total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    listed_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.other_self_s"] = total_self - listed_self
    out["trace.untraced_s"] = untraced["wall_s"]
    out["trace.traced_s"] = traced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["inputs.class_reuse_share"] = untraced["class_reuse_share"]
    out["untraced.p99_ms"] = untraced["p99_ms"]
    out["untraced.host_scale"] = untraced["host_scale"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flatknots benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        end_to_end, per_layer = _units()
        env = _env()
        setup_s = None if args.trace else measure_setup(env, deadline)
        result = run_workload(env, deadline, args)
        errors = list(result["errors"])
        attempted, failed = result["ops"], result["failed"]
        if args.trace:
            os.makedirs(".perfbench", exist_ok=True)
            ops = None if args.workload == "tabulate6" else result["ops"]
            spans = os.path.join(".perfbench", f"spans-{args.workload}.bin")
            traced = run_workload(env, deadline, args, ops=ops, trace_out=spans)
            errors += traced["errors"]
            if traced["digest"] != result["digest"]:
                errors.append("traced run's output digest differs from the untraced run's")
            attempted, failed = traced["ops"], traced["failed"]
            metrics = layer_metrics(per_layer, result, traced)
            units = per_layer
        else:
            metrics = {name: result[name] for name in end_to_end if name != "setup_s"}
            metrics["setup_s"] = setup_s
            units = end_to_end
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} ops={result['ops']} "
        f"failed={result['failed']} fail_ratio={result['failed'] / result['ops']:.6g} "
        f"class_reuse_share={result['class_reuse_share']:.6g} p99_ms={result['p99_ms']:.6g} "
        f"host_scale={result['host_scale']:.6g} "
        f"digest={result['digest']}"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
