"""One benchmark workload in one fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        [--ops K] [--trace-out FILE]

Runs the timed closed loop (one client, next op after the previous one
returns), then, outside the timed region, checks every answer and digests
the outputs.  The last stdout line is a JSON summary.  Exit status 1 means
a correctness gate failed; the summary then lists the failures.

``run.py`` starts this script; it is not meant to be called by hand except
to debug one workload.  The library is imported from ``src`` under the
working directory, which must be the root of a flatknots checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from calibrate import Calibrator  # noqa: E402

WORKLOADS = ("tabulate6", "reduce-random", "equiv-scrambled")
MIN_OPS = 1000  # closed loops: at least ten samples beyond p99
# a run stops here even inside its seconds; digests.json covers every op
# up to this cap (about 4x and 2.4x the ops of a run at the seed commit)
MAX_OPS = {"reduce-random": 10000, "equiv-scrambled": 20000}
SEGMENT_OPS = 250  # ops per recorded output digest
RECORD_SEEDS = range(0, 21)  # seeds with recorded digests
GOLDEN_SEED = 0  # its first segment is re-checked when a seed has no record
OUT_DIR = ".perfbench"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _no_split(word) -> bool:
    return not any(
        inputs.is_split(word, a, b)
        for a in range(len(word))
        for b in range(a + 1, len(word))
    )


def _load_record() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# ops: each returns the raw result that the check phase inspects
# ---------------------------------------------------------------------------

def _reduce_op(fk, word):
    d = fk.GaussDiagram(word)
    minimal, trace = fk.monotone_reduce(d)
    verdict = fk.is_composite(d)
    return minimal, trace, verdict


def _equiv_op(fk, pair):
    w1, w2, _ = pair
    return fk.equivalent(fk.GaussDiagram(w1), fk.GaussDiagram(w2), with_certificate=True)


def _tabulate_op(path):
    from flatknots import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["tabulate", "6", "--out", path])
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# checks: (output lines, errors, minimal classes per op)
# ---------------------------------------------------------------------------

def _check_reduce(fk, word, result):
    minimal, trace, v = result
    d = fk.GaussDiagram(word)
    errors = []
    code = fk.serialize(d)
    if trace.start != fk.canonical_form(d):
        errors.append(f"{code}: trace starts at {trace.start}")
    try:
        end = fk.replay_trace(trace)
    except (fk.SiteMismatch, fk.TraceMismatch) as exc:
        errors.append(f"{code}: trace does not replay: {exc}")
    else:
        if inputs.class_key(end.word) != inputs.class_key(minimal.word):
            errors.append(f"{code}: trace ends elsewhere than the minimal diagram")
    if inputs.u_terms(minimal.word) != inputs.u_terms(word):
        errors.append(f"{code}: u-polynomial not kept by reduction")
    if not minimal.n <= d.n or v.minimal.n != minimal.n:
        errors.append(f"{code}: crossing numbers {minimal.n}, {v.minimal.n} for n={d.n}")
    if (v.verdict == "trivial") != (minimal.n == 0):
        errors.append(f"{code}: verdict {v.verdict} with cr={minimal.n}")
    if v.verdict == "composite" and (
        v.witness is None
        or not inputs.is_split(v.minimal.word, v.witness.gap_a, v.witness.gap_b)
    ):
        errors.append(f"{code}: composite verdict without a valid split")
    if v.verdict == "prime" and not _no_split(v.minimal.word):
        errors.append(f"{code}: prime verdict for a minimal diagram that splits")
    line = f"{code} -> {fk.serialize(minimal)} cr={minimal.n} {v.verdict}"
    if v.witness is not None:
        line += f" split={v.witness.gap_a},{v.witness.gap_b}"
    classes = (fk.minimal_class_code(minimal),)
    return [line, trace.to_json()], errors, classes


def _check_equiv(fk, pair, result):
    w1, w2, same = pair
    d1, d2 = fk.GaussDiagram(w1), fk.GaussDiagram(w2)
    verdict, cert = result
    errors = []
    label = f"{fk.serialize(d1)} ~ {fk.serialize(d2)}"
    if same and not verdict:
        errors.append(f"{label}: same-source pair judged inequivalent")
    if verdict and inputs.u_terms(w1) != inputs.u_terms(w2):
        errors.append(f"{label}: equivalent despite different u-polynomials")
    if verdict:
        if cert is None or cert.start != fk.canonical_form(d1) or cert.end != fk.canonical_form(d2):
            errors.append(f"{label}: certificate missing or not from d1 to d2")
        else:
            try:
                fk.replay_trace(cert)
            except (fk.SiteMismatch, fk.TraceMismatch) as exc:
                errors.append(f"{label}: certificate does not replay: {exc}")
    elif cert is not None:
        errors.append(f"{label}: certificate for an inequivalent pair")
    lines = [f"{label} {verdict}", cert.to_json() if cert is not None else "-"]
    classes = (fk.minimal_class_code(d1), fk.minimal_class_code(d2))
    return lines, errors, classes


def _check_tabulate(record, result, path):
    rc, stdout = result
    errors = []
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode()
    records = [line for line in text.splitlines()[1:] if line]
    orbits = [int(line.rsplit("orbit=", 1)[1]) for line in records]
    facts = {
        "exit_code": rc,
        "classes": len(records),
        "composite": sum(" verdict=C " in line for line in records),
        "largest_orbit": max(orbits, default=0),
        "catalog_sha256": hashlib.sha256(data).hexdigest(),
    }
    for key, got in facts.items():
        if got != record[key]:
            errors.append(f"tabulate 6: {key} is {got}, expected {record[key]}")
    if stdout != text:
        errors.append("tabulate 6: stdout differs from the catalog file")
    return facts["catalog_sha256"], errors


# ---------------------------------------------------------------------------
# timed loop and check phase
# ---------------------------------------------------------------------------

def _stream(workload: str, seed: int):
    if workload == "reduce-random":
        return inputs.reduce_random_inputs(seed), _reduce_op, _check_reduce
    return inputs.equiv_scrambled_inputs(seed), _equiv_op, _check_equiv


def closed_loop(fk, workload, seed, seconds, ops=None, clock=time.perf_counter):
    """Run ops back to back.  Stops after `ops` ops if given, else once
    `seconds` of op time have passed and at least MIN_OPS ops ran.
    Returns (items, results, latencies_s, rss_mb, failed)."""
    stream, op, _ = _stream(workload, seed)
    items, results, lat = [], [], []
    failed = 0
    busy = 0.0
    rss = None
    while True:
        if ops is not None:
            if len(items) >= ops:
                break
        elif (busy >= seconds and len(items) >= MIN_OPS) or len(items) >= MAX_OPS[workload]:
            break
        item = next(stream)
        t0 = clock()
        try:
            res = op(fk, item)
        except Exception:  # counted in fail_ratio, never hidden
            res = None
            failed += 1
        dt = clock() - t0
        busy += dt
        items.append(item)
        results.append(res)
        lat.append(dt)
        if len(items) == MIN_OPS:
            rss = _rss_mb()
    return items, results, lat, rss if rss is not None else _rss_mb(), failed


def check_closed_loop(fk, workload, seed, items, results):
    """Check every op; returns (digest of all output lines, digests of
    each whole SEGMENT_OPS segment, errors, class reuse share).  A
    segment holding an op that raised has no digest (None): that op is
    counted in fail_ratio, and the other segments are still compared."""
    _, _, check = _stream(workload, seed)
    lines, segment, segments, errors = [], [], [], []
    seg_failed = False
    seen: set[str] = set()
    repeats = 0
    for i, (item, res) in enumerate(zip(items, results)):
        if res is None:
            op_lines, seg_failed = ["failed"], True
        else:
            try:
                op_lines, op_errors, classes = check(fk, item, res)
            except Exception as exc:  # the library failed while checking an answer
                op_lines = []
                errors.append(f"op {i}: check raised {exc!r}")
            else:
                errors.extend(op_errors)
                if all(c in seen for c in classes):
                    repeats += 1
                seen.update(classes)
        lines.extend(op_lines)
        segment.extend(op_lines)
        if (i + 1) % SEGMENT_OPS == 0:
            segments.append(None if seg_failed else _digest(segment)[:16])
            segment, seg_failed = [], False
    return _digest(lines), segments, errors, repeats / max(len(items), 1)


def compare_segments(got, expected) -> list[str]:
    errors = []
    for k, (g, e) in enumerate(zip(got, expected)):
        if g is not None and g != e:
            ops = f"{k * SEGMENT_OPS}..{(k + 1) * SEGMENT_OPS - 1}"
            errors.append(f"digest of ops {ops} differs from the record")
    return errors


def _check_golden(fk, workload, expected) -> list[str]:
    items, results, _, _, _ = closed_loop(fk, workload, GOLDEN_SEED, 0, ops=SEGMENT_OPS)
    _, segments, errors, _ = check_closed_loop(fk, workload, GOLDEN_SEED, items, results)
    return errors + [
        f"seed {GOLDEN_SEED}: {err}" for err in compare_segments(segments, expected[:1])
    ]


def run(workload: str, seed: int, seconds: float, ops=None, trace_out=None) -> dict:
    import flatknots as fk

    record = _load_record()[workload]
    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # the traced run is not calibrated: reference blocks inside its spans
    # would be charged to the library's layers
    cal = Calibrator()
    with cal if tracer is None else contextlib.nullcontext():
        t_start = cal.clock()
        if workload == "tabulate6":
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"catalog6-{os.getpid()}.txt")
            try:
                result = _tabulate_op(path)
                failed = 0
            except Exception:
                result, failed = None, 1
            lat = [cal.clock() - t_start]
            rss = _rss_mb()
        else:
            items, results, lat, rss, failed = closed_loop(
                fk, workload, seed, seconds, ops, cal.clock
            )
        wall = cal.clock() - t_start
    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_out)
        layers = tracer.layer_stats()

    errors: list[str] = []
    reuse = 0.0
    if workload == "tabulate6":
        digest = None
        if result is not None:
            try:
                digest, errors = _check_tabulate(record, result, path)
            except Exception as exc:  # an unreadable catalog is a wrong answer
                errors = [f"tabulate 6: check raised {exc!r}"]
        if os.path.exists(path):
            os.unlink(path)
    else:
        digest, segments, errors, reuse = check_closed_loop(fk, workload, seed, items, results)
        expected = record.get(str(seed))
        try:
            if expected is not None:
                errors += compare_segments(segments, expected.split())
            else:
                errors += _check_golden(fk, workload, record[str(GOLDEN_SEED)].split())
        except Exception as exc:  # the library failed while re-running seed 0
            errors.append(f"golden check raised {exc!r}")

    scale = cal.scale()
    lat_sorted = sorted(lat)

    def percentile(q):  # nearest rank, scaled to the nominal host speed
        return lat_sorted[max(math.ceil(q * len(lat)) - 1, 0)] * 1e3 * scale

    return {
        "ops": len(lat),
        "failed": failed,
        "wall_s": wall,
        "host_scale": scale,
        "p50_ms": statistics.median(lat) * 1e3 * scale,
        "p95_ms": percentile(0.95),
        "p99_ms": percentile(0.99),
        "ops_per_s": len(lat) / (sum(lat) * scale),
        "peak_rss_mb": rss,
        "class_reuse_share": reuse,
        "digest": digest,
        "errors": errors,
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, help="run exactly this many ops")
    ap.add_argument("--trace-out", help="record spans and write them here")
    args = ap.parse_args(argv)
    summary = run(args.workload, args.seed, args.seconds, args.ops, args.trace_out)
    print(json.dumps(summary))
    return 1 if summary["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
