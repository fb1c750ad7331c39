"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Run from the root of a flatknots checkout.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import workload  # noqa: E402
from flatknots import GaussDiagram, enumerate_decreasing, u_polynomial  # noqa: E402
from flatknots.diagram import canonical_word  # noqa: E402

STREAMS = (inputs.reduce_random_inputs, inputs.equiv_scrambled_inputs)


def _take(stream, k):
    return list(itertools.islice(stream, k))


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in STREAMS:
        assert _take(make(7), 40) == _take(make(7), 40)
        assert _take(make(7), 40) != _take(make(8), 40)


def test_reduce_inputs_are_distinct_and_in_range():
    words = _take(inputs.reduce_random_inputs(3), 300)
    assert len({canonical_word(w) for w in words}) == len(words)
    lo, hi = inputs.REDUCE_N
    assert all(lo <= len(w) // 2 <= hi for w in words)


def test_every_insertion_is_a_reported_decreasing_site():
    checked = 0
    for seed in range(150):
        rng = random.Random(seed)
        base = inputs.random_word(rng, rng.randint(0, 6))
        for word, positions in inputs.grow_steps(rng, base, 14):
            sites = enumerate_decreasing(GaussDiagram(word))
            assert any(set(m.positions) == set(positions) for m in sites), (word, positions)
            checked += 1
    assert checked > 1000


def test_own_helpers_agree_with_the_library():
    rng = random.Random(11)
    for _ in range(400):
        word = inputs.random_word(rng, rng.randint(0, 9))
        assert inputs.u_terms(word) == u_polynomial(GaussDiagram(word)).terms
        rotated = word[3:] + word[:3] if word else word
        assert inputs.class_key(rotated) == inputs.class_key(word)
    keys = {}
    for _ in range(2000):
        word = inputs.random_word(rng, 4)
        keys.setdefault(inputs.class_key(word), set()).add(canonical_word(word))
    assert all(len(v) == 1 for v in keys.values())
    assert len({next(iter(v)) for v in keys.values()}) == len(keys)


def _workload(tmp_path, name, trace):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", "5", "--seconds", "0", "--ops", "40"]
    if trace:
        cmd += ["--trace-out", str(tmp_path / f"{name}.bin")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_gives_the_untraced_digests(tmp_path):
    for name in ("reduce-random", "equiv-scrambled"):
        plain = _workload(tmp_path, name, trace=False)
        traced = _workload(tmp_path, name, trace=True)
        assert plain["errors"] == [] and traced["errors"] == []
        assert plain["digest"] == traced["digest"]
        layers = traced["layers"]
        assert layers["trace.spans"] > 0
        assert layers["reduce.orbit_nodes"] == layers["moves.enumerate_fr3.calls"]
        if name == "reduce-random":
            assert layers["reduce.monotone_reduce.calls"] == 40
            assert layers["compose.is_composite.calls"] == 40
        else:
            assert layers["reduce.equivalent.calls"] == 40


def test_tracer_self_times_add_up_and_uninstall_restores():
    import flatknots
    from flatknots import reduce
    from tracer import Tracer

    before = (flatknots.monotone_reduce, reduce.canonical_word, reduce.mv.enumerate_fr3)
    tracer = Tracer()
    tracer.install()
    assert reduce.canonical_word is not before[1]
    flatknots.monotone_reduce(GaussDiagram((1, 2, -1, 3, -2, -3, 4, -4)))
    tracer.uninstall()
    assert (flatknots.monotone_reduce, reduce.canonical_word, reduce.mv.enumerate_fr3) == before
    stats = tracer.layer_stats()
    roots = sum(
        tracer.ends[i] - tracer.starts[i]
        for i in range(len(tracer.starts))
        if tracer.parents[i] == -1
    )
    total_self = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert abs(total_self - roots) < 1e-9
    assert stats["reduce.monotone_reduce.calls"] == 1
    assert stats["moves.apply.calls.fr1-remove"] >= 1


def test_calibrator_samples_during_work_and_its_clock_skips_the_samples():
    from calibrate import INTERVAL_S, Calibrator

    cal = Calibrator()
    with cal:
        t0, c0 = time.perf_counter(), cal.clock()
        while time.perf_counter() - t0 < 5 * INTERVAL_S:
            pass
        wall, busy = time.perf_counter() - t0, cal.clock() - c0
    assert len(cal.blocks) >= 3
    assert abs((wall - busy) - cal.spent) < 1e-3
    assert cal.scale() > 0


def test_record_covers_every_op_up_to_the_cap():
    record = workload._load_record()
    for name, cap in workload.MAX_OPS.items():
        assert set(record[name]) == {str(seed) for seed in workload.RECORD_SEEDS}
        assert all(len(v.split()) == cap // workload.SEGMENT_OPS for v in record[name].values())


def test_segments_of_failed_ops_are_skipped_and_others_compared():
    expected = ["a" * 16, "b" * 16, "c" * 16]
    assert workload.compare_segments([None, "b" * 16, "c" * 16], expected) == []
    errors = workload.compare_segments(["a" * 16, None, "d" * 16], expected)
    k = workload.SEGMENT_OPS
    assert errors == [f"digest of ops {2 * k}..{3 * k - 1} differs from the record"]


def test_without_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
