"""Re-record the output digests in digests.json.

    python3 perfbench/record.py

Run from the root of a flatknots checkout whose answers are trusted.  For
each closed-loop workload and each seed in RECORD_SEEDS it runs the
workload's MAX_OPS ops in a fresh process, checks every answer, and
stores the digest of each SEGMENT_OPS segment of their outputs.  The
tabulate6 facts are not touched here.  Two worker processes; the
recording takes about 40 minutes on a 2-core machine.
"""
from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os

import workload as wl

RECORD = os.path.join(wl.HERE, "digests.json")


def segments_of(name: str, seed: int) -> str:
    import flatknots as fk

    items, results, _, _, failed = wl.closed_loop(fk, name, seed, 0, ops=wl.MAX_OPS[name])
    _, segments, errors, _ = wl.check_closed_loop(fk, name, seed, items, results)
    if failed or errors:
        raise RuntimeError(f"{name} seed {seed}: {failed} failed ops, errors {errors[:3]}")
    return " ".join(segments)


def main() -> int:
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=2,
        mp_context=multiprocessing.get_context("spawn"),
        max_tasks_per_child=1,
    ) as pool:
        jobs = {
            (name, seed): pool.submit(segments_of, name, seed)
            for name in wl.MAX_OPS
            for seed in wl.RECORD_SEEDS
        }
        for name in wl.MAX_OPS:
            record[name] = {str(seed): jobs[(name, seed)].result() for seed in wl.RECORD_SEEDS}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
