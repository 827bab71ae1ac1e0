"""Show that the benchmark's correctness checks catch wrong records.

Usage (from the repository root): python3 perfbench/selftest.py

For each workload it runs one round at seed 1, requires the records to pass
oracle.check_round, then corrupts a copy in several ways and requires each
corruption to be reported.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import sys

from run import Bench, read_records
from oracle import check_round
from workloads import WORKLOADS


def corruptions(records: list[dict]):
    """(label, corrupted copy) pairs, each one change away from records."""
    def edit(i: int, **fields) -> list[dict]:
        out = [dict(r) for r in records]
        out[i].update(fields)
        return out

    residue = next(i for i, r in enumerate(records) if r["lhs"] is not None)
    r = records[residue]
    yield "lhs off by one", edit(
        residue, lhs=str((int(r["lhs"]) + 1) % int(r["modulus"])))
    yield "lhs and rhs off by p", edit(
        residue, lhs=str((int(r["lhs"]) + r["p"]) % int(r["modulus"])),
        rhs=str((int(r["rhs"]) + r["p"]) % int(r["modulus"])))
    yield "pass flipped", edit(residue, **{"pass": False})
    yield "record dropped", records[:residue] + records[residue + 1:]
    skipped = [i for i, r in enumerate(records) if r["pass"] is None]
    if skipped:
        yield "skip reported as pass", edit(skipped[0], skipped_reason=None,
                                            **{"pass": True})
    checked = [i for i, r in enumerate(records) if r["pass"] is True]
    yield "check reported as skip", edit(checked[-1], skipped_reason="x",
                                         **{"pass": None})


def main() -> int:
    wrong = 0
    for name, w in WORKLOADS.items():
        bench = Bench(name, 1, 0)
        bench.verify()
        records = read_records(bench.rounds[0])
        tasks = w.tasks(1)

        def problems(recs):
            return check_round(recs, tasks, w.sample, w.sample_pmax, 1)

        found = problems(records)
        print(f"{name}: {len(records)} records, clean round: "
              f"{'ok' if not found else found[:3]}")
        wrong += bool(found)
        for label, bad in corruptions(records):
            found = problems(bad)
            print(f"  {label}: {'caught: ' + found[0] if found else 'MISSED'}")
            wrong += not found
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
