"""Steadiness check: run the benchmark several times and compare.

Usage (from the repository root):

    python3 perfbench/steady.py

Each of SETS sets runs run.py once per seed and workload of BENCHMARK.json
(seeds 1..SEEDS, workloads interleaved) with its run length.  For each
end-to-end metric and workload it prints every set's median and quartile spread
(Q3 - Q1 over the median, as statistics.quantiles(n=4) gives them), the
spread between the set medians, and the metric's bound.  A row is marked
"over" when a quartile spread (setup_s excepted, as in the acceptance rule)
or the drift between set medians in the worse direction exceeds the bound.
Every run's result line is kept in perfbench/out/steady.jsonl.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    log_path = HERE / "out" / "steady.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    with open(log_path, "a", encoding="utf-8") as log:
        for s in range(SETS):
            for seed in range(1, SEEDS + 1):
                for w in workloads:
                    res = run_once(w, seed, spec["run_seconds"])
                    results[s][w].append(res)
                    log.write(json.dumps({"set": s, "workload": w,
                                          "seed": seed, **res}) + "\n")
                    log.flush()
                    print(f"set {s} seed {seed} {w}: " + ", ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in res["metrics"].items()), flush=True)

    print("\n| workload | metric | bound | "
          + " | ".join(f"set {s} median | set {s} spread"
                       for s in range(SETS))
          + " | drift | |")
    print("|---" * (4 + 2 * SETS) + "|")
    over = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                medians.append(statistics.median(values))
                spreads.append(quartile_spread(values))
            sign = 1 if m["better"] == "lower" else -1
            drift = max(sign * (b - a) / a for a in medians for b in medians)
            bad = drift > bound or (name != "setup_s"
                                    and max(spreads) > bound)
            over += bad
            print(f"| {w} | {name} | {bound} | " + " | ".join(
                f"{md:.4g} | {sp:.3f}" for md, sp in zip(medians, spreads))
                + f" | {drift:.3f} | {'over' if bad else 'ok'} |")
    for w in workloads:
        shares = {s: sorted({r["failed"] / r["attempted"]
                             for r in results[s][w]})
                  for s in range(SETS)}
        print(f"{w}: failed share per set {shares}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
