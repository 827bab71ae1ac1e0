"""Benchmark of `supercong verify`, stdlib only.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

--trace 0 times whole rounds: each round is a fresh `supercong verify
--jobs 1` process running every task of the workload and writing JSONL, so
every cache starts cold.  Rounds repeat until --seconds have passed; the
end-to-end metrics are medians over rounds.  Set-up time is the median of
several fresh verify processes with the same flags and zero tasks.

The machine this was built on changes speed by up to a quarter within tens
of seconds, so each timed step is calibrated: a fixed reference loop is
timed before and after it, and the step's wall time is scaled by
REFERENCE_NOMINAL_S over the mean of the two.  A program change moves the
step and not the loop; a slow phase of the machine moves both.  The slow
phases are per CPU, so run.py pins itself to one CPU before anything is
timed; the verify processes inherit the pin, so the loop and the step they
calibrate always share a CPU.

--trace 1 reports the per-layer metrics instead: timings of public
functions at fixed primes (layers.py, medians over fresh processes), and
pairs of untraced and traced rounds (traced.py) until --seconds have passed.

Every round's records are checked apart from the program (oracle.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Output files go to perfbench/out/<workload>/, which each run empties.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import check_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 11
LAYER_PROCESSES = 3
MIN_ROUNDS = 3
MIN_TRACE_PAIRS = 2
# Seconds the reference loop takes at the nominal machine speed, close to its
# median on the 2-vCPU machine the README figures come from.
REFERENCE_NOMINAL_S = 0.8


class BenchError(Exception):
    """The program did not run as the benchmark requires."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(cmd: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run one process to its end; return (wall seconds, peak RSS in MB,
    exit status).  Status 1 is returned for the caller to judge, since
    verify exits 1 both when a check fails and when it crashes."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        raise BenchError(child_failure(cmd, proc.returncode, stderr_path))
    return wall, usage.ru_maxrss / 1024, proc.returncode


def child_failure(cmd: list[str], code: int, stderr_path: Path) -> str:
    return f"{cmd[1:4]} exited {code}: {stderr_path.read_text()[-2000:]}"


def reference_s() -> float:
    """Time a fixed pure-Python loop: a Pascal row mod p^2, the same kind
    of work as the program's table build, in this process.  Calibrated
    times are wall times scaled by REFERENCE_NOMINAL_S / this."""
    t0 = perf_counter()
    p = 401
    mod = p * p
    for _ in range(100):
        row = [0] * p
        row[0] = 1
        for n in range(1, p):
            for k in range(n, 0, -1):
                row[k] = (row[k] + row[k - 1]) % mod
    return perf_counter() - t0


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def without_timing(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "micros"} for r in records]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.out = HERE / "out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.verify_args = self.w.verify_args(seed)
        self.task_count = len(self.w.tasks(seed))
        self.rounds: list[Path] = []

    def verify(self, traced: bool = False) -> tuple[float, float]:
        """One round; returns (wall seconds, peak RSS in MB).  Exit status
        1 is accepted only as failed checks: every task reported and at
        least one record with pass false.  Anything else is a crash, and
        its truncated round yields no timing."""
        n = len(self.rounds)
        jsonl = self.out / f"round-{n}.jsonl"
        trace = self.out / f"trace-{n}.json"
        if traced:
            head = [str(HERE / "traced.py"), str(trace)]
        else:
            head = ["-m", "supercong", "verify"]
        cmd = [sys.executable, *head, *self.verify_args, "--out", str(jsonl)]
        stderr = self.out / f"round-{n}.stderr"
        wall, peak, code = run_child(cmd, stderr)
        if code == 1:
            records = read_records(jsonl) if jsonl.exists() else []
            if (len(records) != self.task_count
                    or all(r["pass"] is not False for r in records)):
                raise BenchError(child_failure(cmd, code, stderr))
        if traced and not trace.exists():
            raise BenchError(f"{cmd[1:3]} wrote no trace: "
                             f"{stderr.read_text()[-2000:]}")
        self.rounds.append(jsonl)
        return wall, peak

    def setup_s(self) -> float:
        """Median wall time of fresh verify processes with zero tasks."""
        cmd = [sys.executable, "-m", "supercong", "verify",
               *self.w.verify_args(self.seed, primes=False)]
        stderr = self.out / "setup.stderr"
        walls = []
        for _ in range(SETUP_ROUNDS):
            wall, _, code = run_child(cmd, stderr)
            if code:
                raise BenchError(child_failure(cmd, code, stderr))
            walls.append(wall)
        return statistics.median(walls)

    def check(self) -> tuple[bool, int, int, int]:
        """Check every round; returns (correct, attempted, failed, skipped)."""
        first = read_records(self.rounds[0])
        problems = check_round(first, self.w.tasks(self.seed),
                               self.w.sample, self.w.sample_pmax, self.seed)
        attempted = failed = skipped = 0
        for path in self.rounds:
            records = read_records(path)
            attempted += len(records)
            failed += sum(r["pass"] is False for r in records)
            skipped += sum(r["pass"] is None for r in records)
            if without_timing(records) != without_timing(first):
                problems.append(f"{path.name} differs from {self.rounds[0].name}")
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return not problems, attempted, failed, skipped

    def end_to_end(self) -> dict[str, float]:
        """Calibrated medians: each timed step is scaled by the reference
        loop timed just before and just after it (see reference_s)."""
        before = reference_s()
        setup = self.setup_s()
        after = reference_s()
        scale = REFERENCE_NOMINAL_S / ((before + after) / 2)
        setup *= scale
        walls, calibrated, rss, refs = [], [], [], [before, after]
        deadline = perf_counter() + self.seconds
        while len(walls) < MIN_ROUNDS or perf_counter() < deadline:
            before = after
            wall, peak = self.verify()
            after = reference_s()
            refs.append(after)
            walls.append(wall)
            calibrated.append(wall * REFERENCE_NOMINAL_S / ((before + after) / 2))
            rss.append(peak)
        wall = statistics.median(calibrated)
        (self.out / "timings.json").write_text(json.dumps(
            {"wall_s": walls, "calibrated_s": calibrated, "peak_rss_mb": rss,
             "reference_s": refs, "setup_s": setup}, indent=1))
        checks = len(read_records(self.rounds[0]))
        print(f"{self.w.name}: {len(walls)} rounds of {checks} checks; raw "
              f"wall min/median/max {min(walls):.3f}/"
              f"{statistics.median(walls):.3f}/{max(walls):.3f} s; "
              f"calibrated {wall:.3f} s", file=sys.stderr)
        return {"wall_s": wall, "checks_per_s": checks / wall,
                "setup_s": setup, "peak_rss_mb": statistics.median(rss)}

    def per_layer(self) -> dict[str, float]:
        """Layer timings (raw, with the reference loop's time beside them;
        each the median over LAYER_PROCESSES fresh processes, so the cold
        timings are medians too), then untraced and traced rounds in turn
        until the deadline."""
        deadline = perf_counter() + self.seconds
        reference = [reference_s()]
        runs = []
        for i in range(LAYER_PROCESSES):
            layer_json = self.out / f"layers-{i}.json"
            with open(layer_json, "w", encoding="utf-8") as fh, \
                    open(self.out / f"layers-{i}.stderr", "w",
                         encoding="utf-8") as err:
                subprocess.run([sys.executable, str(HERE / "layers.py"),
                                str(self.seed)], env=child_env(), cwd=ROOT,
                               stdout=fh, stderr=err, check=True)
            runs.append(json.loads(layer_json.read_text()))
            reference.append(reference_s())
        metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        plain, traced = [], []
        while len(traced) < MIN_TRACE_PAIRS or perf_counter() < deadline:
            plain.append(self.verify()[0])
            traced.append(self.verify(traced=True)[0])
        # rounds alternate untraced and traced, so round 1 is the first traced
        trace = json.loads((self.out / "trace-1.json").read_text())
        for layer, self_s in trace["layers_self_s"].items():
            metrics[f"trace.{layer}.self_s"] = self_s
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced, plain))
        metrics["wall_raw_s"] = statistics.median(plain)
        metrics["reference_s"] = statistics.median(reference)
        metrics["checks"] = len(read_records(self.rounds[0]))
        requests, distinct = trace["table_requests"], trace["distinct_tables"]
        metrics["table_requests"] = requests
        metrics["distinct_tables"] = distinct
        metrics["table_cache_hit_share"] = (
            1 - distinct / requests if requests else 0.0)
        metrics["jsonl_bytes"] = self.rounds[0].stat().st_size
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "supercong" / "__init__.py").is_file():
        print("run.py: no src/supercong in this checkout", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    print(f"run.py: pinned to CPU {cpu}", file=sys.stderr)
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        values = bench.per_layer() if args.trace else bench.end_to_end()
    except (BenchError, subprocess.CalledProcessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    correct, attempted, failed, skipped = bench.check()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(f"checks attempted {attempted}, skipped {skipped}, failed {failed}")
    line = json.dumps(result)
    (bench.out / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
