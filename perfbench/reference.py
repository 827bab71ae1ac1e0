"""Reference figures that are not workloads: one run each, raw wall time.

Usage (from the repository root): python3 perfbench/reference.py

Prints a markdown table of: each statement alone at its default prime cap
with --jobs 1; the full default run (every statement, default caps and
argument grid) with --jobs 1 and with --jobs 2; and `supercong identities`.
Takes about three minutes on a 2-vCPU machine.  Output goes to
perfbench/out/reference/.
"""

from __future__ import annotations

import shutil
import sys

from run import HERE, child_failure, reference_s, run_child

STATEMENTS = ("theorem1", "theorem2", "weighted_8n5", "weighted_32n21",
              "weighted_18n7", "weighted_72n49", "kw", "sun_s", "lemma21",
              "lemma23", "lemma24", "lemma33", "lemma34", "blocks",
              "blocks_weighted", "residue_table")


def main() -> int:
    out = HERE / "out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    verify = [sys.executable, "-m", "supercong", "verify"]
    runs = [(f"verify --statement {sid}", verify + ["--statement", sid])
            for sid in STATEMENTS]
    runs += [(f"verify --jobs {j} (all statements)", verify + ["--jobs", str(j)])
             for j in (1, 2)]
    runs.append(("identities", [sys.executable, "-m", "supercong",
                                "identities"]))
    print(f"reference loop before: {reference_s():.3f} s")
    print("| command | wall s | peak RSS MB |\n|---|---|---|")
    for i, (label, cmd) in enumerate(runs):
        wall, rss, code = run_child(cmd, out / f"{i}.stderr")
        if code:
            raise SystemExit(child_failure(cmd, code, out / f"{i}.stderr"))
        print(f"| `{label}` | {wall:.2f} | {rss:.1f} |", flush=True)
    print(f"reference loop after: {reference_s():.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
