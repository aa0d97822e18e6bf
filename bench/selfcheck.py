#!/usr/bin/env python3
"""Self-check of the benchmark: run every workload briefly, in both modes.

    python3 bench/selfcheck.py

From the root of a checkout. Each workload runs one round with --trace 0
and with --trace 1; the check fails unless every run exits 0, prints a last
line with exactly the keys correct, attempted, failed and metrics, reports
correct outputs, and names exactly the metrics (with their units) that
BENCHMARK.json lists under end_to_end and per_layer respectively.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems_with(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("outputs reported wrong")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"attempted {result['attempted']!r}, "
                        f"failed {result['failed']!r}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"metrics missing {missing}, unexpected {extra}, "
                        f"units differ for {units}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems = [f"exit {done.returncode}: {done.stderr.strip()}"]
            else:
                problems = problems_with(json.loads(lines[-1]),
                                         expected[trace])
            verdict = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {verdict}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
