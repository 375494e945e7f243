#!/usr/bin/env python3
"""The benchmark's own test: work counts repeat exactly for a fixed seed.

    python3 perfbench/check_counts.py [--seconds 2] [--workload NAME]

Runs each workload's traced run twice with the same seed and fails unless
every metric with unit ``count`` is identical across the two runs and both
runs pass their correctness checks.  Takes about two minutes, almost all
of it the `small` cold starts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_result(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    problems = []
    for workload in args.workload or ("expand-uncached", "serve-zipf"):
        first, second = (traced_result(workload, args.seed, args.seconds) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed responses")
        for name, metric in first["metrics"].items():
            if metric["unit"] != "count":
                continue
            again = second["metrics"][name]["value"]
            verdict = "same" if again == metric["value"] else "DIFFERENT"
            print(f"{workload} {name}: {metric['value']:g} / {again:g} {verdict}")
            if verdict != "same":
                problems.append(f"{workload} {name}: {metric['value']} then {again}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
