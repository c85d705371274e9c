"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload parse-small --seeds 1-10 [--trace 0]

For every metric: the median and quartiles of its values over the runs,
and the spread (third minus first quartile, as a share of the median)
next to a third of the metric's bound from ``BENCHMARK.json``. A run
that fails or reports ``correct: false`` is listed and ends the command
with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    values: dict[str, list[float]] = {}
    bad = []
    for seed in _seeds(args.seeds):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            bad.append(f"seed {seed}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            bad.append(f"seed {seed}: " + "; ".join(l for l in lines if l.startswith("CHECK FAILED")))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        digest = next((l.split()[2] for l in lines if l.startswith("outputs sha256")), "-")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} outputs sha256 {digest}", flush=True)

    print(f"{'metric':<34} {'runs':>4} {'p25':>12} {'median':>12} {'p75':>12} {'spread':>8} {'bound/3':>8}")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound is not None else "-"
        flag = " <-- over" if bound is not None and spread > bound / 3 else ""
        print(f"{name:<34} {len(series):>4} {q1:>12.5g} {median:>12.5g} {q3:>12.5g} {spread:>8.4f} {third:>8}{flag}")
    for line in bad:
        print(f"BAD RUN {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
