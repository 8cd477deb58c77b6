"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload analyze-traces --seeds 1-10

Runs are sequential.  For every metric it prints the median of the
runs and the distance between the first and third quartile as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchstats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)

    report = {}
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) >= 2 and median \
            else 0.0
        report[name] = {"median": median, "spread": spread,
                        "bound": bounds.get(name), "values": series}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound}  spread/bound {spread / bound:.2f}")
        print(f"{name:34} median {median:12.6g}  spread {spread:.4f}  "
              f"{verdict}")
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
