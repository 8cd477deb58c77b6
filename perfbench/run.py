"""Benchmark of record for the race-detection pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload hunt-workqueue --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics; ``--trace 1`` replays it through each layer with spans and
reports the per-layer metrics.  Every step that imports the program
runs in a fresh child interpreter (``worker.py``); this file only
orchestrates, so its own memory and start-up never enter a metric.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every output matched its known answer, 1 when
one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER
from workloads import ANALYZE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; setup_s and cli.import_s are their medians.  An
#: untraced run takes half of them before the measurement and half
#: after it, so setup_s samples both ends of the run.
PROBES = 8
#: Every child must finish within this many seconds of the start.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: The names the workload's own vocabulary gives the generic metrics.
ALIASES = {
    "hunt": {"requests_per_s": "tries_per_s",
             "request_p50_ms": "try_p50_ms",
             "request_p90_ms": "try_p90_ms"},
    "analyze": {"requests_per_s": "analyze_requests_per_s",
                "request_p50_ms": "analyze_p50_ms",
                "request_p90_ms": "analyze_p90_ms"},
}


class ChildFailed(RuntimeError):
    pass


def run_child(mode, args, out, env, deadline, extra=()):
    """Run ``worker.py MODE`` to completion and return its JSON result.
    The child leads its own process group, so a timeout kills the hunt's
    pool workers with it."""
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", str(out), *extra]
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"{mode} did not finish in time")
    finally:
        try:  # pool workers outliving a crashed child
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise ChildFailed(f"{mode} exited with code {child.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} printed nothing")
    return json.loads(lines[-1])


def run_context() -> dict:
    """Where the numbers come from: machine, interpreter, source."""
    try:
        # The ceiling keeps git from finding a repository above ROOT.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the race-detection pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(out / "tmp"), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)

    try:
        if args.workload == ANALYZE:
            run_child("prepare", args, out, env, deadline)
        setups, imports = [], []

        def take_probes(count):
            for _ in range(count):
                launched = time.monotonic()
                stamp = run_child("probe", args, out, env, deadline)
                setups.append(stamp["first_done"] - launched)
                imports.append(stamp["import_s"])

        if args.trace:
            take_probes(PROBES)
            result = run_child(
                "trace", args, out, env, deadline,
                extra=("--import-s", str(statistics.median(imports))))
        else:
            take_probes(PROBES // 2)
            result = run_child("measure", args, out, env, deadline)
            take_probes(PROBES - PROBES // 2)
    except (ChildFailed, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if args.trace:
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": statistics.median(setups), **metrics}
        units = dict(END_TO_END)
    context = {
        **run_context(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": setups,
        "import_s_samples": imports,
        **result["context"],
    }
    correct = result["failed"] == 0
    payload = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (out / "result.json").write_text(
        json.dumps({"context": context, **payload}, indent=1))
    shutil.rmtree(out / "tmp", ignore_errors=True)

    aliases = ALIASES["analyze" if args.workload == ANALYZE
                      else "hunt"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        note = ""
        if not args.trace and name in aliases:
            samples = (f"; n={context['samples']}"
                       if name.startswith("request_p") else "")
            note = f"  ({aliases[name]}{samples})"
        print(f"{name:34} {metrics[name]:14.6g} {unit}{note}")
    print(f"{'failed_frac':34} {result['failed'] / result['attempted']:14.6g}"
          f" ({result['failed']} of {result['attempted']})")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(payload))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
