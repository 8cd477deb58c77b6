#!/usr/bin/env python
"""Lock-free synchronization under the paper's lens.

The paper's framework classifies operations as data or synchronization;
lock-free code pushes *all* shared access into synchronization (CAS and
acquire reads), so it is data-race-free without any lock — the detector
certifies every execution sequentially consistent, and the weak models
still run it fast.  This example:

1. races a naive counter, a Test&Set-locked counter and a lock-free
   CAS counter across the models (correctness + stall cycles),
2. shows the CAS slot allocator publishing *data* safely because slot
   claims are unique,
3. uses the race hunter to show how many schedules expose the naive
   counter's bug, and draws one racy execution as a timeline.

Run:  python examples/lockfree_patterns.py
"""

from repro import ALL_MODEL_NAMES, PostMortemDetector, make_model, run_program
from repro.analysis import hunt_races
from repro.core.timeline import render_timeline
from repro.programs import (
    cas_counter_program,
    cas_slot_allocator_program,
    locked_counter_program,
    racy_counter_program,
)

DET = PostMortemDetector()


def counters() -> None:
    print("Three counters, 4 processors x 6 increments (expect 24)")
    print("=" * 64)
    print(f"{'model':>6s} {'naive':>14s} {'locked':>16s} {'lock-free':>18s}")
    for model in ALL_MODEL_NAMES:
        row = []
        for prog in (racy_counter_program(4, 6),
                     locked_counter_program(4, 6),
                     cas_counter_program(4, 6)):
            result = run_program(prog, make_model(model), seed=13)
            report = DET.analyze_execution(result)
            verdict = "racy" if not report.race_free else "clean"
            row.append(
                f"{result.value_of('counter')}/{verdict}"
                f"/{result.total_stall_cycles}st"
            )
        print(f"{model:>6s} {row[0]:>14s} {row[1]:>16s} {row[2]:>18s}")
    print("(value / race verdict / stall cycles)")
    print()


def allocator() -> None:
    print("CAS slot allocator: claims are sync, payloads are data")
    print("=" * 64)
    result = run_program(
        cas_slot_allocator_program(4), make_model("RCsc"), seed=3
    )
    base = result.symbols.addr_of("slots")
    slots = [result.final_memory[base + i] for i in range(4)]
    report = DET.analyze_execution(result)
    print(f"slots: {slots} (each processor's payload, unique slot)")
    print(f"race-free: {report.race_free} -> every execution is SC")
    print()


def hunt() -> None:
    print("Hunting the naive counter's races across schedules")
    print("=" * 64)
    result = hunt_races(
        racy_counter_program(2, 2), lambda: make_model("WO"), tries=12
    )
    print(result.summary())
    print()
    print("One racy execution, drawn paper-figure style:")
    print(render_timeline(result.first_racy, max_rows=14, width=24))


def main() -> None:
    counters()
    allocator()
    hunt()


if __name__ == "__main__":
    main()
