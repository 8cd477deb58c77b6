"""The post-mortem detector: the paper's end-to-end pipeline.

Given a trace (from a file or straight from a simulated execution):

1. build the happens-before-1 graph from per-processor event order and
   per-location sync order (section 4.1),
2. find every conflicting, hb1-unordered event pair (the races),
3. build the augmented graph G', partition races by SCC, order
   partitions by reachability, and mark the first partitions
   (section 4.2),
4. report only the first partitions containing data races.

On hardware obeying Condition 3.4 the report is meaningful even when
the execution was not sequentially consistent: an empty report proves
the execution *was* sequentially consistent, and each reported
partition contains at least one race that would also occur on a
sequentially consistent execution.
"""

from __future__ import annotations

from .. import obs
from ..machine.simulator import ExecutionResult
from ..trace.build import Trace, build_trace
from .hb1 import HappensBefore1
from .partitions import partition_races
from .races import find_races
from .report import RaceReport


class PostMortemDetector:
    """Stateless analysis pipeline; one ``analyze`` call per trace."""

    def analyze(self, trace: Trace) -> RaceReport:
        """Run the full pipeline on a post-mortem trace.

        Races come from the vector-clock race kernel, on cyclic hb1
        relations (§3.1) too; the hb1 transitive closure is never built.
        """
        with obs.span("detect.postmortem"):
            hb = HappensBefore1(trace)
            races = find_races(trace, hb)
            analysis = partition_races(trace, hb, races)
        return RaceReport(trace=trace, hb=hb, races=races, analysis=analysis)

    def analyze_execution(self, result: ExecutionResult) -> RaceReport:
        """Instrument a simulated execution and analyze it."""
        return self.analyze(build_trace(result))
