"""Spans around the package's layer boundaries, recorded from outside `src/`.

`installed()` replaces public functions at the module or class attributes the
simulator calls through with wrappers that record one span per call: layer,
parent span, start, end and an optional outcome flag.  The originals are put
back on exit, so an untraced run executes no wrapper.  Spans stay in memory
until `write_csv` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYER, PARENT, START, END, OUTCOME = range(5)
PLANAR = "controller.planar"


def boundaries() -> list[tuple]:
    """(owner, attribute, layer, outcome) for every traced call site.

    The outcome function maps a call's result to True when the call did
    useful work; it gives the layer's hit ratio.
    """
    from niformation import controller, lti, obstacle, scenario, sim

    def visible(part):
        return part.shape[0] >= 3

    def detected(event):
        return event is not None

    return [
        (scenario, "load_scenario", "scenario.load", None),
        (sim, "load_model_library", "lti.model_library", None),
        (sim, "discretize", "lti.discretize", None),
        (lti.DiscretePlant, "step", "lti.plant_step", None),
        (controller, "kron_expand", "graph.kron_expand", None),
        (controller, "baseline_control", PLANAR, None),
        (controller, "enhanced_control", PLANAR, None),
        (controller, "yaw_consensus", "controller.yaw", None),
        (obstacle, "clip_polygon_to_disc", "obstacle.clip", visible),
        (obstacle, "detect_mode", "obstacle.detect", detected),
        (obstacle, "group_all", "obstacle.group", None),
        (obstacle, "event_cleared", "obstacle.cleared", None),
        (sim, "check_convergence", "formation.convergence", None),
        (sim.Simulator, "run", "sim.loop", None),
        (sim.RunLog, "trajectory_csv", "sim.export", None),
        (sim.RunLog, "events_csv", "sim.export", None),
        (sim.RunLog, "summary_json", "sim.export", None),
    ]


class Tracer:
    """Collects spans as [layer, parent index or -1, start ns, end ns, outcome]."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, layer: str, fn, outcome=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            self._open.append(len(self.spans))
            span = [layer, parent, self.clock(), 0, None]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self._open.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result
        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore."""
    saved = []
    try:
        for owner, name, layer, outcome in boundaries():
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, outcome))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns).

    Calls are sequential, so the children of one span never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def summarize(spans: list[list]) -> dict:
    """Per-layer self seconds, call counts, useful-outcome counts and the
    host time of each simulated step (µs), taken as the interval between
    consecutive planar-control calls inside one Simulator.run."""
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    useful: Counter = Counter()
    planar_starts: dict[int, list[int]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        layer = span[LAYER]
        seconds[layer] += own / 1e9
        calls[layer] += 1
        if span[OUTCOME]:
            useful[layer] += 1
        if layer == PLANAR:
            planar_starts[span[PARENT]].append(span[START])
    step_us = [(b - a) / 1e3 for starts in planar_starts.values()
               for a, b in zip(starts, starts[1:])]
    return {"seconds": dict(seconds), "calls": dict(calls),
            "useful": dict(useful), "step_us": step_us}


def write_csv(path: Path, operations: list[list[list]]) -> None:
    """Write the spans of every traced operation as gzipped CSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("op,span,parent,layer,start_ns,end_ns,self_ns,outcome\n")
        for op, spans in enumerate(operations):
            for index, (span, own) in enumerate(zip(spans, self_times(spans))):
                outcome = "" if span[OUTCOME] is None else int(span[OUTCOME])
                out.write(f"{op},{index},{span[PARENT]},{span[LAYER]},"
                          f"{span[START]},{span[END]},{own},{outcome}\n")
