"""Run one benchmark workload; print its metrics, then one JSON line.

    python3 perfbench/run.py --workload obstacle_course --seed 7 --seconds 35 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing, as host times
scaled to one fixed host speed (see hostspeed.py).  `--trace 1`
spends half of `--seconds` on untraced operations and half on traced ones,
and reports the per-layer metrics and the tracing overhead.  Every operation
is checked; the last line of standard output is the JSON result.  See
perfbench/README.md for the metrics and workloads.
"""

import os

# The load runs in one thread: keep BLAS from starting a worker pool.  This
# must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
WORKLOADS = ("obstacle_course", "yaw_hold", "prediction_sweep")
SETUPS_PER_OP = 5    # set-ups timed before each operation for setup_s
SETUP_PROBES = 4     # speed probes taken right before each timed set-up
TAIL_SAMPLES = 10    # a reported tail percentile has this many samples beyond it


def import_package():
    """Put the checkout's `src/` first on the path; fail without it."""
    if not (SRC / "niformation" / "__init__.py").is_file():
        raise RuntimeError(f"no niformation sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    return workloads, spans


@dataclass
class HostTimes:
    """The speed sampler of an untraced run, and its set-up times."""

    sampler: hostspeed.Sampler
    setups: list[float] = field(default_factory=list)   # host seconds
    scales: list[float] = field(default_factory=list)   # hostspeed.scale each


@dataclass
class Sample:
    """What one operation left behind: its timings, checks and spans."""

    seconds: float | None = None                  # None when it raised
    runs: list[tuple[int, float]] = field(default_factory=list)  # (steps, s)
    problems: list[str] = field(default_factory=list)
    fingerprint: dict | None = None
    quality: dict = field(default_factory=dict)
    spans: list | None = None
    scale: float = 1.0       # hostspeed.scale over the operation


def attempt(wl, sp, name, seed, tracer, sampler=None) -> Sample:
    """One checked operation; with `sampler`, timed on its clock and scaled."""
    probes = []
    try:
        if sampler is not None:
            with sampler.sampling() as probes:
                op = wl.run(name, seed, sampler.clock)
        elif tracer is None:
            op = wl.run(name, seed)
        else:
            with sp.installed(tracer):
                op = wl.run(name, seed)
    except Exception:  # a crashed operation counts as failed; keep measuring
        traceback.print_exc()
        return Sample(problems=["raised"],
                      spans=None if tracer is None else tracer.take())
    # an operation shorter than the probe period is scaled by a probe after it
    scale = 1.0 if sampler is None else hostspeed.scale(probes or [hostspeed.probe()])
    return Sample(seconds=op.seconds,
                  runs=[(r.steps, r.seconds) for r in op.runs],
                  problems=wl.check(name, op),
                  fingerprint=wl.fingerprint(op),
                  quality=wl.quality(name, op),
                  spans=None if tracer is None else tracer.take(),
                  scale=scale)


def measure(wl, sp, name, seed, budget, tracer=None, host=None) -> list[Sample]:
    """Run operations for about `budget` seconds (at least one).

    Another operation starts while it would end less than half its length
    past the deadline, judged by the previous one, so a run of long
    operations overshoots its budget by at most about half an operation.
    With `host`, set-ups are timed into it before each operation, so that
    they sample the whole run rather than one moment of it, and operations
    are timed on its sampler.
    """
    samples = []
    now = time.perf_counter()
    deadline = now + budget
    last = 0.0
    while not samples or now + last / 2 < deadline:
        if host is not None:
            time_setups(wl, name, seed, host)
        samples.append(attempt(wl, sp, name, seed, tracer,
                               None if host is None else host.sampler))
        last, now = time.perf_counter() - now, time.perf_counter()
    return samples


def time_setups(wl, name, seed, host: HostTimes) -> None:
    for _ in range(SETUPS_PER_OP):
        probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        wl.setup(name, seed)
        host.setups.append(time.perf_counter() - start)
        host.scales.append(hostspeed.scale(probes))


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def describe(values, what) -> str:
    """Sample count, quartiles and the highest percentile with enough tail."""
    text = f"median {statistics.median(values):.6g} of {len(values)} {what}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", p25 {q1:.6g} p75 {q3:.6g}"
    tail = 100 * (len(values) - TAIL_SAMPLES) // len(values) if values else 0
    if tail > 75:
        text += f", p{tail} {percentile(values, tail):.6g}"
    return text


def report(metrics, name, value, unit, note):
    metrics[name] = {"value": value, "unit": unit}
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")


def fingerprint_problems(samples) -> None:
    """Every operation of one workload and seed must give the same output."""
    first = next((s.fingerprint for s in samples if s.fingerprint), None)
    for s in samples:
        if s.fingerprint and s.fingerprint != first:
            s.problems.append("output differs from the run's first operation")


def reference_lines(name, seed, samples) -> list[str]:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = "default" if seed is None else str(seed)
    expected = table.get(name, {}).get(key)
    lines = []
    for fp in {s.fingerprint["sha256"]: s.fingerprint
               for s in samples if s.fingerprint}.values():
        if expected is None:
            verdict = "no reference recorded for this seed"
        elif fp == expected:
            verdict = "identical to the reference"
        else:
            verdict = f"differs from the reference {expected}"
        lines.append(f"  output sha256 {fp['sha256']} steps {fp['steps']} "
                     f"events {fp['events']}: {verdict}")
    return lines


def end_to_end(name, samples, host: HostTimes) -> dict:
    """Times in reference seconds: each host time times the `hostspeed.scale`
    of the probes taken over it.  The notes give the host times unscaled."""
    ran = [s for s in samples if s.seconds is not None]
    metrics: dict = {}
    scales = [s.scale for s in ran]
    print(f"  host speed: median {statistics.median(scales):.4g} reference s "
          f"per host s over {len(ran)} operations, range {min(scales):.4g}-"
          f"{max(scales):.4g}; times below are in reference seconds")
    seconds = [s.seconds for s in ran]
    report(metrics, "run_s",
           statistics.median(s.seconds * s.scale for s in ran), "s",
           "host " + describe(seconds, "operations"))
    steps = sum(n for s in ran for n, _ in s.runs)
    host_s = sum(secs for s in ran for _, secs in s.runs)
    report(metrics, "steps_per_s",
           steps / sum(secs * s.scale for s in ran for _, secs in s.runs), "1/s",
           f"all steps / all time in {sum(len(s.runs) for s in ran)} "
           f"Simulator.run calls; host {steps / host_s:.6g}")
    report(metrics, "setup_s", statistics.median(
        t * k for t, k in zip(host.setups, host.scales)), "s",
        "host " + describe(host.setups, "load_scenario + Simulator() set-ups"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report(metrics, "peak_rss_mb", peak, "MB", "1 sample: the process peak")
    # Outcome figures: deterministic per seed, printed with the metrics but
    # not part of the JSON result (each is 0 or absent on some workload).
    failed = sum(1 for s in samples if s.problems)
    print(f"  {'fail_ratio':<28} {failed / len(samples):>14.6g} {'':<6} "
          f"{failed} of {len(samples)} operations failed")
    units = {"formation_err_max_cm": "cm", "min_clearance_cm": "cm",
             "prediction_gain_ratio": "ratio"}
    for key, unit in units.items():
        values = [s.quality[key] for s in ran if key in s.quality]
        if values:
            print(f"  {key:<28} {statistics.median(values):>14.6g} {unit:<6} "
                  f"median of {len(values)} operations")
        else:
            print(f"  {key:<28} {'-':>14} {unit:<6} not defined on {name}")
    return metrics


def per_layer_table():
    """(metric, unit, value from one traced operation's span summary)."""
    def own(layer):
        return lambda s: s["seconds"].get(layer, 0.0)

    def calls(layer):
        return lambda s: s["calls"].get(layer, 0)

    def ratio(layer):
        return lambda s: (s["useful"].get(layer, 0) / s["calls"][layer]
                          if s["calls"].get(layer) else 0.0)

    def step(pct):
        return lambda s: percentile(s["step_us"], pct)

    return [
        ("obstacle.clip_s", "s", own("obstacle.clip")),
        ("obstacle.clip_calls", "count", calls("obstacle.clip")),
        ("obstacle.clip_visible_ratio", "ratio", ratio("obstacle.clip")),
        ("obstacle.detect_s", "s", own("obstacle.detect")),
        ("obstacle.detect_calls", "count", calls("obstacle.detect")),
        ("obstacle.detect_hit_ratio", "ratio", ratio("obstacle.detect")),
        ("obstacle.group_s", "s", own("obstacle.group")),
        ("obstacle.cleared_s", "s", own("obstacle.cleared")),
        ("graph.kron_expand_s", "s", own("graph.kron_expand")),
        ("graph.kron_expand_calls", "count", calls("graph.kron_expand")),
        ("controller.planar_s", "s", own("controller.planar")),
        ("controller.planar_calls", "count", calls("controller.planar")),
        ("controller.yaw_s", "s", own("controller.yaw")),
        ("controller.yaw_calls", "count", calls("controller.yaw")),
        ("lti.plant_step_s", "s", own("lti.plant_step")),
        ("lti.plant_step_calls", "count", calls("lti.plant_step")),
        ("lti.discretize_s", "s", own("lti.discretize")),
        ("lti.discretize_calls", "count", calls("lti.discretize")),
        ("lti.model_library_s", "s", own("lti.model_library")),
        ("scenario.load_s", "s", own("scenario.load")),
        ("formation.convergence_s", "s", own("formation.convergence")),
        ("formation.convergence_calls", "count", calls("formation.convergence")),
        ("sim.loop_self_s", "s", own("sim.loop")),
        ("sim.export_s", "s", own("sim.export")),
        ("sim.step_us_p50", "us", step(50)),
        ("sim.step_us_p99", "us", step(99)),
    ]


def per_layer(sp, untraced, traced) -> dict:
    summaries = [sp.summarize(s.spans) for s in traced if s.seconds is not None]
    metrics: dict = {}
    for metric, unit, value in per_layer_table():
        values = [value(summary) for summary in summaries]
        report(metrics, metric, statistics.median_low(values), unit,
               f"median of {len(values)} traced operations")
    plain = statistics.median(s.seconds for s in untraced if s.seconds is not None)
    slow = statistics.median(s.seconds for s in traced if s.seconds is not None)
    report(metrics, "trace.overhead_ratio", slow / plain, "ratio",
           f"traced run_s {slow:.6g} s / untraced run_s {plain:.6g} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: each scenario's own)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl, sp = import_package()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    print(f"workload {name} (scenario {wl.SCENARIOS[name]}), seed "
          f"{'scenario default' if seed is None else seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    if args.trace:
        untraced = measure(wl, sp, name, seed, args.seconds / 2)
        traced = measure(wl, sp, name, seed, args.seconds / 2, sp.Tracer())
        groups = [untraced, traced]
    else:
        wl.setup(name, seed)   # the first set-up also pays one-time lazy work
        hostspeed.probe()
        with hostspeed.Sampler() as sampler:
            host = HostTimes(sampler)
            groups = [measure(wl, sp, name, seed, args.seconds, host=host)]
    samples = [s for group in groups for s in group]
    fingerprint_problems(samples)
    if any(all(s.seconds is None for s in group) for group in groups):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(sp, untraced, traced)
        path = OUT / f"spans-{name}-seed{'default' if seed is None else seed}.csv.gz"
        sp.write_csv(path, [s.spans for s in traced])
        print(f"  spans of {len(traced)} traced operations written to "
              f"{path.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(name, samples, host)
    for line in reference_lines(name, seed, samples):
        print(line)
    for k, s in enumerate(samples):
        for problem in s.problems:
            print(f"  operation {k} failed: {problem}")
    failed = sum(1 for s in samples if s.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
