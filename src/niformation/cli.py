"""The `niformation` command: look at simulated runs.

`inspect` runs shipped scenarios (or YAML paths) and prints each run's
status, clearances, restorations and events; then, for a run with
obstacles, the worst approach of any agent to a wrap circle's boundary and
a trajectory window about it.  `sweep` runs a course once in baseline mode
and once in enhanced mode for every (prediction horizon, velocity-estimate
window) cell, and prints each run's worst-case relative position error and
the baseline/enhanced ratio: the shipped knob values should clear their
threshold with margin and sit on a plateau, not a knife edge.  Run it as
`niformation <command>` or `python -m niformation.cli <command>`.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from niformation import obstacle
from niformation.scenario import ScenarioError, load_scenario
from niformation.sim import Simulator

WINDOW_HALF_S = 1.5    # the default window: this far either side of the worst approach
# the prediction horizons and velocity-estimate windows `sweep` tries by default
SWEEP_HORIZONS = (10, 20, 30, 38, 45, 55)
SWEEP_WINDOWS = (5, 10, 15, 25, 40)


def fixed(value, spec: str = ".2f") -> str:
    """`value` formatted by `spec`; a summary's null (a run that diverged)
    prints as None, padded to the spec's width."""
    return format("None", spec.split(".")[0]) if value is None else format(value, spec)


def inspect(scn, window, stride: int) -> None:
    simulator = Simulator(scn)
    log = simulator.run()
    s = log.summary
    print(f"=== {scn.name}: status={s['status']} wp={s['waypoints_completed']} "
          f"t={s['final_time']:.2f}")
    print(f"    min_clearance={s['min_obstacle_clearance_cm']}, "
          f"boundary={s['avoidance_min_boundary_clearance_cm']}, "
          f"final_offset_err={fixed(s['final_offset_error_cm'])}")
    for r in s["restorations"]:
        print(f"    restore: start={r['start_time']:.2f} "
              f"err={fixed(r['offset_error_cm'])} status={r['status']}")
    for ev in log.events:
        extras = {k: v for k, v in ev.items() if k not in ("time", "event")}
        print(f"      ev {ev['time']:.2f} {ev['event']} {extras}")

    centers, radii = obstacle.circle_arrays(simulator.obstacles.circles)
    # (T, n, m): every logged position against every wrap circle
    bound = obstacle.boundary_distances(log.positions, centers, radii)
    if bound.size:
        k, i, j = np.unravel_index(np.argmin(bound), bound.shape)
        x, y = log.positions[k, i].tolist()
        print(f"worst boundary {bound[k, i, j]:.3f} cm at t={log.times[k]:.2f} s, "
              f"agent {i + 1}, obstacle {j}, pos=({x:.2f}, {y:.2f})")
        if window is None:
            window = (log.times[k] - WINDOW_HALF_S, log.times[k] + WINDOW_HALF_S)
    elif not radii.size:
        print(f"{scn.name}: the run has no obstacles")
    if window is None:
        return
    rows = np.nonzero((log.times >= window[0]) & (log.times <= window[1]))[0]
    for k in rows[::stride]:
        agents = " ".join(
            f"a{i + 1}=({p[0]:8.2f},{p[1]:8.2f}) c=({c[0]:7.1f},{c[1]:7.1f})"
            for i, (p, c) in enumerate(zip(log.positions[k], log.commands[k])))
        least = f" boundary={bound[k].min():6.2f}" if bound.size else ""
        print(f"t={log.times[k]:6.2f} ph={log.phases[k]:2d} "
              f"av={log.avoid_modes[k]} {agents}{least}")


def worst_error(scn) -> float:
    return Simulator(scn).run().summary["relative_error_max_overall_cm"]


def sweep(base, cells) -> None:
    print(f"course: {base.name}  dt={base.dt}  noise_std={base.noise_std}  "
          f"delay={base.control.command_delay_steps} steps")
    baseline = worst_error(replace(base, control=replace(base.control, mode="baseline")))
    print(f"baseline worst-case relative error: {fixed(baseline)} cm\n")
    print(f"{'horizon':>8} {'window':>7} {'enhanced':>9} {'ratio':>6}")
    best = None
    for scn in cells:
        horizon = scn.control.prediction_horizon_steps
        window = scn.control.velocity_estimate_window
        enhanced = worst_error(scn)
        ratio = (None if baseline is None or enhanced is None
                 else baseline / enhanced if enhanced else float("inf"))
        print(f"{horizon:>8} {window:>7} {fixed(enhanced, '>9.2f')} {fixed(ratio, '>6.2f')}")
        if ratio is not None and (best is None or ratio > best[0]):
            best = (ratio, horizon, window, enhanced)
    if best is None:
        print("\nbest: None")
        return
    ratio, horizon, window, enhanced = best
    print(f"\nbest: horizon={horizon} window={window} "
          f"enhanced={enhanced:.2f} ratio={ratio:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="niformation", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    look = commands.add_parser("inspect", help="dump runs, their worst approach and a window")
    look.add_argument("scenario", nargs="+", help="scenario name or path to a .yaml file")
    look.add_argument("--window", type=float, nargs=2, metavar=("T0", "T1"),
                      help="trajectory window in s (default: 1.5 s about the worst approach)")
    look.add_argument("--stride", type=int, default=15, help="print every N-th step")
    grid = commands.add_parser("sweep", help="rank the prediction knobs on a course")
    grid.add_argument("--scenario", default="moving_leader_compare",
                      help="scenario name or path to sweep")
    grid.add_argument("--horizons", type=int, nargs="+", default=list(SWEEP_HORIZONS),
                      help="prediction_horizon_steps values to try")
    grid.add_argument("--windows", type=int, nargs="+", default=list(SWEEP_WINDOWS),
                      help="velocity_estimate_window values to try")
    args = parser.parse_args(argv)

    if args.command == "inspect" and args.stride < 1:
        parser.error("--stride must be at least 1")
    if args.command == "inspect" and args.window and not args.window[0] <= args.window[1]:
        parser.error("--window needs T0 <= T1, got {:g} {:g}".format(*args.window))
    try:
        if args.command == "inspect":
            runs = [load_scenario(name) for name in args.scenario]
        else:
            base = load_scenario(args.scenario)
            cells = [replace(base, control=replace(
                base.control, mode="enhanced", prediction_horizon_steps=horizon,
                velocity_estimate_window=window))
                for window in args.windows for horizon in args.horizons]
    except (ScenarioError, OSError) as exc:
        parser.error(str(exc))
    if args.command == "sweep":
        sweep(base, cells)
    else:
        for scn in runs:
            inspect(scn, args.window, args.stride)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
