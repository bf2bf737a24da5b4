import sys
import numpy as np
from niformation.sim import run_scenario
from niformation import obstacle
from niformation.scenario import load_scenario

name = sys.argv[1]
scn = load_scenario(name)
circles = [obstacle.circle_from_observation(p) for p in scn.obstacles]
if not circles:
    print(f"{name}: the run has no obstacles")
    sys.exit(0)
log = run_scenario(name)
T, n, _ = log.positions.shape
worst = (1e9, None)
for k in range(T):
    for i in range(n):
        for j, c in enumerate(circles):
            d = float(np.linalg.norm(log.positions[k, i] - np.asarray(c.center)))
            b = d - c.radius
            if b < worst[0]:
                worst = (b, (log.times[k], i + 1, j, tuple(log.positions[k, i])))
print("worst boundary:", worst[0], "at t=%.2f agent=%d obstacle=%d pos=%s" % worst[1])
b0, (t0, a0, o0, _) = worst
mask = np.abs(log.times - t0) <= 1.5
for k in np.where(mask)[0][::15]:
    p = log.positions[k, a0 - 1]
    c = circles[o0]
    d = float(np.linalg.norm(p - np.asarray(c.center))) - c.radius
    print(f"  t={log.times[k]:6.2f} agent{a0}=({p[0]:8.2f},{p[1]:8.2f}) "
          f"boundary={d:6.2f} cmd=({log.commands[k, a0-1, 0]:7.1f},"
          f"{log.commands[k, a0-1, 1]:7.1f})")
