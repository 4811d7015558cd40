"""
Simulated networks
==================

The discrete-event simulator underneath the solver, driven directly:
scripted delays, message loss, busy workers, and what each does to the
traffic of results. Then the same instance solved under increasingly
stale networks to show the iteration cost of asynchrony.
"""

import numpy as np

from apadmm import DelayModel, LinkModel, RunConfig, StarNetwork, run
from apadmm.benchmark import SparsePcaSpec, generate


clean = LinkModel(DelayModel.constant(0.0))
# worker 0 is fast and clean; worker 1 is slow with a lossy, scripted uplink;
# a result carries the copy its worker computed on, so every collected
# message reveals which broadcast reached that worker
net = StarNetwork(
    2,
    downlinks=[clean, clean],
    uplinks=[clean, LinkModel(DelayModel.empirical([1.0, 3.0]), loss=0.3)],
    compute_delays=[DelayModel.constant(0.5), DelayModel.constant(2.5)],
    seed=4)

for copy in range(1, 9):
    got = net.run_window(np.array([float(copy)]), copy_index=copy)
    arrivals = sorted((k, int(m.payload[0])) for k, m in got.items())
    print("window %d (t=%4.1f): (worker, computed-on-copy) %s" % (
        copy, net.now, arrivals))

print("dropped while busy:", net.dropped_busy)
print("lost on the uplink:", net.lost_up)

# the solver drives the same machinery; staler networks mean more
# iterations to the same threshold
problem = generate(SparsePcaSpec(dim=30, num_components=4, rows=12,
                                 nonzero_prob=0.15, l1_weight=0.0, seed=2))
print()
for T in (0, 2, 5, 8):
    cfg = RunConfig(algorithm="async_padmm", delay_bound=T, seed=1,
                    max_iters=20000, epsilon=1e-3, init="random_ball",
                    enforcement="observe",
                    compute_delay={"kind": "uniform", "hi": float(T)})
    res = run(problem, cfg)
    print("T=%d: rho=%6.2f  %s in %5d iterations" % (
        T, float(res.rho[0]), res.termination, res.iterations))
