"""
Solver quickstart
=================

Generate a sparse principal-component instance, solve it with the
asynchronous algorithm under simulated delays, and compare against the
two synchronous baselines on the same problem.
"""

from apadmm import RunConfig, run
from apadmm.benchmark import SparsePcaSpec, generate

spec = SparsePcaSpec(dim=30, num_components=4, rows=12, nonzero_prob=0.15,
                     l1_weight=0.05, seed=2)
problem = generate(spec)
print("instance: dim=%d, K=%d, L_k=%s" % (
    problem.dim, problem.num_components,
    [round(float(L), 2) for L in problem.lipschitz]))

cfg = RunConfig(algorithm="async_padmm", delay_bound=3, seed=0,
                max_iters=4000, epsilon=1e-6, init="random_ball",
                compute_delay={"kind": "uniform", "hi": 2.0})
out = run(problem, cfg)
print("\nasync run: %s after %d iterations (%d gradient updates)" % (
    out.termination, out.iterations, out.updates))
print("penalties: %s" % [round(float(r), 2) for r in out.rho])
for i in (0, 9, 99, len(out.trace) - 1):
    print("  iter %4d  L=%12.6f  e=%.3e  collected=%d" % (
        i + 1, out.trace.lagrangian[i], out.trace.measure[i],
        out.trace.collected[i]))

# the baselines see the same instance; synchronous rounds wait for the
# slowest worker, so their wall-clock per iteration is worse even when
# the iteration counts are comparable
for algo in ("sync_padmm", "sync_admm"):
    res = run(problem, RunConfig(algorithm=algo, delay_bound=0, seed=0,
                                 max_iters=4000, epsilon=1e-6,
                                 init="random_ball"))
    print("%10s: %s after %d iterations, final e=%.3e" % (
        algo, res.termination, res.iterations, res.final_measure))
