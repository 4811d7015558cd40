"""The benchmark's workloads, the jobs they run, and the checks on their outputs.

Every input is derived from the workload seed: instance seeds, network
seeds and campaign seeds are fixed functions of it. How many units a run
holds is a fixed function of ``--seconds``, so a given (seed, seconds)
pair always does the same work. Runs call the package only through
attributes looked up at call time (``ap.run``, ``cli.load_run``), so a
traced run sees every call through the wrapped names.
"""

import math
import os
import statistics
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np

ALGORITHMS = ("async_padmm", "sync_padmm", "sync_admm")
DESK = dict(dim=50, num_components=5, rows=20, nonzero_prob=0.1)
PAPER = dict(dim=500, num_components=10, rows=100, nonzero_prob=0.1)

# the network of ``apadmm run --preset desk``: T=3, compute uniform(0, 2),
# penalties certified at the bound, staleness enforced
PRESET_NETWORK = dict(delay_bound=3, init="random_ball",
                      compute_delay={"kind": "uniform", "lo": 0.0, "hi": 2.0})

# desk table2 (delay sweep, with the heterogeneous [0,0,0,0,5]) and desk
# table4 (l1 sweep at T=5), written out so preset edits do not move the inputs
TABLE2_DELAYS = (0, 2, 5, [0, 0, 0, 0, 5])
TABLE4_WEIGHTS = (1.0, 2.0, 4.0)

# replayed trace lengths; load_run grows quadratically in the row count,
# and the pair keeps that growth visible (see README.md)
REPLAY_ROWS = (120, 240)
PAPER_PROBE_ROWS = 12

# the iterate-equality tolerance when re-deriving the optimality measure
MEASURE_RTOL = 1e-12

# a reference sample taken this recently is reused as the next job's "before"
REUSE_WITHIN = 0.05


class Reference:
    """Fixed work that does not touch apadmm, timed around every job.

    On a shared machine the same work can take twice as long a few seconds
    later. So each job (one solver run, one store, one check) is timed
    between two samples of this kernel, and its time is multiplied by the
    kernel's ``NOMINAL`` time over the mean of those two samples: the job's
    time at the reference speed. ``NOMINAL`` holds the kernel's times at a
    typical speed of the 2-core box the benchmark was tuned on (see
    README.md), so scaled times read close to raw ones.

    The kernel has four parts, timed one by one: small-vector numpy calls in
    a Python loop (``numpy``), plain bytecode (``python``), dense 500x500
    matvecs, eight passes over 20 MB (``blas``), and zlib inflation
    (``zlib``). Parts slow
    down by different amounts when the machine is busy, so a job is scaled
    by the geometric mean over the parts its ``PROFILES`` entry names:
    desk-scale runs and stores by the first three, paper-scale ones (dense
    matvecs) by ``blas`` alone, checks (decompression and small-array
    residuals) by ``numpy`` and ``zlib``.
    """

    NOMINAL = {"numpy": 0.006, "python": 0.003, "blas": 0.012, "zlib": 0.004}
    PROFILES = {"solve": ("numpy", "python", "blas"), "paper": ("blas",),
                "check": ("numpy", "zlib")}

    def __init__(self):
        rng = np.random.default_rng(0)
        data = rng.random((20, 50))
        self._gram, self._z = data.T @ data, rng.random(50)
        self._mats, self._wide = [rng.random((500, 500)) for _ in range(10)], rng.random(500)
        self._blob = zlib.compress(rng.random(60000).tobytes())
        self.samples = []
        self.taken_at = -math.inf

    def _numpy(self):
        gram, z = self._gram, self._z
        for _ in range(700):
            v = gram @ z
            v = np.sign(v) * np.maximum(np.abs(v) - 0.1, 0.0)
            float(v @ v)

    @staticmethod
    def _python():
        total, table = 0, {}
        for i in range(20000):
            total += i * i % 7
            table[i & 255] = total

    def _blas(self):
        for _ in range(8):
            for mat in self._mats:
                mat @ self._wide

    def _zlib(self):
        zlib.decompress(self._blob)

    def sample(self):
        """Time every part once; returns {part: seconds}."""
        times = {}
        for part in self.NOMINAL:
            start = time.perf_counter()
            getattr(self, "_" + part)()
            times[part] = time.perf_counter() - start
        self.taken_at = time.perf_counter()
        self.samples.append(times)
        return times

    def before(self):
        """The sample just taken, or a fresh one if other work ran since."""
        if time.perf_counter() - self.taken_at > REUSE_WITHIN:
            self.sample()
        return self.samples[-1]

    @classmethod
    def speed(cls, profile, *samples):
        """Nominal over measured time, geometric mean over the profile's parts."""
        parts = cls.PROFILES[profile]
        logs = [math.log(cls.NOMINAL[p] / statistics.fmean(s[p] for s in samples))
                for p in parts]
        return math.exp(statistics.fmean(logs))


def _seeds(seed, units, salt=0):
    return [seed * 10000 + salt * 100 + u for u in range(units)]


def campaign_config(ap, algorithm, delay, seed):
    """The configuration ``run_campaign`` gives each run of a cell."""
    return ap.RunConfig(
        algorithm=algorithm, delay_bound=delay, cert_delay=(delay + 1.0) / 2.0,
        seed=seed, max_iters=5000, epsilon=1e-3, init="random_ball",
        enforcement="observe")


@dataclass
class Tally:
    """What the jobs of one section measured, and the checks still to run.

    Job times are at reference speed (see ``Reference``) when the tally has
    a reference, and raw when it has none. Runs and stores are scaled by
    the ``profile`` of the workload, checks by ``"check"``.
    """

    update_us: dict = field(default_factory=lambda: {a: [] for a in ALGORITHMS})
    iterations: list = field(default_factory=list)
    aimed: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    unit_check_s: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    saved_bytes: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    updates: int = 0
    collected: int = 0
    rows_replayed: int = 0
    failed: int = 0
    reference: Reference = None
    profile: str = "solve"
    job_s: float = 0.0
    raw_job_s: float = 0.0

    def before(self):
        """Reference time to pass to ``scaled`` for a job that starts now."""
        return self.reference.before() if self.reference else None

    def scaled(self, seconds, before, profile=None):
        """A job's raw seconds at reference speed; adds them to the job total."""
        self.raw_job_s += seconds
        if self.reference:
            seconds *= self.reference.speed(profile or self.profile, before,
                                            self.reference.sample())
        self.job_s += seconds
        return seconds

    def fail(self, what, errors, count=1):
        self.failed += count
        self.failures.append("%s: %s" % (what, "; ".join(errors)))

    def solved(self, algorithm, what, problem_fn, result, seconds, epsilon):
        """Account one run that aimed to converge; its checks run later."""
        self.attempted += 1
        self.aimed += 1
        if result.updates:
            self.update_us[algorithm].append(seconds / result.updates * 1e6)
        self.count_updates(algorithm, result)
        if result.converged:
            self.iterations.append(result.iterations)
        self.pending.append((what, problem_fn, result, epsilon))

    def count_updates(self, algorithm, result):
        self.updates += result.updates
        if algorithm == "async_padmm":
            self.collected += int(sum(result.trace.collected))


def run_errors(ap, problem, result, epsilon):
    """Output checks for one run: certified penalties, and a re-derived measure."""
    errors = []
    if not all(c.feasible for c in result.certificates):
        errors.append("automatic penalty is not certified")
    if result.termination not in ("converged", "max_iters"):
        errors.append("terminated with %s" % result.termination)
    if result.converged:
        measure = ap.optimality_measure(problem, result.state)
        if not measure < epsilon:
            errors.append("measure %r is not below epsilon %r" % (measure, epsilon))
        if not math.isclose(measure, result.final_measure, rel_tol=MEASURE_RTOL):
            errors.append("measure %r differs from final_measure %r"
                          % (measure, result.final_measure))
    return errors


def verify(ap, tally):
    """Run the deferred output checks of every solved run."""
    for what, problem_fn, result, epsilon in tally.pending:
        errors = run_errors(ap, problem_fn(), result, epsilon)
        if errors:
            tally.fail(what, errors)
    tally.pending = []


def solve(ap, tally, problem, config):
    what = "%s seed=%d" % (config.algorithm, config.seed)
    before = tally.before()
    start = time.perf_counter()
    try:
        result = ap.run(problem, config)
    except Exception:  # a run that raises is a failed operation, not a crash
        tally.attempted += 1
        tally.fail(what, [traceback.format_exc(limit=3)])
        return
    seconds = tally.scaled(time.perf_counter() - start, before)
    tally.solved(config.algorithm, what, lambda: problem, result, seconds,
                 config.epsilon)


def replay(ap, cli, tally, problem, seed, rows, workdir):
    """``apadmm run --full-trace`` then ``apadmm check``, through the library calls.

    Stores a capped asynchronous run on the desk preset network, reloads
    it and replays the residual checks. Storing and checking are two jobs;
    returns the seconds of the check (load plus residuals).
    """
    what = "replay rows=%d seed=%d" % (rows, seed)
    config = ap.RunConfig(algorithm="async_padmm", seed=seed, max_iters=rows,
                          epsilon=1e-12, full_trace=True, **PRESET_NETWORK)
    csv_path = os.path.join(workdir, "replay-%d-%d.csv" % (seed, rows))
    # ``apadmm run`` writes the snapshots beside the trace as <base>.states.npz
    states_path = csv_path[:-4] + ".states.npz"
    tally.attempted += 1
    try:
        before = tally.before()
        start = time.perf_counter()
        result = ap.run(problem, config)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(cli.trace_csv(result.trace))
        cli.save_states(states_path, problem, result, config.algorithm)
        tally.scaled(time.perf_counter() - start, before)
        tally.count_updates(config.algorithm, result)
        tally.saved_bytes.append(os.path.getsize(states_path))
        before = tally.before()
        start = time.perf_counter()
        loaded, trace, rho, delay_bounds, algorithm = cli.load_run(csv_path)
        loaded_at = time.perf_counter()
        report = ap.trace_residuals(loaded, trace, rho, delay_bounds)
        raw = time.perf_counter() - start
        check_s = tally.scaled(raw, before, "check")
    except Exception:  # a replay that raises is a failed operation, not a crash
        tally.fail(what, [traceback.format_exc(limit=3)])
        return 0.0
    finally:
        for path in (csv_path, states_path):
            if os.path.exists(path):
                os.remove(path)
    tally.loads.append((rows, (loaded_at - start) * check_s / raw))
    tally.rows_replayed += len(trace)
    errors = run_errors(ap, problem, result, config.epsilon)
    if result.termination != "max_iters" or len(trace) != rows:
        errors.append("stored %d rows (%s), expected %d"
                      % (len(trace), result.termination, rows))
    if algorithm != config.algorithm:
        errors.append("reloaded algorithm %r" % algorithm)
    if not report.passed:
        errors.append("residual checks: " + " | ".join(report.lines()))
    if errors:
        tally.fail(what, errors)
    return check_s


class PaperSolve:
    name = "paper_solve"
    why = ("run() at paper scale (N=500, K=10, M=100): bound by component "
           "gradient matvecs, so kernel and trace-recording work shows here")
    unit_seconds = 9.5
    dim = PAPER["dim"]
    profile = "paper"

    # the runs of one unit: every algorithm at T=0 and at T=3, each on an
    # instance of its own, since runs sharing an instance swing together
    configs = tuple((algorithm, delay) for delay in (0, 3) for algorithm in ALGORITHMS)

    def setup(self, ap, seed, units):
        return [[(s, ap.generate(ap.SparsePcaSpec(seed=s, **PAPER)))
                 for s in _seeds(seed, len(self.configs), salt=u)]
                for u in range(units)]

    def timed(self, ap, cli, units, tally, workdir):
        for instances in units:
            for (s, problem), (algorithm, delay) in zip(instances, self.configs):
                solve(ap, tally, problem, campaign_config(ap, algorithm, delay, s))
            s, problem = instances[0]
            tally.unit_check_s.append(
                replay(ap, cli, tally, problem, s, PAPER_PROBE_ROWS, workdir))


class DeskCampaign:
    name = "desk_campaign"
    why = ("run_campaign over the desk table2 and table4 cells: many short "
           "N=50 runs, so call overhead, prox, simulator and per-run setup show")
    unit_seconds = 6.5
    profile = "solve"
    dim = DESK["dim"]

    @staticmethod
    def cells(ap):
        cells = [ap.CampaignCell(algorithm=a, delay_bound=d, l1_weight=0.0, **DESK)
                 for d in TABLE2_DELAYS for a in ALGORITHMS]
        cells += [ap.CampaignCell(algorithm=a, delay_bound=5, l1_weight=w, **DESK)
                  for w in TABLE4_WEIGHTS for a in ALGORITHMS]
        return cells

    def setup(self, ap, seed, units):
        # instances for the replay probes; campaign instances are generated
        # inside run_campaign, in the timed section
        probes = [(s, ap.generate(ap.SparsePcaSpec(seed=s, **DESK)))
                  for s in _seeds(seed, max(1, units // 2), salt=99)]
        return seed, units, probes

    def timed(self, ap, cli, state, tally, workdir):
        seed, units, probes = state
        # each cell gets its own instance seeds: cells sharing one instance
        # per seed make the iteration mean swing with that instance
        for j, cell in enumerate(self.cells(ap)):
            self._campaign(ap, tally, cell, _seeds(seed, units, salt=j))
        for s, problem in probes:
            tally.unit_check_s.append(
                replay(ap, cli, tally, problem, s, REPLAY_ROWS[0], workdir))

    @staticmethod
    def _campaign(ap, tally, cell, seeds):
        marks = [tally.before(), time.perf_counter()]

        def progress(cell, seed, out):
            # run wall here includes the campaign's own instance generation
            seconds = tally.scaled(time.perf_counter() - marks[1], marks[0])
            spec = ap.SparsePcaSpec(
                dim=cell.dim, num_components=cell.num_components, rows=cell.rows,
                nonzero_prob=cell.nonzero_prob, l1_weight=cell.l1_weight, seed=seed)
            tally.solved(cell.algorithm, "campaign %s seed=%d" % (cell.algorithm, seed),
                         lambda: ap.generate(spec), out, seconds, 1e-3)
            marks[:] = [tally.before(), time.perf_counter()]

        started = tally.attempted
        try:
            ap.run_campaign([cell], seeds, max_iters=5000, epsilon=1e-3,
                            progress=progress)
        except Exception:  # the rest of the cell's runs count as failed
            missing = len(seeds) - (tally.attempted - started)
            tally.attempted += missing
            tally.fail("campaign %s" % cell.algorithm,
                       ["%d runs lost" % missing, traceback.format_exc(limit=3)],
                       count=missing)


class ReplayCheck:
    name = "replay_check"
    why = ("store, reload and re-check desk runs of %d and %d rows: the only "
           "workload bound by cli.load_run and trace_residuals" % REPLAY_ROWS)
    unit_seconds = 10.0
    profile = "solve"
    dim = DESK["dim"]
    # desk instances solved per unit, each with one algorithm in turn (one
    # instance per run spreads the solve work over more instances, which
    # keeps wall_s and iters_mean from swinging with a few slow ones); the
    # first instance is also the stored one
    solved_instances = 24

    def setup(self, ap, seed, units):
        return [[(s, ap.generate(ap.SparsePcaSpec(seed=s, **DESK)))
                 for s in _seeds(seed, self.solved_instances, salt=u)]
                for u in range(units)]

    def timed(self, ap, cli, units, tally, workdir):
        for instances in units:
            for i, (s, problem) in enumerate(instances):
                algorithm = ALGORITHMS[i % len(ALGORITHMS)]
                solve(ap, tally, problem, campaign_config(ap, algorithm, 3, s))
            s, problem = instances[0]
            tally.unit_check_s.append(sum(
                replay(ap, cli, tally, problem, s, rows, workdir)
                for rows in REPLAY_ROWS))


WORKLOADS = {w.name: w for w in (PaperSolve(), DeskCampaign(), ReplayCheck())}


def units_for(workload, seconds):
    """Units of work that take about ``seconds`` on a 2-core desk machine."""
    return max(1, int(round(seconds / workload.unit_seconds)))
