"""apadmm benchmark: one workload per invocation, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload paper_solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same work twice, untraced and then with every
public function of the package wrapped in spans, and reports the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, the environment and (traced) the raw spans go
to ``perfbench/out/``. The package is imported from ``src/`` of the
checkout this file sits in, and from nowhere else.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_PROBES = 3
# traced runs do the untraced and the traced pass on a third of the units
TRACE_SHARE = 3.0


def _pin_blas():
    # one BLAS thread keeps timings steady on a shared 2-core machine; the
    # variables must be set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import apadmm from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "apadmm" / "__init__.py").is_file():
        sys.stderr.write("error: no apadmm sources under %s\n" % src)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import apadmm
    import apadmm.cli
    if Path(apadmm.__file__).resolve().parent != (src / "apadmm").resolve():
        sys.stderr.write("error: apadmm imported from %s\n" % apadmm.__file__)
        sys.exit(2)
    return apadmm, apadmm.cli


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup_probe(args):
    """Child process: time import plus instance generation once.

    Prints the raw time and the time at reference speed. The reference is
    sampled after set-up, so that numpy's import stays in the timed part.
    """
    start = time.perf_counter()
    ap, _ = _import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workload.setup(ap, args.seed, workloads.units_for(workload, args.seconds))
    raw = time.perf_counter() - start
    reference = workloads.Reference()
    speed = reference.speed(workload.profile, *(reference.sample() for _ in range(3)))
    print(json.dumps({"setup_s": raw * speed, "raw_s": raw}))


def _setup_seconds(args):
    """Median set-up time at reference speed over fresh interpreter processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(s["setup_s"] for s in samples), samples


def _section(ap, cli, workload, seed, units, workdir, scaled, tracer=None):
    """Set up and run one timed section.

    Returns the tally and the raw wall time of the section. With ``scaled``
    every job is timed against the reference kernel.
    """
    import workloads
    if tracer is not None:
        tracer.install(ap)
    try:
        state = workload.setup(ap, seed, units)
        tally = workloads.Tally(reference=workloads.Reference() if scaled else None,
                                profile=workload.profile)
        gc.collect()
        start = time.perf_counter()
        workload.timed(ap, cli, state, tally, workdir)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    del state
    workloads.verify(ap, tally)
    return tally, wall


def _tail(samples):
    """Highest standard percentile with at least ten samples beyond it."""
    import numpy
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(numpy.percentile(samples, p))
    return None


def end_to_end(tally, setup_s):
    """End-to-end metrics; wall_s is the sum of the tally's job times."""
    import workloads
    median = lambda xs: float(statistics.median(xs)) if xs else 0.0
    metrics = {"wall_s": (tally.job_s, "s"), "setup_s": (setup_s, "s")}
    for algorithm in workloads.ALGORITHMS:
        metrics["update_us." + algorithm] = (
            median(tally.update_us[algorithm]), "us")
    iters = tally.iterations
    metrics["iters_mean"] = (statistics.fmean(iters) if iters else 0.0, "count")
    metrics["converged_ratio"] = (len(iters) / tally.aimed if tally.aimed else 0.0, "ratio")
    metrics["check_s"] = (median(tally.unit_check_s), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _metric_lines(metrics):
    return ["%-45s %14.6g %s" % (name, value, unit)
            for name, (value, unit) in metrics.items()]


def _report_lines(tally, metrics):
    lines = _metric_lines(metrics)
    for algorithm, samples in sorted(tally.update_us.items()):
        tail = _tail(samples)
        lines.append("update_us.%s: n=%d runs, %s" % (
            algorithm, len(samples),
            "p%g=%.6g us" % tail if tail else "too few runs for a tail percentile"))
    by_rows = {}
    for rows, seconds in tally.loads:
        by_rows.setdefault(rows, []).append(seconds)
    for rows, seconds in sorted(by_rows.items()):
        lines.append("load_run %d rows: median %.4g s over %d loads"
                     % (rows, statistics.median(seconds), len(seconds)))
    lines.append("runs: %d aimed to converge, %d converged"
                 % (tally.aimed, len(tally.iterations)))
    return lines


def main(argv=None):
    _pin_blas()
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if args.setup_probe:
        return _setup_probe(args)

    ap, cli = _import_package()
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("tmp-%d" % os.getpid())
    workdir.mkdir()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        if args.trace:
            import tracing
            units = workloads.units_for(workload, args.seconds / TRACE_SHARE)
            plain, plain_wall = _section(ap, cli, workload, args.seed, units,
                                         workdir, scaled=False)
            tracer = tracing.Tracer()
            traced, traced_wall = _section(ap, cli, workload, args.seed, units,
                                           workdir, scaled=False, tracer=tracer)
            table = tracer.spans()
            info = {"updates": traced.updates, "collected": traced.collected,
                    "rows_replayed": traced.rows_replayed,
                    "saved_bytes": statistics.fmean(traced.saved_bytes) if traced.saved_bytes else 0,
                    "dim": workload.dim,
                    "wall": traced_wall, "overhead": traced_wall - plain_wall}
            metrics = tracing.layer_metrics(table, info)
            table.save(OUT / (tag + ".spans.npz"))
            detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                      "spans": table.summary()}
            tallies = (plain, traced)
            lines = _metric_lines(metrics) + [
                "untraced wall %.4g s, traced wall %.4g s, %d spans"
                % (plain_wall, traced_wall, len(table.name))]
        else:
            setup_s, setup_samples = _setup_seconds(args)
            units = workloads.units_for(workload, args.seconds)
            tally, wall = _section(ap, cli, workload, args.seed, units, workdir,
                                   scaled=True)
            metrics = end_to_end(tally, setup_s)
            samples = tally.reference.samples
            speed = tally.reference.speed(workload.profile, *samples)
            detail = {"raw_wall_s": wall, "raw_job_s": tally.raw_job_s,
                      "reference_speed": speed,
                      "reference_samples_s": samples,
                      "setup_samples": setup_samples,
                      "update_us_samples": tally.update_us,
                      "unit_check_s": tally.unit_check_s, "loads": tally.loads}
            tallies = (tally,)
            lines = _report_lines(tally, metrics) + [
                "times above are at reference speed; raw section wall %.4g s, raw job"
                " time %.4g s, mean reference speed %.3f over %d samples"
                % (wall, tally.raw_job_s, speed, len(samples))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    lines.append("operations: %d attempted, %d failed" % (attempted, failed))
    lines += ["FAILED %s" % f for f in failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / (tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, units=units, detail=detail,
                       failures=failures), fh, indent=1)
    print("perfbench %s: %d units, environment %s" % (tag, units, json.dumps(env)))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
