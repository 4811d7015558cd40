"""Print how far the iterates of two versions drift apart on the digest grid.

    python3 tools/digest_deltas.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``apadmm`` package. Each
tree runs the grid of ``tools/run_digest.py`` in a subprocess of its
own, which imports ``run_digest`` and so pins the BLAS to one thread the
same way. For each run, one line gives its label, whether the
termination and the three counts (iterations, updates, staleness
violations) match, and the largest relative delta over every snapshot
of ``x``, ``x_local`` and ``y``: ``max |new - old| / max |old|`` per
snapshot array, compared over the snapshots both runs have. A last line
gives the largest delta over the grid. Nothing is timed. Both trees
run at once, and only one run's snapshots per tree are held at a time.
"""

import os
import pickle
import subprocess
import sys

import numpy as np

TOOLS = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("x", "x_local", "y")

# the child: run_digest reads the tree from sys.argv[1] and pins the BLAS
# before numpy is imported; one pickled record per run goes to stdout
CHILD = """
import pickle, sys
sys.path.insert(0, %r)
import run_digest
import numpy as np
for label, _, _, result in run_digest.runs():
    states = result.trace.states
    record = (label, result.termination, result.iterations, result.updates,
              len(result.violations),
              {name: np.stack([getattr(s, name) for s in states])
               for name in %r})
    pickle.dump(record, sys.stdout.buffer)
    sys.stdout.buffer.flush()
""" % (TOOLS, FIELDS)


def records(src):
    """Start the grid on one tree; yield its records as they arrive."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD, src],
                            stdout=subprocess.PIPE)
    try:
        while True:
            try:
                yield pickle.load(proc.stdout)
            except EOFError:
                break
    finally:
        proc.stdout.close()
        if proc.wait():
            sys.exit("digest grid failed on %s" % src)


def relative_delta(old, new):
    """Largest ``max |new - old| / max |old|`` over matching snapshots."""
    rows = min(len(old), len(new))
    old, new = old[:rows], new[:rows]
    axes = tuple(range(1, old.ndim))
    gap = np.max(np.abs(new - old), axis=axes)
    scale = np.max(np.abs(old), axis=axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap == 0.0, 0.0, gap / scale)
    return float(ratio.max())


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: digest_deltas.py OLD_SRC NEW_SRC")
    deltas = []
    for old, new in zip(records(sys.argv[1]), records(sys.argv[2]),
                        strict=True):
        label = old[0]
        if new[0] != label:
            sys.exit("the two grids disagree: %r against %r" % (label, new[0]))
        counts = "same" if old[1:5] == new[1:5] else "DIFFER %r -> %r" % (
            old[1:5], new[1:5])
        delta = np.max([relative_delta(old[5][name], new[5][name])
                        for name in FIELDS])
        deltas.append(delta)
        print("%-46s counts %s  max_rel_delta %.2e" % (label, counts, delta))
    print("%-46s max_rel_delta %.2e" % ("all runs", np.max(deltas)))


if __name__ == "__main__":
    main()
