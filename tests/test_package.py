"""Package-level tests: the public surface, the demos that use it, and
what importing the package loads of scipy."""

import inspect
import os
import subprocess
import sys

import pytest

import apadmm

PUBLIC = {
    "soft_threshold", "project_ball", "prox_l1_ball",
    "certify", "descent_margin", "minimal_rho",
    "DelayModel", "LinkModel", "StarNetwork",
    "RunConfig", "run", "optimality_measure", "trace_residuals",
    "CampaignCell", "SparsePcaSpec", "campaign_csv", "generate",
    "run_campaign", "__version__",
}

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")
DEMOS = sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py"))


def test_public_surface_is_the_used_api():
    assert len(apadmm.__all__) == len(set(apadmm.__all__))
    assert set(apadmm.__all__) == PUBLIC and len(PUBLIC) == 19
    for name in apadmm.__all__:
        assert getattr(apadmm, name) is not None
    # every public binding other than the layer submodules is exported
    bound = {name for name, value in vars(apadmm).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound <= set(apadmm.__all__)


def fresh_python(args, cwd=None):
    """``python args`` in a fresh interpreter that imports the same apadmm
    package this process imported."""
    src = os.path.dirname(os.path.dirname(apadmm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    assert fresh_python([os.path.join(DEMO_DIR, demo)], cwd=str(tmp_path)).strip()


def test_a_run_loads_no_scipy_package():
    """Importing apadmm and its command line, generating a desk instance
    and running the exact baseline on it (``dsyevr`` for the bounds,
    ``dpotrf`` and ``dpotrs`` for the inverses) load scipy's two compiled
    modules and run neither ``scipy.linalg``'s nor ``scipy.sparse``'s
    package ``__init__``."""
    out = fresh_python(["-c", """
import sys
import apadmm, apadmm.cli
from apadmm import RunConfig, SparsePcaSpec, generate, run
problem = generate(SparsePcaSpec(dim=50, num_components=5, rows=20, seed=1))
result = run(problem, RunConfig(algorithm="sync_admm", max_iters=5))
assert problem.penalty_inverses and result.updates == 5
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""])
    assert out.strip() == str(["scipy.linalg._flapack", "scipy.sparse._sparsetools"])


@pytest.mark.parametrize("first", ["scipy", "apadmm"])
def test_apadmm_and_scipy_share_the_compiled_modules(first):
    """In either import order the problems call the function objects of
    ``scipy.sparse._sparsetools`` and the module ``scipy.linalg._flapack``
    that scipy itself uses, and ``scipy.linalg.eigvalsh`` still works."""
    imports = ["import scipy.linalg, scipy.sparse", "from apadmm import problems"]
    if first == "apadmm":
        imports.reverse()
    out = fresh_python(["-c", "\n".join(imports + ["""
import sys
import numpy as np
from scipy.sparse import _sparsetools
for name in ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"):
    assert getattr(problems, name) is getattr(_sparsetools, name), name
assert problems._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg.lapack.dsyevr is problems._flapack.dsyevr
assert scipy.linalg.eigvalsh(np.diag([3.0, 1.0, 2.0])).tolist() == [1.0, 2.0, 3.0]
assert (scipy.sparse.csr_array(np.eye(2)) @ np.ones(2)).tolist() == [1.0, 1.0]
print("ok")
"""])])
    assert out.strip() == "ok"
