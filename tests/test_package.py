"""Package-level tests: the public surface and the demos that use it."""

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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # the child imports the same apadmm package this process imported
    src = os.path.dirname(os.path.dirname(apadmm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(DEMO_DIR, demo)],
                          capture_output=True, text=True, env=env,
                          cwd=str(tmp_path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
