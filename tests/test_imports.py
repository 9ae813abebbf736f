"""Import footprint: serving, the framework and the TSFRESH campaign load
no scipy.

scipy costs tens of MB of resident memory to import, and neither MVTS
serving nor the TSFRESH features call it: the Welch spectrum is a numpy
port. Only L2 logistic regression and the drift monitor's KS test need
scipy, and each imports it where it is called.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def _scipy_modules_after(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + _SCIPY_MODULES],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_serving_and_framework_import_no_scipy():
    assert _scipy_modules_after("import repro.core.framework, repro.serving.service\n") == "[]"


def test_tsfresh_campaign_loads_no_scipy():
    code = (
        "from repro.core.config import FrameworkConfig\n"
        "from repro.core.framework import ALBADross\n"
        "from repro.datasets.generate import generate_runs\n"
        "from repro.datasets.volta import volta_config\n"
        "system = volta_config(scale=0.02, n_healthy_per_app_input=1,\n"
        "                      n_anomalous_per_app_anomaly=1)\n"
        "runs = generate_runs(system, rng=0)\n"
        "fw = ALBADross(system.catalog, FrameworkConfig(\n"
        "    feature_method='tsfresh', n_features=20, model_params={'n_estimators': 4}))\n"
        "fw.fit_features(runs)\n"
        "fw.fit_initial(runs, [r.label for r in runs])\n"
        "assert len(fw.diagnose(runs[:2])) == 2\n"
    )
    assert _scipy_modules_after(code) == "[]"
