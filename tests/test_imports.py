"""Import footprint: the serving and framework modules load no scipy.

scipy costs tens of MB of resident memory to import, and MVTS serving
never calls it. Only the TSFRESH Welch spectrum, L2 logistic regression
and the drift monitor's KS test need it, and each imports it where it
is called.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_serving_and_framework_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "import repro.core.framework, repro.serving.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
