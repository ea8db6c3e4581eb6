import os
import subprocess
import sys
from pathlib import Path

import curvewind


def test_current_lane_reported():
    assert curvewind.USING_NUMBA is False


def test_runtime_needs_numpy_alone(tmp_path):
    # scipy and hypothesis are test extras: the library and its command
    # line must import and run with both of them unavailable
    code = (
        "import sys\n"
        "for name in ('scipy', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "import curvewind, curvewind.cli\n"
        "main = curvewind.cli.main\n"
        "assert main(['fixture', 'kidney', '-o', 'kidney.json']) == 0\n"
        "assert main(['winding', 'kidney.json', '--point', '0.2', '0.1']) == 0\n"
    )
    src = str(Path(curvewind.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
