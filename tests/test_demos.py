"""Every narrative script under demos/ and the README quickstart run to the end.

Each script runs in a fresh interpreter with the package on its path and a
temporary directory as its working directory, so files a script writes (the
power sweep's CSV) land there and not in the checkout.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_script(args, cwd):
    """Run python with args in cwd; return its stdout after asserting exit 0
    and some output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    return done.stdout


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    run_script([str(script)], tmp_path)


def test_readme_quickstart_runs(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = run_script(["-c", code], tmp_path)
    assert "vs half-duplex" in out
