"""Every demo script, and the README's python quickstart, runs to completion
against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    if demo.suffix == ".md":
        code = demo.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        demo = tmp_path / "quickstart.py"
        demo.write_text(code)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
