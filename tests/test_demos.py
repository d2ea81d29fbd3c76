"""Every demo script, and the README's python quickstart, runs to completion
against the source tree."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    # in this process, as ``__main__``: an exception in the demo fails the test
    if demo.suffix == ".md":
        code = demo.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        demo = tmp_path / "quickstart.py"
        demo.write_text(code)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(demo), run_name="__main__")
