"""The demos and the README's library tour run as printed."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewtab

ROOT = Path(skewtab.__file__).resolve().parents[2]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.skipif(not DEMOS, reason="no demos/ beside the package source")
def test_demos_run():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)


@pytest.mark.skipif(not README.exists(), reason="no README.md beside the package source")
def test_readme_tour_doctest():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README tour", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 6)
