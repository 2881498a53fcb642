"""The demos, the README's library tour and its command lines run as printed."""

import doctest
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import skewtab
from skewtab import cli

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


@pytest.mark.skipif(not README.exists(), reason="no README.md beside the package source")
def test_readme_command_lines(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    shown = {}
    for line in block.splitlines():
        command, _, comment = line.partition("# ")
        prog, *argv = shlex.split(command)
        assert prog == "skewtab", line
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        # a comment that shows output fields, e.g. "e": "3060", shows the true values
        fields = dict(re.findall(r'"(\w+)": "(\w+)"', comment))
        if fields:
            doc = json.loads(out)
            assert {key: doc[key] for key in fields} == fields, line
            shown[command.strip()] = fields
    assert shown == {"skewtab count 4,4,3,2/2,1": {"e": "3060", "F": "1260", "xi": "5"}}
