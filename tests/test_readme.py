import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcap import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_example_runs(index):
    # each block runs on its own, as a reader would paste it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PYTHON_BLOCKS[index]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def _figure_command(fig: str) -> list[str]:
    # the README's `qcap sweep ... --chi --out figN.csv` line, continuations joined
    commands = README.replace("\\\n", " ")
    line = re.search(rf"^qcap (sweep .* --chi --out {fig}\.csv)$", commands, re.M)
    assert line, f"README has no {fig} sweep command"
    return shlex.split(line.group(1))


@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_readme_figure_sha_prefix(fig, tmp_path, capsys):
    prefix = re.search(rf"`([0-9a-f]{{8}})…`\s+\({fig}\)", README)
    assert prefix, f"README quotes no sha256 prefix for {fig}"
    argv = _figure_command(fig)
    out = tmp_path / f"{fig}.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest.startswith(prefix.group(1))
