import hashlib
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qcap
from qcap import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
# the backticked spans of the prose, outside the fenced blocks
SPANS = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
MODULES = {info.name: importlib.import_module(f"qcap.{info.name}")
           for info in pkgutil.iter_modules(qcap.__path__)}
_MISSING = object()


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_example_runs(index):
    # each block runs on its own, as a reader would paste it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PYTHON_BLOCKS[index]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def _resolves(dotted: str) -> bool:
    # the first name an attribute of qcap or of one of its modules, and
    # each further name an attribute of the one before
    first, *rest = dotted.split(".")
    for holder in (qcap, *MODULES.values()):
        obj = getattr(holder, first, _MISSING)
        for name in rest:
            obj = getattr(obj, name, _MISSING)
        if obj is not _MISSING:
            return True
    return False


def test_readme_calls_resolve():
    # a backticked call whose name has a "_" or a "." names the library;
    # notation such as F(x) or T(P) has neither
    calls = {m.group(1) for span in SPANS for m in re.finditer(r"([A-Za-z_][\w.]*)\(", span)
             if re.search(r"[_.]", m.group(1))}
    assert calls
    assert sorted(name for name in calls if not _resolves(name)) == []


def test_readme_module_qualified_names_resolve():
    pattern = rf"(?<![\w.])(?:{'|'.join(MODULES)})\.\w+"
    names = {m.group(0) for span in SPANS for m in re.finditer(pattern, span)}
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []


def _command_line_block() -> list[list[str]]:
    # the argv of each `qcap ...` line of the "Command line" block,
    # continuations joined
    block = re.search(r"^## Command line\n+```\n(.*?)```", README, re.S | re.M)
    assert block, "README has no Command line block"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qcap ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # in order, as a reader would paste them: render reads the sweep's CSV
    monkeypatch.chdir(tmp_path)
    commands = _command_line_block()
    assert len(commands) == 8
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


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
