"""Every example in the README runs and exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(args, capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("amphimax ")
]


def test_command_line_examples_exit_0(tmp_path):
    assert [argv[1] for argv in COMMANDS] == ["gen", "solve", "simulate", "exact", "net", "ratio"]
    # in order: later commands read the instance the first one writes
    for argv in COMMANDS:
        proc = _run([sys.executable, "-m", "amphimax", *argv[1:]], tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_library_example_exits_0(tmp_path):
    proc = _run([sys.executable, "-c", _block("Library", "python")], tmp_path)
    assert proc.returncode == 0, proc.stderr
