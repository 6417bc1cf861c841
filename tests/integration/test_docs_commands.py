"""The documented ``python -m repro`` commands must keep working.

Every line of a fenced code block in ``docs/*.md`` that invokes
``-m repro`` (directly or under ``-m cProfile``) is fed, ``#`` comment
stripped, to the real :func:`repro.__main__.build_parser`.  The
``synth`` commands also run end to end in a fresh process, from a
temporary directory and under a small time limit, so the docs cannot
drift from the CLI again.
"""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from repro.__main__ import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
_FENCE = re.compile(r"^\s*(```|~~~)")
_COMMAND = re.compile(r"-m repro\s+(.*)$")


def _documented_commands():
    commands = []
    for path in sorted((ROOT / "docs").glob("*.md")):
        fenced = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _FENCE.match(line):
                fenced = not fenced
                continue
            match = _COMMAND.search(line) if fenced else None
            if match:
                argv = shlex.split(match.group(1), comments=True)
                commands.append(pytest.param(argv,
                                             id=f"{path.name}:{lineno}"))
    return commands


COMMANDS = _documented_commands()
SYNTH_COMMANDS = [param for param in COMMANDS
                  if param.values[0][0] == "synth"]


def test_docs_have_commands():
    # Guard the extraction itself: an empty list would pass vacuously.
    assert len(COMMANDS) >= 30
    assert len(SYNTH_COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`repro {' '.join(argv)}` rejected by the CLI "
                    f"(exit {exc.code}): {capsys.readouterr().err}")


@pytest.mark.parametrize("argv", SYNTH_COMMANDS)
def test_documented_synth_runs(argv, tmp_path):
    # A documented store under ``~`` lands in the temporary directory.
    argv = [str(tmp_path) + arg[1:] if arg.startswith("~") else arg
            for arg in argv]
    env = dict(os.environ, HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"),
                               os.environ.get("PYTHONPATH")) if p))
    env.pop("REPRO_STORE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--time-limit", "10"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
