"""Shared test set-up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_process(monkeypatch):
    """
    Run `python -m operadics` in a fresh interpreter: arguments in; the
    `CompletedProcess` with its exit code and text output out.  This
    checkout's `src` goes first on PYTHONPATH as an absolute path, so the
    package under test is imported from any working directory `cwd`.  No
    inherited PYTHONHASHSEED is passed on, so each run hashes strings with
    a fresh seed and output that depended on set or dict order by hash
    would not match its golden.  A run past 60 s is killed and fails the
    test.
    """
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), inherited])))
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)

    def run(*arguments, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "operadics", *arguments],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=60,
        )

    return run


@pytest.fixture
def cli_run(monkeypatch, capsys):
    """
    Run `cli.main` in process: arguments in; a `CompletedProcess` out with
    the exit code, standard output and standard error that
    `python -m operadics` would give.  A `SystemExit` (argparse's usage
    errors and help) gives its code.  `COLUMNS` is pinned, so argparse
    wraps its text the same way on every terminal, and `cwd` changes the
    working directory for the rest of the test.
    """
    from operadics import cli

    monkeypatch.setenv("COLUMNS", "80")

    def run(*arguments, cwd=None):
        if cwd is not None:
            monkeypatch.chdir(cwd)
        capsys.readouterr()
        try:
            code = cli.main(list(arguments))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(arguments), code, out, err)

    return run
