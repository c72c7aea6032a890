"""Shared test set-up."""

import os
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env(monkeypatch):
    """
    Put this checkout's `src` first on PYTHONPATH as an absolute path, so
    that the `python -m operadics` subprocesses of the tests using this
    fixture import the package under test from any working directory
    (several run with `cwd=tmp_path`).
    """
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), inherited])))


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
