"""Shared test set-up."""

import os
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
