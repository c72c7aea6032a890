"""
The trusted constructors on real traffic.

Kernels build the permutations and braid words they derive from validated
inputs with `permutations._trusted` and `braids._trusted_word`, skipping
validation.  Here every module's trusted constructors are rebound to the
validating ones, so every derived value is validated again, and the
verification suites must still print their golden output byte for byte.
"""

from pathlib import Path

import pytest

import operadics
from operadics import braids, cli, permutations
from operadics.braids import BraidWord
from operadics.permutations import Permutation

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def validating(monkeypatch):
    """Rebind each module's trusted constructors to validating ones; count their calls."""
    calls = {"_trusted": 0, "_trusted_word": 0}

    def permutation(image):
        calls["_trusted"] += 1
        return Permutation(image)

    def word(strands, letters):
        calls["_trusted_word"] += 1
        return BraidWord(strands, letters)

    replacements = {"_trusted": permutation, "_trusted_word": word}
    modules = [
        module for module in vars(operadics).values()
        if getattr(module, "__name__", "").startswith("operadics.")
    ]
    assert permutations in modules and braids in modules
    for module in modules:
        for name, replacement in replacements.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, replacement)
    return calls


@pytest.mark.parametrize(
    "arguments, golden",
    [
        (["verify", "all"], "verify_all.txt"),
        (["verify", "pscomm", "--group", "braid", "--bound", "3"], "pscomm_braid_3.txt"),
    ],
)
def test_validating_every_derived_value_changes_no_output(validating, capsys, arguments, golden):
    assert cli.main(arguments) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
    assert validating["_trusted"] > 0 and validating["_trusted_word"] > 0
