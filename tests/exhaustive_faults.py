"""
Every single-entry fault of the packaged ass.json, against the per-case
loops of `test_law_kernels`.

Each of its 1,735 faults, one compose or action entry answering another
label of its level or "foreign", must give `check_operad` the outcome of
`reference_check_operad`: each law's verdict, count and witness, or the
same error.  The faults take about half a minute, too long for the Tier-1
suite, whose default file pattern does not collect this module; run it by
path:

    PYTHONPATH=src python -m pytest -q tests/exhaustive_faults.py
"""

from test_law_kernels import check_every_single_entry_fault


def test_every_single_entry_fault_of_ass_json_is_reported_as_the_per_case_loops_report_it():
    assert check_every_single_entry_fault("ass.json") == 1735
