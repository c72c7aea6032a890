"""
Single-entry faults too slow for the Tier-1 suite, against the per-case
loops of `test_law_kernels`.

Each of the 1,735 faults of the packaged ass.json, one compose or action
entry answering another label of its level or "foreign", must give
`check_operad` the outcome of `reference_check_operad`: each law's
verdict, count and witness, or the same error.  So must each of the 1,735
faults of ass up to arity 3 with every level's labels renamed p0, p1, ...
by rank, where only a row element's arity tells one level's p0 from
another's.  The ass.json faults must also give the monad laws on {a, b}
at bound 2 the outcome of `reference_monad_laws`, or a `ValueError` where
no right action is left.  So must a "foreign" entry of comm over the
symmetric groups up to arity 5, the largest group of any test, at each of
the 120 S_5 action entries (5, "*", g) and at the compose entries
(5; 1,1,1,1,1) and (1; 5): every level there has one label, so each law's
groups are decided unwalked until the fault is met.  The ass.json faults
take about a minute, the relabelled ones about half a minute and the S_5
ones about a minute and a half, mostly in the reference, too long for the
Tier-1 suite, whose default file pattern does not collect this module; run
it by path:

    PYTHONPATH=src python -m pytest -q tests/exhaustive_faults.py
"""

import pytest

from operadics.action_operads import instance_symmetric
from operadics.g_operads import check_operad, load_operad, operad_comm
from test_law_kernels import (
    OPERADS,
    RELABELLED,
    check_every_single_entry_fault,
    check_every_single_entry_fault_of_the_monad_laws,
    outcome,
    rebind,
    reference_check_operad,
    results,
)


def test_every_single_entry_fault_of_ass_json_is_reported_as_the_per_case_loops_report_it():
    assert check_every_single_entry_fault(OPERADS["ass.json"]) == 1735


def test_every_single_entry_fault_of_the_relabelled_ass3_is_reported_as_the_per_case_loops_report_it():
    assert check_every_single_entry_fault(lambda: load_operad(RELABELLED[3], "relabelled ass")) == 1735


def test_every_single_entry_fault_of_ass_json_gives_the_monad_laws_of_the_per_case_loops():
    assert check_every_single_entry_fault_of_the_monad_laws(OPERADS["ass.json"]) == 1735


S5_KEYS = [
    *((5, "*", g) for g in instance_symmetric().elements(5)),
    (5, (1, 1, 1, 1, 1), "*", ("*",) * 5),
    (1, (5,), "*", ("*",)),
]


def comm5():
    return operad_comm(instance_symmetric(), max_arity=5)


@pytest.mark.parametrize("key", S5_KEYS, ids=map(repr, S5_KEYS))
def test_a_foreign_entry_at_an_s5_level_is_reported_as_the_per_case_loops_report_it(key):
    fast = outcome(lambda: results(check_operad(rebind(comm5(), key, "foreign"))))
    assert fast == outcome(lambda: results(reference_check_operad(rebind(comm5(), key, "foreign"))))
