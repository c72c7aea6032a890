"""
Single-entry faults too slow for the Tier-1 suite, against the per-case
loops of `test_law_kernels`.

Each of the 1,735 faults of the packaged ass.json, one compose or action
entry answering another label of its level or "foreign", must give
`check_operad` the outcome of `reference_check_operad`: each law's
verdict, count and witness, or the same error.  So must eight "foreign"
entries of comm over the symmetric groups up to arity 5, the largest group
of any test: the S_5 action at its four generators, at the 5-cycle
(2 3 4 5 1) and at the longest element (5 4 3 2 1), and the compose
entries (5; 1,1,1,1,1) and (1; 5).  The ass.json faults take about half a
minute and the S_5 ones about ten seconds, too long for the Tier-1 suite,
whose default file pattern does not collect this module; run it by path:

    PYTHONPATH=src python -m pytest -q tests/exhaustive_faults.py
"""

import pytest

from operadics.action_operads import instance_symmetric
from operadics.g_operads import check_operad, operad_comm
from operadics.permutations import Permutation
from test_law_kernels import check_every_single_entry_fault, outcome, rebind, reference_check_operad, results


def test_every_single_entry_fault_of_ass_json_is_reported_as_the_per_case_loops_report_it():
    assert check_every_single_entry_fault("ass.json") == 1735


S5_ELEMENTS = [
    *instance_symmetric().generators(5),
    Permutation((2, 3, 4, 5, 1)),
    Permutation((5, 4, 3, 2, 1)),
]
S5_KEYS = [
    *((5, "*", g) for g in S5_ELEMENTS),
    (5, (1, 1, 1, 1, 1), "*", ("*",) * 5),
    (1, (5,), "*", ("*",)),
]


def comm5():
    return operad_comm(instance_symmetric(), max_arity=5)


@pytest.mark.parametrize("key", S5_KEYS, ids=map(repr, S5_KEYS))
def test_a_foreign_entry_at_an_s5_level_is_reported_as_the_per_case_loops_report_it(key):
    fast = outcome(lambda: results(check_operad(rebind(comm5(), key, "foreign"))))
    assert fast == outcome(lambda: results(reference_check_operad(rebind(comm5(), key, "foreign"))))
