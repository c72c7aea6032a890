"""
`Report.check` over a stream with counted blocks: an int n stands for n
passing cases, so the stream must give the verdict, case count and first
witness of the same stream with each block written out as n Nones, and
must stop drawing at the first witness.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from operadics.reporting import Report

# One passing case, a block of passing cases (0 included), or a witness.
ITEMS = st.one_of(st.none(), st.integers(min_value=0, max_value=40), st.sampled_from(["w1", "w2"]))


def written_out(stream):
    for item in stream:
        if isinstance(item, int):
            yield from [None] * item
        else:
            yield item


@given(st.lists(ITEMS, max_size=30))
@example([3, "w1", 2])
@example([0, "w1"])
@example([None, 0, 0, None])
@example([])
def test_counted_blocks_match_their_cases_written_out(stream):
    counted, expanded = Report("counted"), Report("expanded")
    rest = iter(stream)
    counted.check("law", rest)
    expanded.check("law", written_out(stream))
    assert counted.results == expanded.results
    witnesses = [i for i, item in enumerate(stream) if isinstance(item, str)]
    assert list(rest) == (stream[witnesses[0] + 1 :] if witnesses else [])
