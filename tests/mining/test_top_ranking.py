"""Ranking a page equals slicing the full sort.

``RWRResult.top(k)`` and ``top_pagerank_nodes`` sort only the rows at or
above the k-th largest score.  Ranked payloads are part of the wire
bytes, so the page must be *exactly* the first ``k`` rows of the full
``(-score, tie key)`` sort for every ``k`` — including ties that straddle
the floor and mixed ``int``/``str`` vertex ids.  Scores are drawn from a
handful of values so ties are the common case, not the rare one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.pagerank import top_pagerank_nodes
from repro.mining.rwr import RWRResult, node_sort_key

pytestmark = pytest.mark.tier1

NODE_IDS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abc10", max_size=3),
)
#: few distinct values (ints and floats, including -0.0) => many ties
SCORES = st.sampled_from([0, 0.0, -0.0, 0.125, 0.25, 0.25, 1, 1.0, 3.5, -2.0])
SCORE_DICTS = st.dictionaries(NODE_IDS, SCORES, max_size=40)


def _full_sort(scores, tie_key):
    return sorted(scores.items(), key=lambda pair: (-pair[1], tie_key(pair[0])))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scores=SCORE_DICTS)
def test_rwr_top_equals_the_sliced_full_sort(scores):
    result = RWRResult(scores=scores, iterations=1, converged=True,
                       restart_probability=0.15)
    expected = _full_sort(scores, node_sort_key)
    for count in range(len(scores) + 2):
        assert result.top(count) == expected[:count]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scores=SCORE_DICTS)
def test_top_pagerank_nodes_equals_the_sliced_full_sort(scores):
    expected = _full_sort(scores, repr)
    for count in range(len(scores) + 2):
        assert top_pagerank_nodes(scores, count=count) == expected[:count]


def test_ties_at_the_floor_are_broken_by_the_key_not_insertion_order():
    scores = {"z": 0.5, 10: 0.25, 2: 0.25, "a": 0.25, 7: 0.1}
    result = RWRResult(scores=scores, iterations=1, converged=True,
                       restart_probability=0.15)
    # int ids before str ids (type name), ints numerically
    assert result.top(2) == [("z", 0.5), (2, 0.25)]
    assert result.top(3) == [("z", 0.5), (2, 0.25), (10, 0.25)]
    # repr order puts "'a'" before "10" before "2"
    assert top_pagerank_nodes(scores, count=3) == [
        ("z", 0.5), ("a", 0.25), (10, 0.25)
    ]
