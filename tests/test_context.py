import pytest

from oracle import naive_signature
from logtaxon.context import ContextBounds, build_all_contexts


def signature_at(assignment, index, bounds=ContextBounds()):
    """The stage's signature for the record at 1-based `index`."""
    return build_all_contexts(assignment, bounds)[index - 1]


def test_window_looks_back_and_forward():
    #               1  2  3  4  5  6  7  8  9  10 11 12
    assignment = [9, 9, 9, 9, 9, 9, 9, 3, 4, 7, 5, 9]
    sig = signature_at(assignment, 10, ContextBounds(before=2, after=1))
    assert sig == (3, 4, 5)


def test_own_position_is_excluded():
    assignment = [1, 2, 1]
    sig = signature_at(assignment, 2, ContextBounds(before=1, after=1))
    assert 2 not in sig
    assert sig == (1,)


def test_signature_is_a_set_not_a_sequence():
    # Repeats collapse, and ids come out in ascending order, not window order.
    a = signature_at([5, 5, 5, 1], 4, ContextBounds(before=3, after=0))
    b = signature_at([5, 1, 9], 2, ContextBounds(before=1, after=1))
    c = signature_at([9, 1, 5], 2, ContextBounds(before=1, after=1))
    assert a == (5,)
    assert b == c == (5, 9)


def test_window_clips_at_start():
    assignment = [1, 2, 3, 4]
    assert signature_at(assignment, 1, ContextBounds(before=10, after=0)) == ()
    assert signature_at(assignment, 2, ContextBounds(before=10, after=0)) == (1,)


def test_window_clips_at_end():
    assignment = [1, 2, 3]
    sig = signature_at(assignment, 3, ContextBounds(before=0, after=10))
    assert sig == ()


def test_zero_bounds_give_empty_signature():
    assert signature_at([1, 2, 3], 2, ContextBounds(before=0, after=0)) == ()


def test_default_bounds_look_back_ten():
    assignment = list(range(1, 21))
    sig = signature_at(assignment, 15)
    assert sig == tuple(range(5, 15))


def test_bounds_must_be_non_negative():
    with pytest.raises(ValueError):
        ContextBounds(before=-1)
    with pytest.raises(ValueError):
        ContextBounds(after=-1)


def test_build_all_matches_per_index_calls():
    assignment = [1, 2, 1, 3, 2, 2, 1]
    bounds = ContextBounds(before=2, after=2)
    sigs = build_all_contexts(assignment, bounds)
    assert len(sigs) == len(assignment)
    for i in range(1, len(assignment) + 1):
        assert sigs[i - 1] == naive_signature(assignment, i, 2, 2)


def test_signatures_are_strictly_increasing_tuples():
    assignment = [4, 2, 4, 1, 3, 3, 2, 5, 1, 4]
    for sig in build_all_contexts(assignment, ContextBounds(before=3, after=2)):
        assert type(sig) is tuple
        assert all(a < b for a, b in zip(sig, sig[1:]))


def test_equal_signatures_share_one_instance():
    assignment = [1, 2, 1, 2, 1, 2, 1, 2]
    sigs = build_all_contexts(assignment, ContextBounds(before=2, after=2))
    seen = {}
    for sig in sigs:
        if sig in seen:
            assert sig is seen[sig]
        seen[sig] = sig
